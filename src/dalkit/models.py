"""Deontic action models, and the exact decider of the classical variants.

A model is a triple (E, P, F) with P and F disjoint subsets of E.  A
valuation sends each basic action to a subset of E and extends uniquely to
all action terms over union/intersection/complement (no ~> here).  perm(a)
holds when the extension lands inside P, forb(a) inside F.

Subsets are bitmasks.  Terms are evaluated by the one table walker of
``syntax`` with the op sets below: on Python ints for ``sat``, ``extend``
and ``decide_classical``, and on numpy arrays of every small model for
``taut_oracle``, which alone imports numpy, when called.

``decide_classical`` decides DAL, DAL_PROP and NDAL1-5 exactly: a model
observes only whether each Boolean atom over the letters is Empty,
Permitted, Forbidden or Neutral, so enumerating the 4^(2^n) * 2^m status
assignments (fewer under NDAL) is complete.  They are bit-sliced: row r
numbers them with atom 0 most significant, then the propositions (False
first), and a formula's value is one int with bit r set where it holds.
Rows past ``_SLICE_ROWS`` are split off as heads, leading digits
enumerated in order.  The countermodel is the lowest admissible falsifying
row, the first in enumeration order.
"""

from __future__ import annotations

import functools
import itertools as it
import math

from . import syntax as S
from .syntax import BudgetExceeded, LogicVariant as V


class DeonticModel(S.Record):
    elements: tuple
    permitted: frozenset
    forbidden: frozenset

    def __init__(self, elements, permitted=(), forbidden=()):
        object.__setattr__(self, "elements", tuple(elements))
        object.__setattr__(self, "permitted", frozenset(permitted))
        object.__setattr__(self, "forbidden", frozenset(forbidden))
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate element names")
        universe = set(self.elements)
        if not self.permitted <= universe or not self.forbidden <= universe:
            raise ValueError("permitted/forbidden must be subsets of the elements")
        if self.permitted & self.forbidden:
            raise ValueError("permitted and forbidden must be disjoint")


class Valuation(S.Record):
    map: dict

    def __init__(self, map=()):
        object.__setattr__(self, "map", {k: frozenset(v) for k, v in dict(map).items()})


def _mask(idx: dict, subset) -> int:
    m = 0
    for e in subset:
        try:
            m |= 1 << idx[e]
        except KeyError:
            raise ValueError(f"unknown element {e!r}") from None
    return m


def _no_model(env, name, *args):
    raise ValueError("~> has no model semantics")


def _schema_only(env, name):
    raise TypeError(f"metavariable {name!r} has no model semantics")


# Mask semantics: action values are bitmasks over the elements (Python ints
# of any width, or int arrays of many models at once), formula values bools
# or bool arrays.  Negation is ^ True, which stays boolean on Python bools
# where ~ would not.
_MASK_OPS = {
    S.Basic: lambda env, name: env["acts"][name],
    S.Zero: lambda env, _: 0,
    S.One: lambda env, _: env["full"],
    S.Union: lambda env, _, a, b: a | b,
    S.Inter: lambda env, _, a, b: a & b,
    S.Compl: lambda env, _, a: env["full"] & ~a,
    S.AImpl: _no_model,
    S.AVar: _schema_only,
    S.Eq: lambda env, _, a, b: a == b,
    S.Perm: lambda env, _, a: a & ~env["P"] == 0,
    S.Forb: lambda env, _, a: a & ~env["F"] == 0,
    S.Prop: lambda env, name: env["props"][name],
    S.Or: lambda env, _, a, b: a | b,
    S.And: lambda env, _, a, b: a & b,
    S.Not: lambda env, _, a: a ^ True,
    S.Impl: lambda env, _, a, b: (a ^ True) | b,
    S.Iff: lambda env, _, a, b: a == b,
    S.Top: lambda env, _: True,
    S.Bot: lambda env, _: False,
    S.FVar: _schema_only,
}


def _model_env(M: DeonticModel, v: Valuation, table, prop_val=None) -> dict:
    """Mask environment of M, v and prop_val; checks up front that they
    cover every basic action and proposition of the table."""
    idx = {e: i for i, e in enumerate(M.elements)}
    acts, props = {name: _mask(idx, s) for name, s in v.map.items()}, {}
    for cls, name, _, _ in table:
        if cls is S.Basic and name not in acts:
            raise ValueError(f"valuation does not cover basic action {name!r}")
        if cls is S.Prop:
            if prop_val is None:
                raise ValueError("propositions need a prop valuation")
            if name not in prop_val:
                raise ValueError(f"prop valuation does not cover {name!r}")
            props[name] = bool(prop_val[name])
    return {"full": (1 << len(idx)) - 1, "P": _mask(idx, M.permitted),
            "F": _mask(idx, M.forbidden), "acts": acts, "props": props}


def extend(M: DeonticModel, v: Valuation, alpha: S.ActionTerm) -> frozenset:
    """The unique extension of v to the action term alpha, as a subset of E."""
    table = S.compile_term(alpha)
    m = S.run(table, _MASK_OPS, _model_env(M, v, table))
    return frozenset(e for i, e in enumerate(M.elements) if m >> i & 1)


def sat(M: DeonticModel, v: Valuation, phi: S.FormulaTerm, prop_val=None) -> bool:
    """M, v |= phi.  prop_val maps proposition names to booleans."""
    table = S.compile_term(phi)
    return bool(S.run(table, _MASK_OPS, _model_env(M, v, table, prop_val)))


# ---------------------------------------------------------------------------
# Exact decider of the classical variants
# ---------------------------------------------------------------------------

EMPTY, PERMITTED, FORBIDDEN, NEUTRAL = range(4)


class Valid(S.Record):
    pass


class Countermodel(S.Record):
    model: DeonticModel | None = None
    valuation: Valuation | None = None
    prop_val: dict | None = None
    algebra: DeonticAlgebra | None = None
    interp: Interpretation | None = None


class AtomAssignment(S.Record):
    """One point of the canonical search space: a status per Boolean atom
    over `actions` (atom index = bitmask of positive actions) plus one
    boolean per proposition."""
    actions: tuple
    statuses: tuple
    prop_val: dict = {}   # copied per instance

    def induced_model(self):
        elems = tuple(f"e{t}" for t, s in enumerate(self.statuses) if s != EMPTY)
        permitted = {f"e{t}" for t, s in enumerate(self.statuses) if s == PERMITTED}
        forbidden = {f"e{t}" for t, s in enumerate(self.statuses) if s == FORBIDDEN}
        vmap = {a: {f"e{t}" for t, s in enumerate(self.statuses)
                    if s != EMPTY and t >> i & 1}
                for i, a in enumerate(self.actions)}
        return DeonticModel(elems, permitted, forbidden), Valuation(vmap)


_CLASSICAL = (V.DAL, V.DAL_PROP, V.NDAL1, V.NDAL2, V.NDAL3, V.NDAL4, V.NDAL5)
_REGIONAL = (V.NDAL1, V.NDAL2, V.NDAL3, V.NDAL5)
_SLICE_ROWS = 1 << 16   # the most rows one bit-sliced run spans: 4^8, eight atoms


def _all_rows(env, key, atoms):
    """The rows where env[key][t] holds for every atom t in the mask ``atoms``."""
    rows, masks = env["ALL"], env[key]
    for t in range(atoms.bit_length()):
        if atoms >> t & 1:
            rows &= masks[t]
    return rows


# Bit-sliced semantics: action values are masks of atoms, as in _MASK_OPS
# with "full" all atoms; formula values are masks of rows, env["ALL"] all.
_SLICE_OPS = _MASK_OPS | {
    S.Eq: lambda env, _, a, b: _all_rows(env, "empty", a ^ b),
    S.Perm: lambda env, _, a: _all_rows(env, "okP", a),
    S.Forb: lambda env, _, a: _all_rows(env, "okF", a),
    S.Not: lambda env, _, a: env["ALL"] ^ a,
    S.Impl: lambda env, _, a, b: env["ALL"] ^ a | b,
    S.Iff: lambda env, _, a, b: env["ALL"] ^ a ^ b,
    S.Top: lambda env, _: env["ALL"],
    S.Bot: lambda env, _: 0,
}


def _statuses(variant, t):
    """The statuses atom t may take under variant, in enumeration order."""
    if t == 0 and variant in (V.NDAL3, V.NDAL5):
        return (EMPTY,)
    if variant in (V.NDAL4, V.NDAL5) or (t == 0 and variant is V.NDAL2):
        return (EMPTY, PERMITTED, FORBIDDEN)
    return (EMPTY, PERMITTED, FORBIDDEN, NEUTRAL)


@functools.lru_cache(maxsize=None)
def _region_masks(n):
    """Per basic action, the atoms (bitmask over 2^n) where it is positive."""
    return tuple(sum(1 << t for t in range(1 << n) if t >> i & 1) for i in range(n))


_ON = {"okP": (EMPTY, PERMITTED), "okF": (EMPTY, FORBIDDEN), "empty": (EMPTY,)}


@functools.lru_cache(maxsize=None)
def _slice(k, j):
    """Over the 4^k * 2^j rows of k atom digits, then j proposition digits:
    ALL, per atom the rows where its status is _ON[key], and per proposition
    the rows where it is true."""
    rows = 4 ** k << j

    def where(w, base, values):   # the rows whose digit of weight w is in values
        block = sum(((1 << w) - 1) << v * w for v in values)
        return block * ((1 << rows) - 1) // ((1 << w * base) - 1)

    weights = [4 ** (k - 1 - q) << j for q in range(k)]
    env = {key: tuple(where(w, 4, on) for w in weights) for key, on in _ON.items()}
    env["props"] = tuple(where(1 << (j - 1 - i), 2, (1,)) for i in range(j))
    return env | {"ALL": (1 << rows) - 1}


def _env(n, k, j, head):
    """The environment of the slice of k atom and j proposition digits under
    a head, the digits before them, whose masks are all rows or none."""
    env = _slice(k, j) | {"full": (1 << (1 << n)) - 1}
    if head:
        ALL = env["ALL"]
        for key, on in _ON.items():
            env[key] = tuple(ALL if s in on else 0 for s in head[:1 << n]) + env[key]
        env["props"] = tuple(ALL if b else 0 for b in head[1 << n:]) + env["props"]
    return env


def _admitted(env, n, variant, lo=0):
    """The rows where every atom from lo on has a status the variant allows
    and, under NDAL1-3 and NDAL5, perm(a) | forb(a) holds for every letter."""
    ok = env["ALL"]
    for t in range(lo, 1 << n):
        allowed = _statuses(variant, t)
        if len(allowed) < 4:
            ok &= env["empty"][t] if allowed == (EMPTY,) else env["okP"][t] | env["okF"][t]
    for r in _region_masks(n) if variant in _REGIONAL else ():
        ok &= _SLICE_OPS[S.Perm](env, None, r) | _SLICE_OPS[S.Forb](env, None, r)
    return ok


@functools.lru_cache(maxsize=None)
def _admissible(n, m, variant):
    """The admissible rows when one slice holds every assignment."""
    return _admitted(_env(n, 1 << n, m, ()), n, variant)


def decide_classical(phi: S.FormulaTerm, variant: V = V.DAL, alphabet=None,
                     max_assignments: int = 1_000_000):
    """Valid() or the first falsifying Countermodel in enumeration order:
    atom statuses with atom 0 most significant, then propositions (False
    first).  The compiled formula runs bit-sliced once if all assignments
    fit _SLICE_ROWS, as at up to 3 letters without propositions, else once
    per head; the countermodel is re-verified.  Over ``max_assignments``
    assignments (counted before admissibility) or 6+ letters raise
    BudgetExceeded, a negative budget ValueError."""
    if variant not in _CLASSICAL:
        raise ValueError(f"{variant.value} is not decided classically")
    if max_assignments < 0:
        raise ValueError("budgets must be non-negative")
    table = S.compile_term(phi)
    letters, props = S.table_names(table, S.Basic), S.table_names(table, S.Prop)
    if props and not variant.allows_props:
        raise ValueError(f"propositions are not allowed under {variant.value}")
    if variant.requires_alphabet and not alphabet:
        raise ValueError(f"{variant.value} needs a declared finite alphabet")
    actions = letters
    if alphabet and (variant.requires_alphabet or variant is V.NDAL1):
        for k, a in enumerate(alphabet):
            if a in alphabet[:k]:
                raise ValueError(f"letter {a!r} repeats in the declared alphabet")
        if missing := set(letters) - set(alphabet):
            raise ValueError(f"actions {sorted(missing)} outside the declared alphabet")
        actions = tuple(alphabet)
    n, m = len(actions), len(props)
    total = (4 ** (1 << n)) * (1 << m)
    if total > max_assignments:
        raise BudgetExceeded(f"{total} assignments exceed the budget of {max_assignments}")
    if n > 5:
        raise BudgetExceeded(f"{n} letters give {total} assignments; "
                             "the classical decider enumerates at most 5 letters")
    bases = (4,) * (1 << n) + (2,) * m   # the digits: atom statuses, then propositions
    lo, rows = len(bases), 1
    while lo and rows * bases[lo - 1] <= _SLICE_ROWS:   # the slice: the longest suffix that fits
        lo -= 1
        rows *= bases[lo]
    k, j = bases[lo:].count(4), bases[lo:].count(2)
    acts = dict(zip(actions, _region_masks(n)))
    for head in it.product(*(_statuses(variant, t) if b == 4 else (0, 1)
                             for t, b in enumerate(bases[:lo]))):
        env = _env(n, k, j, head)
        env["acts"], env["props"] = acts, dict(zip(props, env["props"]))
        ok = _admitted(env, n, variant, lo) if lo else _admissible(n, m, variant)
        bad = ok & ~S.run(table, _SLICE_OPS, env)
        if bad:
            r = (bad & -bad).bit_length() - 1   # the slice's digits of row r follow the head's
            digits = head + tuple(r // math.prod(bases[t + 1:]) % bases[t]
                                  for t in range(lo, len(bases)))
            pv = {p: bool(b) for p, b in zip(props, digits[1 << n:])}
            M, v = AtomAssignment(actions, digits[:1 << n], pv).induced_model()
            if S.run(table, _MASK_OPS, _model_env(M, v, table, pv or None)):
                raise AssertionError("countermodel failed to re-verify")
            return Countermodel(model=M, valuation=v, prop_val=pv)
    return Valid()


# ---------------------------------------------------------------------------
# Exhaustive small-model oracle
# ---------------------------------------------------------------------------
#
# A model with n elements and k occurring actions is coded by one state in
# range(3 * 2**k) per element (P/F/neither times the action memberships) plus
# one bit per proposition; all models of one size form a flat index range.

_ORACLE_ROW_CAP = 4_000_000


@functools.lru_cache(maxsize=None)
def _oracle_grid(n, k):
    """(3 + k, rows) int8 masks P, F, then one per action, of every state code
    of n elements over k actions, element 0 least significant."""
    import numpy as np
    per = 3 << k
    states = np.arange(per**n)[:, None] // per ** np.arange(n) % per   # (rows, n)
    pf, mem = states % 3, states // 3
    bits = np.stack([pf == 1, pf == 2] + [mem >> j & 1 == 1 for j in range(k)])
    return (bits << np.arange(n)).sum(axis=2).astype(np.int8)


def _decode_witness(n, acts, props, row):
    code, bits = divmod(row, 1 << len(props))
    P, F, *masks = (int(x) for x in _oracle_grid(n, len(acts))[:, code])
    elems = tuple(f"e{i + 1}" for i in range(n))

    def subset(mask):
        return {e for i, e in enumerate(elems) if mask >> i & 1}

    prop_val = {p: bool(bits >> j & 1) for j, p in enumerate(props)}
    return (DeonticModel(elems, subset(P), subset(F)),
            Valuation({a: subset(m) for a, m in zip(acts, masks)}), prop_val)


def taut_oracle(phi: S.FormulaTerm, max_elems: int = 4, return_witness: bool = False):
    """Exhaustively search all models with up to max_elems elements.

    True means no small countermodel exists.  With return_witness=True the
    result is (bool, witness) where a falsifying witness is the triple
    (DeonticModel, Valuation, prop_val) for the first failure in enumeration
    order (model size, then coded state).
    """
    import numpy as np
    table = S.compile_term(phi)
    acts, props = S.table_names(table, S.Basic), S.table_names(table, S.Prop)
    if len(acts) > 2:
        raise BudgetExceeded("oracle supports at most 2 basic actions")
    if max_elems > 4:
        raise BudgetExceeded("oracle supports at most 4 elements")
    k, m = len(acts), len(props)
    for n in range(max_elems + 1):
        total = (3 << k) ** n << m
        if total > _ORACLE_ROW_CAP:
            raise BudgetExceeded(f"{total} candidate models exceed the oracle budget")
        P, F, *masks = _oracle_grid(n, k)[:, :, None]   # state codes x proposition valuations
        cols = np.arange(1 << m)   # first proposition least significant
        env = {"full": (1 << n) - 1, "P": P, "F": F, "acts": dict(zip(acts, masks)),
               "props": {p: cols >> j & 1 == 1 for j, p in enumerate(props)}}
        res = np.broadcast_to(S.run(table, _MASK_OPS, env), (len(P), 1 << m))
        if not res.all():
            if not return_witness:
                return False
            row = int(np.flatnonzero(~res)[0])
            return False, _decode_witness(n, acts, props, row)
    return (True, None) if return_witness else True
