"""Validity decisions.

Classical variants (DAL, DAL_PROP, NDAL1-5) are decided exactly: each
Boolean atom over the occurring basic actions gets a status out of
Empty/Permitted/Forbidden/Neutral, which determines everything a model can
observe about a term's region (whether it is inside P, inside F, or empty),
so enumerating the 4^(2^n) * 2^m assignments is a complete search.  The
NDAL variants restrict the admissible assignments:

  NDAL1  every basic action's region entirely permitted or forbidden
  NDAL2  NDAL1, and the all-complements atom not neutral
  NDAL3  NDAL1, and the all-complements atom empty
  NDAL4  every non-empty atom permitted or forbidden
  NDAL5  NDAL3 and NDAL4

The admissible assignments of a letter count and variant form one status
grid of live/P/F bitmasks, built once and cached.  The formula is compiled
once and evaluated on chunks of its rows, in enumeration order, with the
mask op set of ``models``, so the countermodel returned is the first in
that order.

The Heyting variants (DAL_IPL, DAL_IAL, DAL_INT) get a refutation-only
search over catalog algebra pairs with all valid crisp-equality P/F maps;
it returns a countermodel or Unknown, never Valid.  The catalog pairs are
built once per process, and so is the stack of valid P/F maps of each pair
whose whole P x F product fits one ``algebra._COND_CHUNK`` block of the
condition-3 filter: it is built the first time a search reaches the pair
and then kept.  A larger pair is streamed block by block on every search
and never stored.
"""

from __future__ import annotations

import functools
import itertools as it
from dataclasses import dataclass, field

import numpy as np

from . import syntax as S
from .algebra import (BudgetExceeded, DeonticAlgebra, Interpretation,
                      _assignment_grid, _compiled, _pf_one_block, _pf_stacks,
                      _run_table, evaluate)
from .lattice import heyting_catalog, powerset_algebra, two
from .models import _MASK_OPS, DeonticModel, Valuation, _model_env
from .syntax import LogicVariant as V

EMPTY, PERMITTED, FORBIDDEN, NEUTRAL = range(4)
STATUS_NAMES = ("Empty", "Permitted", "Forbidden", "Neutral")


@dataclass(frozen=True)
class Valid:
    pass


@dataclass(frozen=True)
class Countermodel:
    model: DeonticModel | None = None
    valuation: Valuation | None = None
    prop_val: dict | None = None
    algebra: DeonticAlgebra | None = None
    interp: Interpretation | None = None


@dataclass(frozen=True)
class Unknown:
    reason: str


@dataclass(frozen=True)
class AtomAssignment:
    """One point of the canonical search space: a status per Boolean atom
    over `actions` (atom index = bitmask of positive actions) plus one
    boolean per proposition."""
    actions: tuple
    statuses: tuple
    prop_val: dict = field(default_factory=dict)

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
_GRID_ATOMS = 8         # atoms one cached status grid spans: at most 4^8 rows
_CHUNK_ROWS = 1 << 14   # the largest evaluation chunk, in assignments
_STATUS_BITS = np.array([[0, 1, 1, 1], [0, 1, 0, 0], [0, 0, 1, 0]])  # live/P/F per status


def _statuses(variant, t):
    """The statuses atom t may take under variant, in enumeration order."""
    if t == 0 and variant in (V.NDAL3, V.NDAL5):
        return (EMPTY,)
    if variant in (V.NDAL4, V.NDAL5) or (t == 0 and variant is V.NDAL2):
        return (EMPTY, PERMITTED, FORBIDDEN)
    return (EMPTY, PERMITTED, FORBIDDEN, NEUTRAL)


def _region_masks(n):
    """Per basic action, the atoms (bitmask over 2^n) where it is positive."""
    return [sum(1 << t for t in range(1 << n) if t >> i & 1) for i in range(n)]


def _region_ok(regions, live, P, F):
    """Rows where every region's non-empty atoms are all permitted or all forbidden."""
    ok = np.ones(live.shape, bool)
    for r in regions:
        r = live & r
        ok &= (r & ~P == 0) | (r & ~F == 0)
    return ok


@functools.lru_cache(maxsize=None)
def _status_grid(n, lo, variant):
    """(3, rows) live/P/F masks of the status tuples of atoms lo..2^n-1 in
    it.product order, kept if their own atoms pass the region test; with
    lo == 0 these are exactly the admissible assignments."""
    grid, regions = np.zeros((3, 1), np.int16 if n <= 3 else np.int64), _region_masks(n)
    for t in range(lo, 1 << n):
        bits = (_STATUS_BITS[:, _statuses(variant, t)] << t).astype(grid.dtype)
        grid = (grid[:, :, None] | bits[:, None, :]).reshape(3, -1)
        if variant in _REGIONAL:   # a failing prefix fails in every extension
            grid = grid[:, _region_ok(regions, *grid)]
    return grid


def decide_classical(phi: S.FormulaTerm, variant: V = V.DAL, alphabet=None,
                     max_assignments: int = 1_000_000):
    """Valid() or the first falsifying Countermodel in enumeration order:
    atom statuses with atom 0 most significant, then propositions (False
    first).  The formula is evaluated on chunks of one cached status grid
    per letter count and variant, growing geometrically up to _CHUNK_ROWS
    assignments; the countermodel is rebuilt from the first falsifying one
    and re-verified at that point.  Over ``max_assignments`` assignments
    (counted before admissibility) or 6+ letters raise BudgetExceeded, a
    negative budget ValueError."""
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
    if alphabet and (variant.requires_alphabet or variant is V.NDAL1):
        for k, a in enumerate(alphabet):
            if a in alphabet[:k]:
                raise ValueError(f"letter {a!r} repeats in the declared alphabet")
        missing = set(letters) - set(alphabet)
        if missing:
            raise ValueError(f"actions {sorted(missing)} outside the declared alphabet")
        actions = tuple(alphabet)
    else:
        actions = letters
    n, m = len(actions), len(props)
    total = (4 ** (1 << n)) * (1 << m)
    if total > max_assignments:
        raise BudgetExceeded(f"{total} assignments exceed the budget of {max_assignments}")
    if n > 5:
        raise BudgetExceeded(f"{n} letters exceed the 64-bit status masks")
    lo = max(0, (1 << n) - _GRID_ATOMS)   # atoms left of the grid: enumerated here
    grid = _status_grid(n, lo, V.DAL if variant is V.DAL_PROP else variant)
    regions = _region_masks(n)
    valuations = np.arange(1 << m)   # first proposition most significant
    prop_env = {p: valuations >> (m - 1 - j) & 1 == 1 for j, p in enumerate(props)}
    rows, cap = grid.shape[1], max(1, _CHUNK_ROWS >> m)
    size = min(64, cap)
    for head in it.product(*(_statuses(variant, t) for t in range(lo))):
        start = 0
        while start < rows:
            stop = min(start + size, rows)
            size = min(4 * size, cap)
            chunk = grid[:, start:stop]   # a view
            if lo:
                chunk = chunk | (_STATUS_BITS[:, head] << np.arange(lo)).sum(axis=1, keepdims=True)
            live, P, F = chunk[:, :, None]   # status rows x proposition valuations
            env = {"full": live, "P": P, "F": F, "props": prop_env,
                   "acts": {a: live & r for a, r in zip(actions, regions)}}
            bad = ~np.broadcast_to(S.run(table, _MASK_OPS, env), (stop - start, 1 << m))
            if lo and variant in _REGIONAL:
                bad &= _region_ok(regions, live, P, F)
            hits = np.flatnonzero(bad)
            if len(hits):
                k, bits = divmod(int(hits[0]), 1 << m)
                statuses = tuple(_STATUS_BITS.T.tolist().index([int(x) >> t & 1 for x in chunk[:, k]])
                                 for t in range(1 << n))
                pv = {p: bool(bits >> (m - 1 - j) & 1) for j, p in enumerate(props)}
                M, v = AtomAssignment(actions, statuses, pv).induced_model()
                if S.run(table, _MASK_OPS, _model_env(M, v, table, pv or None)):
                    raise AssertionError("countermodel failed to re-verify")
                return Countermodel(model=M, valuation=v, prop_val=pv)
            start = stop
    return Valid()


# ---------------------------------------------------------------------------
# Heyting-variant countermodel search
# ---------------------------------------------------------------------------

def _boolean_catalog(max_atoms=2):
    return [powerset_algebra([f"t{i}" for i in range(k)])
            for k in range(1, max_atoms + 1)]


@functools.lru_cache(maxsize=None)
def _catalog_pairs(variant, max_points):
    """The (action, formula) algebra pairs searched, built once per process,
    so the same pair objects key _pair_stack."""
    heyt = heyting_catalog(max_points)
    if variant is V.DAL_IPL:
        return tuple((a, f) for a in _boolean_catalog() for f in heyt)
    if variant is V.DAL_IAL:
        return tuple((a, two()) for a in heyt)
    if variant is V.DAL_INT:
        return tuple((a, f) for a in heyt for f in heyt)
    raise ValueError(f"{variant.value} is not a Heyting-search variant")


@functools.lru_cache(maxsize=None)
def _fence_pairs():
    """fence_scenario_search's pairs, built once so they key _pair_stack."""
    return tuple((action, two()) for action in (two(), powerset_algebra(["t0", "t1"])))


@functools.lru_cache(maxsize=None)
def _pair_stack(A, Fm):
    """The _pf_stacks blocks of a pair that fits one ``_COND_CHUNK`` block,
    kept for the life of the process, since the valid P/F maps depend only on
    the pair; None for a larger pair, which every search streams anew.  The
    index arrays are kept in the smallest integer type that holds them."""
    if not _pf_one_block(A, Fm):
        return None
    return tuple((Ps, Fs, pi.astype(np.min_scalar_type(len(Ps))), fi.astype(np.min_scalar_type(len(Fs))))
                 for Ps, Fs, pi, fi in _pf_stacks(A, Fm))


_CAND_CHUNK = 1 << 20


def _search(pairs, hit, acts, props, max_candidates, max_interps):
    """(algebra, interpretation, candidates tried) at the first cell, in
    countermodel_heyting's order, where ``hit(D, assign)`` holds; D stacks c
    P/F candidates as (c, |A|) arrays, hit gives booleans broadcastable to
    (c, interpretations).  No algebra if the pairs or max_candidates run out."""
    if max_candidates < 0 or max_interps < 0:
        raise ValueError("budgets must be non-negative")
    tried = 0
    for A, Fm in pairs:
        grid = None
        blocks = _pair_stack(A, Fm)
        for Ps, Fs, pi, fi in _pf_stacks(A, Fm) if blocks is None else blocks:
            n, pi, fi = len(pi), pi[:max_candidates - tried], fi[:max_candidates - tried]
            if len(pi):
                assign, total = grid = grid or _assignment_grid(
                    DeonticAlgebra(A, Fm, Ps, Fs), acts, props, max_interps)
                step = max(1, _CAND_CHUNK // total)
                for c0 in range(0, len(pi), step):
                    D = DeonticAlgebra(A, Fm, Ps[pi[c0:c0 + step]], Fs[fi[c0:c0 + step]])
                    cells = np.flatnonzero(np.broadcast_to(hit(D, assign), (len(D.P), total)))
                    if len(cells):
                        c, r = divmod(int(cells[0]), total)
                        h = Interpretation(act={a: int(assign[a][r]) for a in acts},
                                           prop={p: int(assign[p][r]) for p in props})
                        return DeonticAlgebra(A, Fm, D.P[c], D.F[c]), h, tried + c0 + c + 1
            tried += n
            if tried > max_candidates:
                return None, None, tried
    return None, None, tried


def countermodel_heyting(phi: S.FormulaTerm, variant: V,
                         max_candidates: int = 5000,
                         max_interps: int = 65536,
                         max_points: int = 2):
    """Search catalog algebra pairs for a falsifying interpretation.

    Refutation only: the result is a Countermodel carrying the algebra and
    interpretation, or Unknown (budget exhausted or catalog exhausted).  The
    countermodel is the first in catalog pair order, then P-major/F-minor
    over join-irreducible values, then interpretation grid order, and is
    re-verified by the scalar evaluator.  A pair's candidates are evaluated
    together, in chunks of at most ``_CAND_CHUNK`` candidate-interpretation
    cells.  The valid P/F maps of a pair that fits one ``_COND_CHUNK`` block
    are built once per process, when a search first reaches the pair, and
    reused by every later search; larger pairs are rebuilt, block by block,
    each time.  Negative budgets raise ValueError.
    """
    table = _compiled(phi)   # evaluate's re-verification finds it compiled
    acts, props = S.table_names(table, S.Basic), S.table_names(table, S.Prop)
    try:
        D, h, tried = _search(_catalog_pairs(variant, max_points),
                              lambda D, assign: _run_table(D, assign, assign, table) != D.formula.top,
                              acts, props, max_candidates, max_interps)
    except BudgetExceeded as e:
        return Unknown(str(e))
    if D is None:
        return Unknown(f"candidate budget of {max_candidates} algebras exhausted"
                       if tried > max_candidates else f"no countermodel among {tried} catalog algebras")
    if evaluate(D, h, phi) == D.formula.top:
        raise AssertionError("countermodel failed to re-verify")
    return Countermodel(algebra=D, interp=h)


def fence_scenario_search(max_candidates: int = 200):
    """A nontrivial algebra + interpretation satisfying the four fence
    prescriptions at once; raises if none shows up within the budget."""
    texts = ("obl(~isfenced)",
             "isfenced == 1 -> obl(ispaintedwhite)",
             "isfenced == 1",
             "ispaintedwhite + isfenced == isfenced")
    conj = functools.reduce(S.And, (S.parse_formula(t, V.DAL_PROP) for t in texts))
    table = S.compile_term(conj)
    D, h, _ = _search(_fence_pairs(), lambda D, assign: _run_table(D, assign, assign, table) == D.formula.top,
                      S.table_names(table, S.Basic), [], max_candidates, 1 << 16)
    if D is None:
        raise BudgetExceeded(f"no fence witness within {max_candidates} candidates")
    return D, h
