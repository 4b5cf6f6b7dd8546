"""Deontic action models: event sets with permitted/forbidden regions.

A model is a triple (E, P, F) with P and F disjoint subsets of E.  A
valuation sends each basic action to a subset of E and extends uniquely to
all action terms over union/intersection/complement (no ~> here).  perm(a)
holds when the extension lands inside P, forb(a) inside F.

Subsets are bitmasks internally.  Terms are evaluated by the one table
walker of ``syntax`` (``compile_term`` + ``run``) with the mask op set
below, on Python ints for ``sat`` and ``extend`` and on int arrays of many
models at once for ``taut_oracle`` and the classical decider.
``taut_oracle`` enumerates every model with at most ``max_elems`` elements
(all disjoint P/F pairs, all valuations over the occurring symbols) as one
cached grid of element states per size and action count, with the
proposition valuations on their own broadcast axis, so the exhaustive
search over a few tens of thousands of models stays cheap.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import syntax as S
from .syntax import BudgetExceeded


@dataclass(frozen=True)
class DeonticModel:
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


@dataclass(frozen=True)
class Valuation:
    map: dict = field(default_factory=dict)

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
