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

The Heyting variants (DAL_IPL, DAL_IAL, DAL_INT) get a refutation-only
search over catalog algebra pairs with all valid crisp-equality P/F maps;
it returns a countermodel or Unknown, never Valid.
"""

from __future__ import annotations

import functools
import itertools as it
from dataclasses import dataclass, field

import numpy as np

from . import syntax as S
from .algebra import (BudgetExceeded, DeonticAlgebra, Interpretation,
                      _assignment_grid, _pf_stacks, evaluate, evaluate_batch)
from .lattice import heyting_catalog, powerset_algebra, two
from .models import DeonticModel, Valuation, sat
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


def _region_masks(n):
    regions = []
    for i in range(n):
        r = 0
        for t in range(1 << n):
            if t >> i & 1:
                r |= 1 << t
        regions.append(r)
    return regions


def _eval_atoms(phi, live, pmask, fmask, amasks, props):
    def act(t):
        if isinstance(t, S.Basic):
            return amasks[t.name]
        if isinstance(t, S.Zero):
            return 0
        if isinstance(t, S.One):
            return live
        if isinstance(t, S.Union):
            return act(t.left) | act(t.right)
        if isinstance(t, S.Inter):
            return act(t.left) & act(t.right)
        if isinstance(t, S.Compl):
            return live & ~act(t.arg)
        raise ValueError("~> has no classical model semantics")

    def form(t):
        if isinstance(t, S.Eq):
            return act(t.left) == act(t.right)
        if isinstance(t, S.Perm):
            return act(t.arg) & ~pmask == 0
        if isinstance(t, S.Forb):
            return act(t.arg) & ~fmask == 0
        if isinstance(t, S.Prop):
            return props[t.name]
        if isinstance(t, S.Or):
            return form(t.left) or form(t.right)
        if isinstance(t, S.And):
            return form(t.left) and form(t.right)
        if isinstance(t, S.Not):
            return not form(t.arg)
        if isinstance(t, S.Impl):
            return not form(t.left) or form(t.right)
        if isinstance(t, S.Iff):
            return form(t.left) == form(t.right)
        if isinstance(t, S.Top):
            return True
        if isinstance(t, S.Bot):
            return False
        raise TypeError(f"not a formula term: {t!r}")

    return form(phi)


_CLASSICAL = (V.DAL, V.DAL_PROP, V.NDAL1, V.NDAL2, V.NDAL3, V.NDAL4, V.NDAL5)


def decide_classical(phi: S.FormulaTerm, variant: V = V.DAL, alphabet=None,
                     max_assignments: int = 1_000_000):
    """Valid() or the first falsifying Countermodel in enumeration order."""
    if variant not in _CLASSICAL:
        raise ValueError(f"{variant.value} is not decided classically")
    sym = S.symbols(phi)
    if sym.props and not variant.allows_props:
        raise ValueError(f"propositions are not allowed under {variant.value}")
    if variant.requires_alphabet:
        if not alphabet:
            raise ValueError(f"{variant.value} needs a declared finite alphabet")
        missing = set(sym.actions) - set(alphabet)
        if missing:
            raise ValueError(f"actions {sorted(missing)} outside the declared alphabet")
        actions = tuple(alphabet)
    elif variant is V.NDAL1 and alphabet:
        actions = tuple(alphabet)
    else:
        actions = sym.actions
    props = sym.props
    n, m = len(actions), len(props)
    n_atoms = 1 << n
    total = (4 ** n_atoms) * (1 << m)
    if total > max_assignments:
        raise BudgetExceeded(f"{total} assignments exceed the budget of {max_assignments}")
    regions = _region_masks(n)

    def admissible(statuses, live, pmask, fmask):
        if variant in (V.NDAL1, V.NDAL2, V.NDAL3, V.NDAL5):
            for r in regions:
                r &= live
                if r & ~pmask and r & ~fmask:
                    return False
        if variant is V.NDAL2 and statuses[0] == NEUTRAL:
            return False
        if variant in (V.NDAL3, V.NDAL5) and statuses[0] != EMPTY:
            return False
        if variant in (V.NDAL4, V.NDAL5) and NEUTRAL in statuses:
            return False
        return True

    for statuses in it.product(range(4), repeat=n_atoms):
        live = pmask = fmask = 0
        for t, s in enumerate(statuses):
            if s != EMPTY:
                live |= 1 << t
            if s == PERMITTED:
                pmask |= 1 << t
            elif s == FORBIDDEN:
                fmask |= 1 << t
        if not admissible(statuses, live, pmask, fmask):
            continue
        amasks = {a: regions[i] & live for i, a in enumerate(actions)}
        for bits in it.product((False, True), repeat=m):
            pv = dict(zip(props, bits))
            if not _eval_atoms(phi, live, pmask, fmask, amasks, pv):
                assignment = AtomAssignment(actions, statuses, pv)
                M, v = assignment.induced_model()
                if sat(M, v, phi, prop_val=pv or None):
                    raise AssertionError("countermodel failed to re-verify")
                return Countermodel(model=M, valuation=v, prop_val=pv)
    return Valid()


# ---------------------------------------------------------------------------
# Heyting-variant countermodel search
# ---------------------------------------------------------------------------

def _boolean_catalog(max_atoms=2):
    return [powerset_algebra([f"t{i}" for i in range(k)])
            for k in range(1, max_atoms + 1)]


def _catalog_pairs(variant, max_points):
    heyt = list(heyting_catalog(max_points))
    if variant is V.DAL_IPL:
        return [(a, f) for a in _boolean_catalog() for f in heyt]
    if variant is V.DAL_IAL:
        return [(a, f) for a in heyt for f in [two()]]
    if variant is V.DAL_INT:
        return [(a, f) for a in heyt for f in heyt]
    raise ValueError(f"{variant.value} is not a Heyting-search variant")


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
        for Ps, Fs in _pf_stacks(A, Fm):
            n, Ps, Fs = len(Ps), Ps[:max_candidates - tried], Fs[:max_candidates - tried]
            if len(Ps):
                assign, total = grid = grid or _assignment_grid(
                    DeonticAlgebra(A, Fm, Ps, Fs), acts, props, max_interps)
                step = max(1, _CAND_CHUNK // total)
                for c0 in range(0, len(Ps), step):
                    D = DeonticAlgebra(A, Fm, Ps[c0:c0 + step], Fs[c0:c0 + step])
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
    cells.  Negative budgets raise ValueError.
    """
    acts, props = sorted(S.symbols(phi).actions), sorted(S.symbols(phi).props)
    try:
        D, h, tried = _search(_catalog_pairs(variant, max_points),
                              lambda D, assign: evaluate_batch(D, assign, phi) != D.formula.top,
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
    names = sorted(S.symbols(conj).actions)
    pairs = [(action, two()) for action in (two(), powerset_algebra(["t0", "t1"]))]
    D, h, _ = _search(pairs, lambda D, assign: evaluate_batch(D, assign, conj) == D.formula.top,
                      names, [], max_candidates, 1 << 16)
    if D is None:
        raise BudgetExceeded(f"no fence witness within {max_candidates} candidates")
    return D, h
