"""Conversions between deontic action models and concrete deontic algebras.

to_algebra(M, v) builds the field of sets over E generated by the valuation
images (closed under union, intersection and complement in E), takes the
two-element formula algebra, and sets P(X) = top iff X is inside the model's
permitted region (F likewise), with crisp equality.  to_model goes back:
events are the union of the carrier's member sets, permitted/forbidden the
unions of the P/F top-preimages.  The two maps preserve satisfaction; they
are honest inverses only when the model's regions are expressible in the
generated field, so round_trip_report compares both ways and reports any
mismatch instead of hiding it.

stoneify replaces each Boolean lattice of a BB algebra by the powerset of
its atoms (x maps to the atoms below x), yielding a concrete algebra.
"""

from __future__ import annotations

import re

from .algebra import DeonticAlgebra, Interpretation, build
from .lattice import PowersetAlgebra, SetFamilyAlgebra, two
from .models import DeonticModel, Valuation
from .syntax import Record


def _generated_field(universe, generators):
    """Subsets of `universe` generated by `generators` under union,
    intersection and relative complement."""
    universe = frozenset(universe)
    family = {frozenset(), universe} | {frozenset(g) for g in generators}
    while True:
        fresh = set(family)
        for a in family:
            fresh.add(universe - a)
            for b in family:
                fresh.add(a | b)
                fresh.add(a & b)
        if fresh == family:
            return family
        family = fresh


def to_algebra(M: DeonticModel, v: Valuation):
    """The concrete deontic algebra of a model, with the interpretation
    extending v.  Formula algebra is the two-element one; E is crisp."""
    family = _generated_field(M.elements, v.map.values())
    action = SetFamilyAlgebra(M.elements, family)
    form = two()
    P = [form.top if action.member_set(i) <= M.permitted else form.bot
         for i in range(action.size)]
    F = [form.top if action.member_set(i) <= M.forbidden else form.bot
         for i in range(action.size)]
    D = build(action, form, P, F)
    h = Interpretation(act={name: action.index_of_set(s) for name, s in v.map.items()})
    return D, h


def to_model(D: DeonticAlgebra, h: Interpretation):
    """The deontic model of a concrete algebra with two-element formula part.

    Requires an action algebra whose elements carry member sets (a field of
    sets or a powerset algebra); use stoneify on other BB algebras first.
    """
    if D.formula.size != 2:
        raise ValueError("formula algebra is not the two-element one; stoneify first")
    act = D.action
    if not hasattr(act, "member_set"):
        raise ValueError("action algebra is not concrete; stoneify first")
    members = [act.member_set(i) for i in range(act.size)]
    events = sorted(set().union(*members)) if members else []
    top_f = D.formula.top
    permitted = set().union(*(members[i] for i in range(act.size) if D.P[i] == top_f),
                            frozenset())
    forbidden = set().union(*(members[i] for i in range(act.size) if D.F[i] == top_f),
                            frozenset())
    M = DeonticModel(events, permitted, forbidden)
    v = Valuation({name: members[e] for name, e in h.act.items()})
    return M, v


_SAFE_NAME = re.compile(r"[A-Za-z0-9_&~!]+\Z")


def _atom_labels(lat):
    atoms = lat.atoms()
    if hasattr(lat, "member_set"):
        # a field-of-sets atom is often a singleton; reuse the point's name
        raw = ["&".join(sorted(lat.member_set(a))) for a in atoms]
    else:
        raw = [lat.element_name(a) for a in atoms]
    labels, seen = [], set()
    for i, s in enumerate(raw):
        if not _SAFE_NAME.match(s) or s in seen:
            s = f"x{i}"
            while s in seen:
                s += "_"
        labels.append(s)
        seen.add(s)
    return atoms, labels


def _stone_lattice(lat):
    """Powerset of the atoms plus the embedding x -> {atoms below x}."""
    atoms, labels = _atom_labels(lat)
    pw = PowersetAlgebra(labels)
    iso = [sum(1 << j for j, a in enumerate(atoms) if lat.leq(a, x)) for x in range(lat.size)]
    return pw, iso


def stoneify(D: DeonticAlgebra):
    """Concrete isomorphic copy of a BB algebra over the powersets of atoms.

    Returns (D', (action_map, formula_map)) with both maps bijections onto
    the powerset carriers.
    """
    if D.flavor != "BB":
        raise ValueError(f"stoneify needs flavor BB, got {D.flavor}")
    act2, aiso = _stone_lattice(D.action)
    form2, fiso = _stone_lattice(D.formula)
    P2, F2 = [0] * act2.size, [0] * act2.size
    for x in range(D.action.size):
        P2[aiso[x]] = fiso[D.P[x]]
        F2[aiso[x]] = fiso[D.F[x]]
    E2 = None
    if not D.crisp_equality:
        E2 = [[0] * act2.size for _ in range(act2.size)]
        for x in range(D.action.size):
            for y in range(D.action.size):
                E2[aiso[x]][aiso[y]] = fiso[D.E(x, y)]
    return build(act2, form2, P2, F2, E2), (aiso, fiso)


class RoundTripReport(Record, frozen=False):
    model_equal: bool
    algebra_equal: bool
    details: list = []   # copied per instance

    @property
    def ok(self):
        return self.model_equal and self.algebra_equal


def round_trip_report(M: DeonticModel, v: Valuation) -> RoundTripReport:
    """Compare M,v against to_model(to_algebra(M,v)) and the algebra against
    its own round trip; equality is reported, not enforced."""
    details = []
    D, h = to_algebra(M, v)
    M2, v2 = to_model(D, h)
    model_equal = True
    for what, a, b in (("elements", set(M.elements), set(M2.elements)),
                       ("permitted", M.permitted, M2.permitted),
                       ("forbidden", M.forbidden, M2.forbidden)):
        if a != b:
            model_equal = False
            details.append(f"model {what} changed: {sorted(a)} -> {sorted(b)}")
    if v.map != v2.map:
        model_equal = False
        details.append("valuation changed")
    D2, h2 = to_algebra(M2, v2)

    def carrier(alg):
        return {alg.action.member_set(i) for i in range(alg.action.size)}

    def pf_sets(alg):
        t = alg.formula.top
        return ({alg.action.member_set(i) for i in range(alg.action.size) if alg.P[i] == t},
                {alg.action.member_set(i) for i in range(alg.action.size) if alg.F[i] == t})

    algebra_equal = True
    if carrier(D) != carrier(D2):
        algebra_equal = False
        details.append("algebra carrier changed")
    if pf_sets(D) != pf_sets(D2):
        algebra_equal = False
        details.append("algebra P/F maps changed")
    return RoundTripReport(model_equal, algebra_equal, details)
