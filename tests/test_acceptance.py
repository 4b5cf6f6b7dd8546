"""Acceptance gate: one test per criterion, one pass/fail line each under -v.

Each test states its claim in the docstring and freezes independently
computed expected values; nothing here is tuned to make a test pass.
"""

import itertools as it
import random
from pathlib import Path

import numpy as np
import pytest

import dalkit as dk
import dalkit.syntax as S
from dalkit.algebra import _assignment_grid, evaluate_batch
from dalkit.decide import (EMPTY, FORBIDDEN, NEUTRAL, PERMITTED,
                           AtomAssignment, Countermodel, Unknown, Valid,
                           countermodel_heyting, decide_classical,
                           fence_scenario_search)
from dalkit.proof import axiom_table, check_proof
from dalkit.syntax import LogicVariant as V
from conftest import (instantiate, random_bb_algebra, random_flavored_algebra,
                      random_formula, random_model, random_pf)

DATA = Path(dk.__file__).parent / "data"
SEED = 20260814


def _meta_to_symbols(pat):
    """Turn schema metavariables into plain symbols so the batch evaluator
    can range them over whole carriers."""
    acts, forms = S.metavariables(pat)
    return instantiate(pat, {**{n: S.Basic(n) for n in acts}, **{n: S.Prop(n) for n in forms}})


def _holds_everywhere(D, term):
    sym = S.symbols(term)
    assign, total = _assignment_grid(D, sym.actions, sym.props, 1 << 22)
    vals = np.broadcast_to(np.asarray(evaluate_batch(D, assign, term)), (total,))
    return bool((vals == D.formula.top).all())


def test_ac01_axiom_schemas_top_in_200_random_bb_algebras():
    """Every classical schema, instantiated exhaustively over the carriers,
    evaluates to top in 200 random validated Boolean-Boolean algebras."""
    rng = random.Random(SEED)
    table = axiom_table(V.DAL, None)
    patterns = [s.pattern for s in table if s.pattern is not None]
    assert len(patterns) == len(table) - 1  # only the replacement schema is special
    a, b, g = S.AVar("α"), S.AVar("β"), S.AVar("γ")
    for ctx in (lambda x: S.Perm(S.Inter(x, g)),
                lambda x: S.Forb(S.Union(x, g)),
                lambda x: S.Eq(x, g)):
        patterns.append(S.Or(S.Not(S.And(S.Eq(a, b), ctx(a))), ctx(b)))
    for _ in range(200):
        D = random_bb_algebra(rng)
        assert D.action.size <= 16 and D.formula.size in (2, 4)
        for pat in patterns:
            term = _meta_to_symbols(pat)
            assert _holds_everywhere(D, term), S.print_term(term)


def test_ac02_pf_top_preimages_are_ideals_in_every_flavor():
    """P/F top-preimages form ideals intersecting in {0} for random algebras
    of all four flavors."""
    rng = random.Random(SEED)
    for flavor in ("BB", "BH", "HB", "HH"):
        for _ in range(25):
            D = random_flavored_algebra(rng, flavor)
            p_set, f_set = dk.preimage_ideals(D)  # raises on any failure
            assert D.action.bot in p_set and D.action.bot in f_set


def test_ac03_drink_drive_park_example_exact():
    """The drink/drive/park algebra: three prescriptions hold at top, the
    fourth fails."""
    af = dk.read_algebra((DATA / "drinking.daa").read_text())
    D = af.algebra
    h = dk.Interpretation(act={
        "drinking": dk.evaluate(D, dk.Interpretation(act=af.named_actions),
                                dk.parse_action("a")),
        "driving": dk.evaluate(D, dk.Interpretation(act=af.named_actions),
                               dk.parse_action("b")),
        "parking": dk.evaluate(D, dk.Interpretation(act=af.named_actions),
                               dk.parse_action("~b")),
    })
    top = D.formula.top
    assert dk.evaluate(D, h, dk.parse_formula("perm(parking)")) == top
    assert dk.evaluate(D, h, dk.parse_formula("forb(driving)")) == top
    assert dk.evaluate(D, h, dk.parse_formula("perm(drinking * parking)")) == top
    assert dk.evaluate(D, h, dk.parse_formula("perm(drinking)")) == D.formula.bot != top


def test_ac04_three_valued_examples_bit_exact():
    """License and closure scenarios over the three-element chain: every
    listed value matches, including one-half join one-half staying one-half."""
    lic = dk.read_algebra((DATA / "license.daa").read_text())
    D = lic.algebra
    c0, c1, c2 = 0, 1, 2
    h = dk.Interpretation(act={"driving": D.action.top}, prop={"haslicense": c1})
    v = lambda t: dk.evaluate(D, h, dk.parse_formula(t, V.DAL_PROP))
    assert v("!haslicense") == c0
    assert v("!haslicense -> forb(driving)") == c2 == D.formula.top
    assert v("!forb(driving)") == c2
    assert v("haslicense") == c1 != D.formula.top

    clo = dk.read_algebra((DATA / "closure.daa").read_text())
    C = clo.algebra
    assert not C.crisp_equality
    hc = dk.Interpretation(act={"a": C.action.index_of("c1")})
    w = lambda t: dk.evaluate(C, hc, dk.parse_formula(t))
    assert w("forb(a)") == c1
    assert w("!forb(a)") == c0
    assert w("perm(a)") == c1
    assert w("!forb(a) -> perm(a)") == c2 == C.formula.top
    # one-half or one-half is still one-half: the closure law fails mid-chain
    assert w("forb(a) | perm(a)") == c1 != C.formula.top


def test_ac05_decider_matches_oracle_and_axioms():
    """decide agrees with the exhaustive small-model oracle on 512 random
    formulas; every schema instance is Valid; two classical non-laws get
    countermodels."""
    rng = random.Random(SEED)
    for _ in range(512):
        phi = random_formula(rng, rng.randint(1, 4))
        verdict = decide_classical(phi, V.DAL)
        assert isinstance(verdict, Valid) == dk.taut_oracle(phi), S.print_term(phi)

    subst = {"α": dk.parse_action("a"), "β": dk.parse_action("~b"),
             "γ": dk.parse_action("a + b"),
             "φ": dk.parse_formula("perm(a)"), "ψ": dk.parse_formula("forb(b)"),
             "χ": dk.parse_formula("a == b")}
    basic = dict(subst, β=dk.parse_action("b"))
    for schema in axiom_table(V.DAL, None):
        if schema.pattern is None:
            continue
        inst = instantiate(schema.pattern, basic if schema.basic_vars else subst)
        assert isinstance(decide_classical(inst, V.DAL), Valid), schema.id
    e2 = dk.parse_formula("(a == b) & perm(a * a) -> perm(a * b)")
    assert isinstance(decide_classical(e2, V.DAL), Valid)

    for text in ("forb(a) <-> !perm(a)", "forb(a) | perm(a)"):
        assert isinstance(decide_classical(dk.parse_formula(text), V.DAL),
                          Countermodel), text


def test_ac06_normative_closure_filters_match_algebra_checks():
    """Closure under a one-letter alphabet separates the first closed variant
    from the base logic, and the decision filters agree with the algebraic
    class checks on every induced concrete algebra."""
    phi = dk.parse_formula("forb(a) | perm(a)")
    assert isinstance(decide_classical(phi, V.NDAL1, ("a",)), Valid)
    assert isinstance(decide_classical(phi, V.DAL), Countermodel)

    # the class with generators joining to 1 proves the all-complements
    # region empty, hence closed
    m = dk.parse_formula("perm(~a * ~b) | forb(~a * ~b)")
    assert isinstance(decide_classical(m, V.NDAL3, ("a", "b")), Valid)

    actions = ("a", "b")
    regions = [0b1010, 0b1100]  # atoms with a positive / b positive
    needed = {1: (1,), 2: (1, 2), 3: (1, 3), 4: (4,), 5: (1, 5)}

    def filter_admits(statuses, k):
        live = sum(1 << t for t, s in enumerate(statuses) if s != EMPTY)
        pmask = sum(1 << t for t, s in enumerate(statuses) if s == PERMITTED)
        fmask = sum(1 << t for t, s in enumerate(statuses) if s == FORBIDDEN)
        if k in (1, 2, 3, 5):
            for r in regions:
                r &= live
                if r & ~pmask and r & ~fmask:
                    return False
        if k == 2 and statuses[0] == NEUTRAL:
            return False
        if k in (3, 5) and statuses[0] != EMPTY:
            return False
        if k in (4, 5) and NEUTRAL in statuses:
            return False
        return True

    for statuses in it.product(range(4), repeat=4):
        M, v = AtomAssignment(actions, statuses).induced_model()
        D, h = dk.to_algebra(M, v)
        gens = [h.act["a"], h.act["b"]]
        for k in range(1, 6):
            algebraic = all(dk.check_ndal(D, gens, c) for c in needed[k])
            assert filter_admits(statuses, k) == algebraic, (statuses, k)


def test_ac07_model_algebra_correspondence_both_ways():
    """Satisfaction in 100 random models matches top-evaluation in their
    algebras over 50 formulas each; 50 reverse checks from concrete algebras."""
    rng = random.Random(SEED)
    for _ in range(100):
        M, v = random_model(rng)
        D, h = dk.to_algebra(M, v)
        for _ in range(50):
            phi = random_formula(rng, rng.randint(1, 3))
            assert dk.sat(M, v, phi) == (dk.evaluate(D, h, phi) == D.formula.top)

    checked = 0
    while checked < 50:
        action = dk.powerset_algebra([f"t{i}" for i in range(rng.randint(1, 3))])
        P, F = random_pf(rng, action, dk.two())
        D = dk.build(action, dk.two(), P, F)
        h = dk.Interpretation(act={"a": rng.randrange(action.size),
                                   "b": rng.randrange(action.size)})
        M, v = dk.to_model(D, h)
        for _ in range(5):
            phi = random_formula(rng, rng.randint(1, 3))
            assert (dk.evaluate(D, h, phi) == D.formula.top) == dk.sat(M, v, phi)
            checked += 1


def test_ac08_proof_corpus_and_mutants():
    """At least ten shipped proofs check out; at least five mutants fail at
    exactly the annotated line."""
    import re
    good = sorted((DATA / "proofs").glob("*.prf"))
    assert len(good) >= 10
    for path in good:
        res = check_proof(dk.read_proof(path.read_text()))
        assert res.ok, (path.name, res.line, res.reason)

    expect = re.compile(r"#\s*expect:\s*(?:line=(\d+)|(error))")
    line_mutants = 0
    for path in sorted((DATA / "proofs" / "bad").glob("*.prf")):
        text = path.read_text()
        m = expect.search(text)
        if m.group(2):
            with pytest.raises(dk.FormatError):
                dk.read_proof(text)
            continue
        res = check_proof(dk.read_proof(text))
        assert not res.ok and res.line == int(m.group(1)), path.name
        line_mutants += 1
    assert line_mutants >= 5


def test_ac09_countermodels_reverify_and_theorems_stay_unrefuted():
    """Everything the deciders call a countermodel falsifies its formula when
    re-checked; the shipped theorem lists yield Unknown from bounded search."""
    for text in ("forb(a) | perm(a)", "forb(a) <-> !perm(a)", "perm(a)",
                 "perm(a*b) -> perm(a)"):
        phi = dk.parse_formula(text)
        res = decide_classical(phi, V.DAL)
        assert isinstance(res, Countermodel)
        assert dk.sat(res.model, res.valuation, phi,
                      prop_val=res.prop_val or None) is False

    for text, variant, points in (("perm(a) | !perm(a)", V.DAL_IPL, 2),
                                  ("!!perm(a) -> perm(a)", V.DAL_INT, 2),
                                  ("a + ~a == 1", V.DAL_IAL, 3)):
        phi = dk.parse_formula(text, variant)
        res = countermodel_heyting(phi, variant, max_points=points)
        assert isinstance(res, Countermodel), text
        assert dk.evaluate(res.algebra, res.interp, phi) != res.algebra.formula.top

    for fname, variant in (("theorems_ipl.txt", V.DAL_IPL),
                           ("theorems_int.txt", V.DAL_INT)):
        for line in (DATA / fname).read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            phi = dk.parse_formula(line, variant)
            assert isinstance(countermodel_heyting(phi, variant), Unknown), line


def test_ac10_fence_scenario_found_and_reverifies():
    """A joint witness for the four fence prescriptions exists within a
    200-candidate budget, and every prescription evaluates to top in it."""
    D, h = fence_scenario_search(max_candidates=200)
    for text in ("obl(~isfenced)",
                 "isfenced == 1 -> obl(ispaintedwhite)",
                 "isfenced == 1",
                 "ispaintedwhite + isfenced == isfenced"):
        phi = dk.parse_formula(text, V.DAL_PROP)
        assert dk.evaluate(D, h, phi) == D.formula.top, text
