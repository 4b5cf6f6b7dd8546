import itertools as it
import random
from pathlib import Path

import numpy as np
import pytest

import dalkit as dk
import dalkit.algebra as AL
import dalkit.decide as DC
import dalkit.syntax as S
from dalkit.decide import (Countermodel, Unknown, Valid, countermodel_heyting,
                           decide_classical, fence_scenario_search)
from dalkit.proof import axiom_table
from dalkit.syntax import LogicVariant as V
from conftest import instantiate, random_formula


def verdict(text, variant=V.DAL, alphabet=None):
    return decide_classical(dk.parse_formula(text, variant), variant, alphabet)


def test_frozen_classical_verdicts():
    valid = ["perm(a+b) <-> perm(a) & perm(b)",
             "(perm(a) & forb(a)) <-> (a == 0)",
             "perm(a) -> perm(a * b)",
             "forb(a) -> forb(a * b)",
             "a + ~a == 1",
             "obl(a) <-> forb(~a)",
             "perm(0)",
             "forb(0)"]
    refuted = ["forb(a) <-> !perm(a)",
               "forb(a) | perm(a)",
               "perm(a)",
               "perm(a * b) -> perm(a)",
               "a == b",
               "obl(a) -> perm(a)"]
    for text in valid:
        assert isinstance(verdict(text), Valid), text
    for text in refuted:
        assert isinstance(verdict(text), Countermodel), text


def test_classical_countermodels_reverify():
    for text in ["forb(a) | perm(a)", "forb(a) <-> !perm(a)",
                 "perm(a*b) -> perm(b*~a)"]:
        phi = dk.parse_formula(text)
        res = decide_classical(phi, V.DAL)
        assert isinstance(res, Countermodel)
        assert dk.sat(res.model, res.valuation, phi,
                      prop_val=res.prop_val or None) is False


def test_decide_oracle_agreement(rng):
    """decide_classical and the brute-force model oracle must never disagree."""
    for _ in range(80):
        phi = random_formula(rng, rng.randint(1, 3))
        res = decide_classical(phi, V.DAL)
        assert isinstance(res, Valid) == dk.taut_oracle(phi), dk.print_formula(phi)


def test_props_handled():
    assert isinstance(verdict("p | !p", V.DAL_PROP), Valid)
    res = verdict("p -> forb(a)", V.DAL_PROP)
    assert isinstance(res, Countermodel) and res.prop_val == {"p": True}
    with pytest.raises(ValueError):
        verdict("p | !p", V.DAL)


def test_ndal1_closure_for_basics():
    # closed under NDAL1: every basic action all-permitted or all-forbidden
    assert isinstance(verdict("forb(a) | perm(a)", V.NDAL1), Valid)
    assert isinstance(verdict("forb(a) | perm(a)", V.DAL), Countermodel)
    # but compound actions may still straddle the P/F split
    assert isinstance(verdict("forb(a+b) | perm(a+b)", V.NDAL1), Countermodel)


def test_ndal2_separates_from_ndal1():
    # the all-complements region must not be neutral under NDAL2
    phi = "perm(~a * ~b) | forb(~a * ~b)"
    assert isinstance(verdict(phi, V.NDAL2, ("a", "b")), Valid)
    assert isinstance(verdict(phi, V.NDAL1, ("a", "b")), Countermodel)


def test_ndal3_separates_from_ndal2():
    phi = "a + b == 1"
    assert isinstance(verdict(phi, V.NDAL3, ("a", "b")), Valid)
    assert isinstance(verdict(phi, V.NDAL2, ("a", "b")), Countermodel)


def test_ndal4_separates_from_dal_and_ndal3_includes_it():
    phi = "perm(a * ~b) | forb(a * ~b)"
    assert isinstance(verdict(phi, V.NDAL4, ("a", "b")), Valid)
    assert isinstance(verdict(phi, V.DAL), Countermodel)
    # NDAL3 admissibility forces every minterm closed as well
    assert isinstance(verdict(phi, V.NDAL3, ("a", "b")), Valid)


def test_ndal4_not_ndal1():
    # NDAL4 constrains atoms, not whole basic-action regions
    phi = "forb(a) | perm(a)"
    assert isinstance(verdict(phi, V.NDAL4, ("a", "b")), Countermodel)
    assert isinstance(verdict(phi, V.NDAL1, ("a", "b")), Valid)


def test_ndal5_is_join_of_3_and_4():
    for text in ["a + b == 1", "perm(~a * b) | forb(~a * b)",
                 "forb(a) | perm(a)"]:
        assert isinstance(verdict(text, V.NDAL5, ("a", "b")), Valid), text


def test_alphabet_validation():
    with pytest.raises(ValueError):
        verdict("perm(a)", V.NDAL2)           # alphabet required
    with pytest.raises(ValueError):
        verdict("perm(c)", V.NDAL2, ("a", "b"))  # symbol outside alphabet


def test_budget_guard():
    phi = dk.parse_formula("perm(a * b * c)")
    with pytest.raises(dk.BudgetExceeded):
        decide_classical(phi, V.DAL, max_assignments=1000)


def test_axioms_decide_valid_per_variant():
    """Sampled instances of every classical variant's schemas come back Valid."""
    subst = {"α": dk.parse_action("a"), "β": dk.parse_action("~b"),
             "γ": dk.parse_action("a + b"),
             "φ": dk.parse_formula("perm(a)"), "ψ": dk.parse_formula("forb(b)"),
             "χ": dk.parse_formula("a == b")}
    basic_subst = dict(subst, **{"α": dk.parse_action("a"), "β": dk.parse_action("b")})
    for variant in (V.DAL, V.NDAL1, V.NDAL2, V.NDAL5):
        alpha = None if variant is V.DAL else ("a", "b")
        for schema in axiom_table(variant, alpha):
            if schema.pattern is None:
                continue  # E2 is matched structurally, sampled elsewhere
            chosen = basic_subst if schema.basic_vars else subst
            inst = instantiate(schema.pattern, chosen)
            res = decide_classical(inst, variant, alpha)
            assert isinstance(res, Valid), (variant, schema.id)


def test_heyting_search_refutes_classical_laws():
    for variant in (V.DAL_IPL, V.DAL_INT):
        phi = dk.parse_formula("perm(a) | !perm(a)", variant)
        res = countermodel_heyting(phi, variant)
        assert isinstance(res, Countermodel)
        D, h = res.algebra, res.interp
        assert dk.evaluate(D, h, phi) != D.formula.top


def test_heyting_search_unknown_on_theorems():
    phi = dk.parse_formula("perm(a+b) <-> perm(a) & perm(b)", V.DAL_IPL)
    res = countermodel_heyting(phi, V.DAL_IPL)
    assert isinstance(res, Unknown)
    assert "no countermodel among 132 catalog algebras" in res.reason


def test_heyting_search_budget_reports_unknown():
    phi = dk.parse_formula("perm(a+b) <-> perm(a) & perm(b)", V.DAL_IPL)
    res = countermodel_heyting(phi, V.DAL_IPL, max_candidates=7)
    assert isinstance(res, Unknown) and "budget" in res.reason


def test_ial_refutes_action_lem():
    phi = dk.parse_formula("a + ~a == 1", V.DAL_IAL)
    res = countermodel_heyting(phi, V.DAL_IAL, max_points=3)
    assert isinstance(res, Countermodel)
    assert res.algebra.action.size >= 3  # needs a non-Boolean action algebra


def test_fence_scenario():
    D, h = fence_scenario_search(max_candidates=200)
    for text in ("obl(~isfenced)", "isfenced == 1 -> obl(ispaintedwhite)",
                 "isfenced == 1", "ispaintedwhite + isfenced == isfenced"):
        phi = dk.parse_formula(text, V.DAL_PROP)
        assert dk.evaluate(D, h, phi) == D.formula.top, text


# ---------------------------------------------------------------------------
# The batched Heyting engine against the per-candidate loop it replaced
# ---------------------------------------------------------------------------

DATA = Path(dk.__file__).parent / "data"
IPL_THEOREM = "perm(a+b) <-> perm(a) & perm(b)"   # 132 candidates at max_points=2


def _theorems(fname):
    return [line.strip() for line in (DATA / fname).read_text().splitlines()
            if line.strip() and not line.startswith("#")]


def reference_extend(action, formula, ji, values):
    """x goes to the meet of the values at the join-irreducibles below x."""
    out = []
    for x in range(action.size):
        v = formula.top
        for j, val in zip(ji, values):
            if action.leq(j, x):
                v = formula.meet(v, val)
        out.append(v)
    return np.array(out)


def reference_pf_maps(action, formula):
    """Nested products over the join-irreducible values, filtered by
    condition 3 one pair at a time."""
    ji = action.join_irreducibles()
    maps = [reference_extend(action, formula, ji, vals)
            for vals in it.product(range(formula.size), repeat=len(ji))]
    rest = np.arange(action.size) != action.bot
    for P, F in it.product(maps, maps):
        if (formula.vmeet(P, F)[rest] == formula.bot).all():
            yield P, F


def reference_countermodel(phi, variant, max_candidates=5000, max_interps=65536,
                           max_points=2):
    """One DeonticAlgebra and one evaluate_batch call per P/F candidate."""
    acts, props = sorted(S.symbols(phi).actions), sorted(S.symbols(phi).props)
    tried = 0
    for action, formula in DC._catalog_pairs(variant, max_points):
        for P, F in reference_pf_maps(action, formula):
            tried += 1
            if tried > max_candidates:
                return Unknown(f"candidate budget of {max_candidates} algebras exhausted")
            D = AL.DeonticAlgebra(action, formula, P, F)
            try:
                assign, total = AL._assignment_grid(D, acts, props, max_interps)
            except dk.BudgetExceeded as e:
                return Unknown(str(e))
            vals = np.broadcast_to(np.asarray(dk.evaluate_batch(D, assign, phi)), (total,))
            bad = np.nonzero(vals != formula.top)[0]
            if len(bad):
                r = int(bad[0])
                return Countermodel(algebra=D, interp=dk.Interpretation(
                    act={a: int(assign[a][r]) for a in acts},
                    prop={p: int(assign[p][r]) for p in props}))
    return Unknown(f"no countermodel among {tried} catalog algebras")


def _fingerprint(res):
    if isinstance(res, Unknown):
        return "unknown", res.reason
    D, h = res.algebra, res.interp
    tables = [(L.vjoin(*np.indices((L.size, L.size))).tolist(),
               L.vmeet(*np.indices((L.size, L.size))).tolist())
              for L in (D.action, D.formula)]
    return "countermodel", tables, D.P.tolist(), D.F.tolist(), h.act, h.prop


def _agree(monkeypatch, phi, variant, small_chunks=True, **kw):
    """The engine gives the reference's verdict, reason and countermodel at
    its own chunk sizes and, unless told not to, at one candidate per chunk
    with the F maps of every pair split into blocks."""
    want = _fingerprint(reference_countermodel(phi, variant, **kw))
    got = countermodel_heyting(phi, variant, **kw)
    assert _fingerprint(got) == want, (dk.print_formula(phi), variant, kw)
    if small_chunks:
        with monkeypatch.context() as m:
            m.setattr(DC, "_CAND_CHUNK", 1)
            m.setattr(AL, "_COND_CHUNK", 128)
            assert _fingerprint(countermodel_heyting(phi, variant, **kw)) == want, \
                (dk.print_formula(phi), variant, kw, "chunk 1")
    return got


@pytest.mark.parametrize("cond_chunk", [None, 128])
def test_enumerate_pf_maps_matches_nested_products(monkeypatch, cond_chunk):
    if cond_chunk is not None:
        monkeypatch.setattr(AL, "_COND_CHUNK", cond_chunk)
    for action in dk.heyting_catalog(3):
        for formula in (dk.two(), dk.chain(3), dk.heyting_catalog(2)[2]):
            got = [(P.tolist(), F.tolist()) for P, F in dk.enumerate_pf_maps(action, formula)]
            want = [(P.tolist(), F.tolist()) for P, F in reference_pf_maps(action, formula)]
            assert got == want


def test_heyting_engine_matches_reference_on_theorems(monkeypatch):
    for fname, variant in (("theorems_ipl.txt", V.DAL_IPL), ("theorems_int.txt", V.DAL_INT)):
        for text in _theorems(fname):
            phi = dk.parse_formula(text, variant)
            _agree(monkeypatch, phi, variant, max_points=2)
            if variant is V.DAL_INT:
                # one cell per chunk would evaluate 20000 candidates singly
                _agree(monkeypatch, phi, variant, small_chunks=False, max_points=3,
                       max_candidates=20000)
            else:
                _agree(monkeypatch, phi, variant, max_points=3)


def test_heyting_engine_matches_reference_on_random_formulas(monkeypatch):
    rng = random.Random(20261017)
    fixed = ["perm(1)", "forb(0) -> perm(1)", "perm(1) & p -> forb(0) | perm(a)",
             "!perm(1) | forb(a * 0)", "p | !p", "a == 1"]
    seen = set()
    for variant in (V.DAL_IPL, V.DAL_IAL, V.DAL_INT):
        phis = [dk.parse_formula(t, variant) for t in fixed]
        phis += [random_formula(rng, rng.randint(1, 3), variant,
                                props=("p",) if k % 2 else ()) for k in range(24)]
        for k, phi in enumerate(phis):
            seen.add(type(_agree(monkeypatch, phi, variant, max_points=2 + k % 2)))
    assert seen == {Countermodel, Unknown}


def test_heyting_engine_matches_reference_on_budgets(monkeypatch):
    phi = dk.parse_formula(IPL_THEOREM, V.DAL_IPL)
    for budget in (0, 7, 40, 131, 132, 133):
        res = _agree(monkeypatch, phi, V.DAL_IPL, max_candidates=budget)
        assert ("budget" in res.reason) == (budget < 132)
    assert "among 132" in _agree(monkeypatch, phi, V.DAL_IPL, max_interps=16).reason
    assert "exceed" in _agree(monkeypatch, phi, V.DAL_IPL, max_interps=15).reason
    # first refuted by the third candidate of the first pair, and by the
    # first candidate of the second pair
    for text, first in (("perm(a) -> forb(a)", 3), ("p | !p", 4)):
        phi = dk.parse_formula(text, V.DAL_IPL)
        for budget in (first - 2, first - 1, first):
            res = _agree(monkeypatch, phi, V.DAL_IPL, max_candidates=budget)
            assert isinstance(res, Countermodel) == (budget == first), (text, budget)


def test_heyting_search_rejects_negative_budgets():
    phi = dk.parse_formula(IPL_THEOREM, V.DAL_IPL)
    for kw in ({"max_candidates": -1}, {"max_interps": -1}):
        with pytest.raises(ValueError):
            countermodel_heyting(phi, V.DAL_IPL, **kw)


def test_heyting_frontier():
    """Sizes the per-candidate loop needed 77 s and 3.9 s for."""
    phi = dk.parse_formula(_theorems("theorems_int.txt")[0], V.DAL_INT)
    res = countermodel_heyting(phi, V.DAL_INT, max_candidates=10**6, max_points=3)
    assert res == Unknown("no countermodel among 449285 catalog algebras")
    phi = dk.parse_formula(_theorems("theorems_ipl.txt")[0], V.DAL_IPL)
    res = countermodel_heyting(phi, V.DAL_IPL, max_candidates=10**6, max_points=4)
    assert res == Unknown("no countermodel among 15928 catalog algebras")
    D, h = fence_scenario_search()
    assert (D.action.size, D.formula.size) == (2, 2)
    assert (D.P.tolist(), D.F.tolist()) == ([1, 0], [1, 1])
    assert h == dk.Interpretation(act={"isfenced": 1, "ispaintedwhite": 0})
    assert fence_scenario_search(2)[0].P.tolist() == [1, 0]
    with pytest.raises(dk.BudgetExceeded, match="no fence witness within 1 candidates"):
        fence_scenario_search(1)
