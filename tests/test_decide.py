import contextlib
import itertools as it
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import dalkit as dk
import dalkit.algebra as AL
import dalkit.decide as DC
import dalkit.models as MD
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
    props = 0
    while props < 40:
        phi = random_formula(rng, rng.randint(1, 3), V.DAL_PROP, props=("p",))
        props += bool(S.symbols(phi).props)
        res = decide_classical(phi, V.DAL_PROP)
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
    for variant in (V.NDAL1, V.NDAL2, V.NDAL3, V.NDAL4, V.NDAL5):
        with pytest.raises(ValueError, match=r"actions \['c'\] outside the declared alphabet"):
            verdict("perm(a * c)", variant, ("a", "b"))
        # with a repeated letter, NDAL3 refuted its own axiom a + a == 1
        with pytest.raises(ValueError, match=r"^letter 'a' repeats in the declared alphabet$"):
            verdict("a == 1", variant, ("a", "a"))


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
    rest = [x for x in range(action.size) if x != action.bot]
    for P, F in it.product(maps, maps):
        if all(formula.meet(int(P[x]), int(F[x])) == formula.bot for x in rest):
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
    tables = [[[op(a, b) for b in range(L.size)] for a in range(L.size)]
              for L in (D.action, D.formula) for op in (L.join, L.meet)]
    return "countermodel", tables, list(D.P), list(D.F), h.act, h.prop


def _cold():
    """Empty the pair-stack cache and the catalog layouts laid out from it."""
    DC._pair_stack.cache_clear()
    DC._layout.cache_clear()


@contextlib.contextmanager
def _chunks(monkeypatch, cand=None, cond=None):
    """Patched chunk sizes, with the pair-stack cache and the layouts emptied
    on the way in and out: stacks cached at the real sizes would skip the
    split-block path, a layout would run pairs too large at the patched
    sizes as one block and keep grids cut at the real cell bound, and the
    pairs too large at the patched sizes are remembered as streamed."""
    _cold()
    try:
        with monkeypatch.context() as m:
            if cand is not None:
                m.setattr(DC, "_CAND_CHUNK", cand)
            if cond is not None:
                m.setattr(AL, "_COND_CHUNK", cond)
            yield
    finally:
        _cold()


def _agree(monkeypatch, phi, variant, small_chunks=True, **kw):
    """The engine gives the reference's verdict, reason and countermodel at
    its own chunk sizes, on the pair-stack cache as it finds it and again on
    the cache that search warmed (where the pairs it reached are laid out
    together), and, unless told not to, at one candidate per chunk with the
    F maps of every pair split into blocks, cold and then warm (a layout of
    the pairs before the first split one, then streamed and kept pairs)."""
    want = _fingerprint(reference_countermodel(phi, variant, **kw))
    for _ in range(2):
        got = countermodel_heyting(phi, variant, **kw)
        assert _fingerprint(got) == want, (dk.print_formula(phi), variant, kw)
    if small_chunks:
        with _chunks(monkeypatch, cand=1, cond=128):
            for cache in ("cold", "warm"):
                assert _fingerprint(countermodel_heyting(phi, variant, **kw)) == want, \
                    (dk.print_formula(phi), variant, kw, "chunk 1", cache)
    return got


@pytest.mark.parametrize("cond_chunk", [None, 128])
def test_enumerate_pf_maps_matches_nested_products(monkeypatch, cond_chunk):
    with _chunks(monkeypatch, cond=cond_chunk):
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


# Formulas by the maps they read, (perm, forb): the engine gives each read
# set its own rows.  The last two of each list have propositions.
READ_SETS = {
    (True, False): ["perm(a) -> perm(a * b)", "perm(a) | !perm(a)", "!!perm(a + b) -> perm(b)",
                    "p -> perm(a) | p", "(perm(a) -> p) | (p -> perm(a))"],
    (False, True): ["forb(a) -> forb(a * b)", "forb(a) | !forb(a)", "!!obl(a) -> obl(a * b)",
                    "p & forb(a) -> forb(a * b)", "forb(a) | !p"],
    (False, False): ["a * ~a == 0", "a + ~a == 1", "a == b", "(a == b) | !(a == b)",
                     "p | !p", "(a == 0) -> p -> p"],
    (True, True): ["perm(a) & forb(a) -> a == 0", "perm(a) -> !forb(a)", "forb(b) -> perm(a) -> forb(b)",
                   "p -> perm(a) | forb(a)", "perm(a) & p -> !forb(a) | p"],
}


# first refuted by candidates 401, 339 and 401 of DAL_IPL at 3 points
LATE_HITS = ["(perm(a) -> perm(b)) | (perm(b) -> perm(a))", "(forb(a) -> forb(b)) | (forb(b) -> forb(a))",
             "(perm(a) -> perm(b)) | (perm(b) -> perm(a)) | forb(a) & !forb(a)"]


def _reads(phi):
    classes = {row[0] for row in S.compile_term(phi)}
    return S.Perm in classes, S.Forb in classes


@pytest.mark.parametrize("reads", list(READ_SETS), ids=["P", "F", "neither", "both"])
def test_heyting_engine_matches_reference_by_read_set(monkeypatch, reads):
    """Fixed and seeded random formulas of one read set, with and without
    propositions, at 2 points whole and at 3 points under a budget that
    stops inside a pair."""
    rng = random.Random(f"reads:{reads}")
    seen = set()
    for variant in (V.DAL_IPL, V.DAL_IAL, V.DAL_INT):
        phis = [dk.parse_formula(t, variant) for t in READ_SETS[reads]]
        for props in ((), ("p",)):
            while _reads(phi := random_formula(rng, rng.randint(1, 2), variant, props=props)) != reads:
                pass
            phis.append(phi)
        for phi in phis:
            assert _reads(phi) == reads, dk.print_formula(phi)
            for kw in ({"max_points": 2}, {"max_points": 3, "max_candidates": 700}):
                seen.add(type(want := _agree(monkeypatch, phi, variant, **kw)))
                with _chunks(monkeypatch, cand=64):   # pairs split across chunks that hold several
                    for _ in range(2):
                        assert _fingerprint(countermodel_heyting(phi, variant, **kw)) == \
                            _fingerprint(want), (dk.print_formula(phi), variant, kw, "chunk 64")
    assert seen == {Countermodel, Unknown}


def test_rows_are_the_distinct_readings_in_first_candidate_order(monkeypatch):
    """The engine reports the first candidate reading the first failing row,
    so a block's rows must be the distinct maps its first m candidates read,
    in the order they are first read, each with the candidate that first
    reads it; checked on every block, also split."""
    for cond in (None, 128):
        with _chunks(monkeypatch, cond=cond):
            for variant, points in ((V.DAL_IPL, 3), (V.DAL_IAL, 3), (V.DAL_INT, 2)):
                for A, Fm in DC._catalog_pairs(variant, points):
                    for Ps, Fs, pi, fi in AL._pf_stacks(A, Fm):
                        for m in {len(pi), len(pi) // 3 + 1, 1}:
                            for side, keys in ((0, pi[:m]), (1, fi[:m])):
                                rows = DC._rows(pi, fi, m, len(Fs), side == 0, side == 1)
                                _, first = np.unique(keys, return_index=True)
                                assert list(rows[side]) == keys[np.sort(first)].tolist()
                                assert rows[2].tolist() == np.sort(first).tolist()


def test_heyting_search_runs_the_pending_chunk_before_an_interpretation_budget(monkeypatch):
    """Refuted in the second pair, while a later pair has more
    interpretations than the budget: on a warm cache both are in one chunk."""
    phi = dk.parse_formula("perm(a) | !perm(a)", V.DAL_IPL)
    countermodel_heyting(dk.parse_formula(IPL_THEOREM, V.DAL_IPL), V.DAL_IPL, max_points=3)   # warm
    assert isinstance(_agree(monkeypatch, phi, V.DAL_IPL, max_points=3, max_interps=3), Countermodel)
    theorem = dk.parse_formula("perm(a) -> perm(a * a)", V.DAL_IPL)
    assert _agree(monkeypatch, theorem, V.DAL_IPL, max_points=3, max_interps=3) == \
        Unknown("4 interpretations exceed the budget of 3")


def test_heyting_search_counts_the_candidates_up_to_the_hit():
    """The count _search returns with a countermodel is the smallest
    candidate budget that still finds it."""
    for text, variant in (("perm(a) | !perm(a)", V.DAL_IPL), ("forb(a) | !forb(a)", V.DAL_INT),
                          ("a + ~a == 1", V.DAL_IAL), ("p -> perm(a) | forb(a)", V.DAL_INT),
                          (LATE_HITS[0], V.DAL_IPL), ("perm(a * b) -> perm(a) | perm(b)", V.DAL_INT)):
        phi = dk.parse_formula(text, variant)
        _, _, tried = DC._search(DC._catalog_pairs(variant, 3), S.compile_term(phi), False, 10**6, 1 << 16)
        assert isinstance(countermodel_heyting(phi, variant, max_points=3, max_candidates=tried),
                          Countermodel)
        assert countermodel_heyting(phi, variant, max_points=3, max_candidates=tried - 1) == \
            Unknown(f"candidate budget of {tried - 1} algebras exhausted")


def test_heyting_chunks_stay_within_the_cell_bound(monkeypatch):
    """A chunk holds at most _CAND_CHUNK rows x interpretations cells, or
    a single row."""
    shapes = []
    real = DC._run_chunk

    def spy(lay, rows, r0, r1, assign, table, props, holds):
        nacts = len(assign) - len(props)
        width = max(lay.asort.size[k] ** nacts * lay.fsort.size[k] ** len(props) for k in rows.at[r0:r1])
        shapes.append((r1 - r0, width))
        return real(lay, rows, r0, r1, assign, table, props, holds)

    monkeypatch.setattr(DC, "_run_chunk", spy)
    with _chunks(monkeypatch, cand=64):
        for text in (IPL_THEOREM, "p -> perm(a) | forb(b)", "p | !p"):
            phi = dk.parse_formula(text, V.DAL_IPL)
            for _ in range(2):
                countermodel_heyting(phi, V.DAL_IPL, max_points=3)
    assert max(rows for rows, _ in shapes) > 1
    assert all(rows * width <= 64 or rows == 1 for rows, width in shapes)


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
    assert (list(D.P), list(D.F)) == ([1, 0], [1, 1])
    assert h == dk.Interpretation(act={"isfenced": 1, "ispaintedwhite": 0})
    assert list(fence_scenario_search(2)[0].P) == [1, 0]
    with pytest.raises(dk.BudgetExceeded, match="no fence witness within 1 candidates"):
        fence_scenario_search(1)


# ---------------------------------------------------------------------------
# The per-process cache of one-block P/F stacks
# ---------------------------------------------------------------------------

INT_THEOREM = _theorems("theorems_int.txt")[0]
CACHE_CALLS = ((IPL_THEOREM, V.DAL_IPL, 2), ("perm(a) -> forb(a)", V.DAL_IPL, 3),
               ("a + ~a == 1", V.DAL_IAL, 3), ("perm(a) | !perm(a)", V.DAL_INT, 2),
               (IPL_THEOREM, V.DAL_IPL, 3), (INT_THEOREM, V.DAL_INT, 2),
               ("p | !p", V.DAL_IAL, 2), (INT_THEOREM, V.DAL_INT, 3))


def _fence_fingerprint():
    D, h = fence_scenario_search()
    return list(D.P), list(D.F), h


def test_pair_stack_cache_matches_reference_and_cold_calls():
    """Repeated and interleaved searches on a warm cache give the reference's
    and a cold cache's results."""
    calls = [(dk.parse_formula(t, v), v, {"max_points": mp, "max_candidates": 20000})
             for t, v, mp in CACHE_CALLS]
    want = [_fingerprint(reference_countermodel(phi, v, **kw)) for phi, v, kw in calls]
    cold = []
    for phi, v, kw in calls:
        _cold()
        cold.append(_fingerprint(countermodel_heyting(phi, v, **kw)))
    assert cold == want
    _cold()
    fence = _fence_fingerprint()
    assert {w[0] for w in want} == {"unknown", "countermodel"}
    cases = list(zip(calls, want))
    for order in (cases, cases[::-1], cases):
        for (phi, v, kw), w in order:
            assert _fingerprint(countermodel_heyting(phi, v, **kw)) == w, (dk.print_formula(phi), v, kw)
            assert _fence_fingerprint() == fence
    assert DC._pair_stack.cache_info().hits > 0


def test_pair_stack_cache_holds_the_streamed_maps():
    """Every kept pair gives the maps _pf_stacks streams, also where the map
    tables outgrow one byte of index (up to 512 maps at INT, 3 points)."""
    sizes = set()
    for A, Fm in DC._catalog_pairs(V.DAL_INT, 3):
        (Ps, Fs, pi, fi), = DC._pair_stack(A, Fm)
        (Ps0, Fs0, pi0, fi0), = AL._pf_stacks(A, Fm)
        assert np.array_equal(Ps[pi], Ps0[pi0]) and np.array_equal(Fs[fi], Fs0[fi0])
        sizes.add(len(Ps))
    assert max(sizes) == 512


def test_pair_stack_cache_after_stopped_searches():
    """A search stopped by its budget inside a pair, or by a countermodel,
    builds only the pairs it reached; later searches still give the
    reference's results."""
    phi = dk.parse_formula(IPL_THEOREM, V.DAL_IPL)
    pairs = DC._catalog_pairs(V.DAL_IPL, 3)
    ends = np.cumsum([sum(len(pi) for *_, pi, _ in AL._pf_stacks(A, Fm)) for A, Fm in pairs])
    assert ends[-1] == 1406
    budget = 700
    inside = int(np.searchsorted(ends, budget))   # the pair that candidate 700 is in
    assert ends[inside - 1] < budget - 1 and budget < ends[inside]
    _cold()
    for kw in ({"max_candidates": budget}, {}):
        want = _fingerprint(reference_countermodel(phi, V.DAL_IPL, max_points=3, **kw))
        got = _fingerprint(countermodel_heyting(phi, V.DAL_IPL, max_points=3, **kw))
        assert got == want, kw
        if kw:
            assert DC._pair_stack.cache_info().currsize == inside + 1
    assert DC._pair_stack.cache_info().currsize == len(pairs)
    _cold()
    refutable = dk.parse_formula("perm(a) -> forb(a)", V.DAL_IPL)
    assert isinstance(countermodel_heyting(refutable, V.DAL_IPL, max_points=3), Countermodel)
    assert DC._pair_stack.cache_info().currsize == 1
    assert countermodel_heyting(phi, V.DAL_IPL, max_points=3) == \
        Unknown("no countermodel among 1406 catalog algebras")


def test_pair_stack_cache_never_stores_multi_block_pairs(monkeypatch):
    """With _COND_CHUNK small, a pair needing several blocks is rebuilt by
    every search, a pair fitting one block only by the first."""
    phi = dk.parse_formula(IPL_THEOREM, V.DAL_IPL)
    built = Counter()
    real = AL._pf_stacks

    def counting(A, Fm):
        built[A, Fm] += 1
        return real(A, Fm)

    with _chunks(monkeypatch, cond=128):
        monkeypatch.setattr(DC, "_pf_stacks", counting)
        pairs = DC._catalog_pairs(V.DAL_IPL, 2)
        multi = {p for p in pairs if len(list(real(*p))) > 1}
        assert 0 < len(multi) < len(pairs)
        for _ in range(3):
            assert countermodel_heyting(phi, V.DAL_IPL) == \
                Unknown("no countermodel among 132 catalog algebras")
        assert built == {p: 3 if p in multi else 1 for p in pairs}
        assert all(DC._pair_stack(*p) is None for p in multi)


# ---------------------------------------------------------------------------
# The laid-out prefix of a catalog
# ---------------------------------------------------------------------------

def _warm(phi, variant, **kw):
    """A cold search, then one that lays out the stacks the first kept."""
    _cold()
    for _ in range(2):
        countermodel_heyting(phi, variant, **kw)
    return DC._layout(DC._catalog_pairs(variant, kw.get("max_points", 2)))


def test_layout_budgets_stop_inside_and_past_the_prefix(monkeypatch):
    """Candidate budgets that stop inside a laid-out prefix, or past it in
    pairs the search still builds, give the reference's and a cold search's
    results, in every read set, and the cold search's count of candidates
    tried, also where the budget runs out."""
    theorem = dk.parse_formula(IPL_THEOREM, V.DAL_IPL)
    phis = [theorem] + [dk.parse_formula(t, V.DAL_IPL) for texts in READ_SETS.values() for t in texts[:2]]
    phis += [dk.parse_formula(t, V.DAL_IPL) for t in LATE_HITS]
    seen = set()
    for warm_budget, budgets in ((None, (0, 1, 2, 300, 700, 1405, 1406, 1407)),
                                 (300, (200, 331, 332, 1000, 1406))):   # 300 stops in pair 12
        for phi in phis:
            for budget in budgets:
                lay = _warm(theorem, V.DAL_IPL, max_points=3,
                            **({} if warm_budget is None else {"max_candidates": warm_budget}))
                assert len(lay.units) == lay.held == (16 if warm_budget is None else 13)
                tried = DC._search(lay.pairs, S.compile_term(phi), False, budget, 1 << 16)[2]
                seen.add(type(_agree(monkeypatch, phi, V.DAL_IPL, small_chunks=False, max_points=3,
                                     max_candidates=budget)))
                _cold()
                assert DC._search(lay.pairs, S.compile_term(phi), False, budget, 1 << 16)[2] == tried
                _cold()
                cold = countermodel_heyting(phi, V.DAL_IPL, max_points=3, max_candidates=budget)
                assert _fingerprint(cold) == _fingerprint(reference_countermodel(
                    phi, V.DAL_IPL, max_points=3, max_candidates=budget))
    assert seen == {Countermodel, Unknown}


def test_layout_interpretation_budget_inside_the_prefix(monkeypatch):
    """An interpretation budget first exceeded at a pair inside the laid-out
    prefix: the rows before that pair run, then the search gives up, unless
    the candidate budget runs out before that pair's first candidate."""
    pairs = DC._catalog_pairs(V.DAL_IPL, 3)
    interps = [A.size * Fm.size for A, Fm in pairs]   # one action, one proposition
    budget = 9
    over = next(k for k, n in enumerate(interps) if n > budget)
    assert 0 < over < len(pairs) - 1
    before = sum(len(pi) for A, Fm in pairs[:over] for *_, pi, _ in AL._pf_stacks(A, Fm))
    reasons = set()
    for text in ("p & perm(a) -> perm(a)", "(p -> perm(a)) | (perm(a) -> p)", "p | !p & perm(a)",
                 "forb(a) | !forb(a) | p"):
        phi = dk.parse_formula(text, V.DAL_IPL)
        for kw in ({}, {"max_candidates": before}, {"max_candidates": before + 1}):
            lay = _warm(dk.parse_formula(IPL_THEOREM, V.DAL_IPL), V.DAL_IPL, max_points=3)
            assert len(lay.units) == len(pairs)
            res = _agree(monkeypatch, phi, V.DAL_IPL, small_chunks=False, max_points=3, max_interps=budget, **kw)
            reasons.add(res.reason if isinstance(res, Unknown) else "countermodel")
    assert reasons == {"countermodel", f"{interps[over]} interpretations exceed the budget of {budget}",
                       f"candidate budget of {before} algebras exhausted"}


def test_layout_prefix_then_streamed_pairs(monkeypatch):
    """With _COND_CHUNK small, the prefix ends before the first pair that
    needs several blocks; a warm search lays out the pairs before it, then
    streams that pair and gathers the kept pairs after it chunk by chunk."""
    phis = [dk.parse_formula(t, V.DAL_IPL) for t in (IPL_THEOREM, "p | !p", "perm(a) -> forb(a)",
                                                    "forb(b) -> perm(a) -> forb(b)")]
    with _chunks(monkeypatch, cand=64, cond=128):
        pairs = DC._catalog_pairs(V.DAL_IPL, 2)
        lay = _warm(phis[0], V.DAL_IPL)
        streamed = [k for k, p in enumerate(pairs) if DC._pair_stack(*p) is None]
        assert 0 < len(lay.units) == lay.held == streamed[0] < len(pairs) - 1
        for phi in phis:
            for budget in (5000, 131, 60):
                want = _fingerprint(reference_countermodel(phi, V.DAL_IPL, max_candidates=budget))
                for _ in range(2):
                    got = countermodel_heyting(phi, V.DAL_IPL, max_candidates=budget)
                    assert _fingerprint(got) == want, (dk.print_formula(phi), budget)
        assert len(lay.units) == streamed[0]


def test_layout_is_laid_out_once_and_never_by_a_cold_search(monkeypatch):
    """A cold search lays out no prefix, only the pairs it gathers one by
    one; the next search lays out every pair the first kept, at once; later
    searches of that read set lay out nothing, and another read set once."""
    built = []
    real = DC._Rows

    def spy(parts, *args):
        built.append(sorted({u.k for u, _ in parts}))
        return real(parts, *args)

    monkeypatch.setattr(DC, "_Rows", spy)
    pairs = DC._catalog_pairs(V.DAL_IPL, 3)
    theorem = dk.parse_formula(IPL_THEOREM, V.DAL_IPL)
    _cold()
    assert countermodel_heyting(theorem, V.DAL_IPL, max_points=3) == \
        Unknown("no countermodel among 1406 catalog algebras")
    assert built and all(len(ks) == 1 for ks in built)
    for other, layouts in ((theorem, [list(range(len(pairs)))]), (theorem, []),
                           (dk.parse_formula("perm(a) -> forb(a) | p", V.DAL_IPL), [list(range(len(pairs)))]),
                           (theorem, [])):
        built.clear()
        countermodel_heyting(other, V.DAL_IPL, max_points=3)
        assert built == layouts


# ---------------------------------------------------------------------------
# The bit-sliced classical decider against a per-assignment loop
# ---------------------------------------------------------------------------

CLASSICAL = (V.DAL, V.DAL_PROP, V.NDAL1, V.NDAL2, V.NDAL3, V.NDAL4, V.NDAL5)


def reference_eval(phi, live, pmask, fmask, amasks, props):
    """Truth of phi at one status assignment, on Python-int bitmasks."""
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
        assert isinstance(t, S.Compl), t
        return live & ~act(t.arg)

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
        assert isinstance(t, (S.Top, S.Bot)), t
        return isinstance(t, S.Top)

    return form(phi)


def reference_decide_classical(phi, variant=V.DAL, alphabet=None,
                               max_assignments=1_000_000):
    """One status tuple at a time in it.product order, filtered by the
    variant's admissibility test, then every proposition valuation."""
    sym = S.symbols(phi)
    actions = tuple(alphabet) if alphabet and variant.value.startswith("ndal") else sym.actions
    props = sym.props
    n, m = len(actions), len(props)
    total = (4 ** (1 << n)) * (1 << m)
    if total > max_assignments:
        raise dk.BudgetExceeded(f"{total} assignments exceed the budget of {max_assignments}")
    regions = [sum(1 << t for t in range(1 << n) if t >> i & 1) for i in range(n)]

    def admissible(statuses, live, pmask, fmask):
        if variant in (V.NDAL1, V.NDAL2, V.NDAL3, V.NDAL5):
            for r in regions:
                r &= live
                if r & ~pmask and r & ~fmask:
                    return False
        if variant is V.NDAL2 and statuses[0] == DC.NEUTRAL:
            return False
        if variant in (V.NDAL3, V.NDAL5) and statuses[0] != DC.EMPTY:
            return False
        if variant in (V.NDAL4, V.NDAL5) and DC.NEUTRAL in statuses:
            return False
        return True

    for statuses in it.product(range(4), repeat=1 << n):
        live = sum(1 << t for t, s in enumerate(statuses) if s != DC.EMPTY)
        pmask = sum(1 << t for t, s in enumerate(statuses) if s == DC.PERMITTED)
        fmask = sum(1 << t for t, s in enumerate(statuses) if s == DC.FORBIDDEN)
        if not admissible(statuses, live, pmask, fmask):
            continue
        amasks = {a: regions[i] & live for i, a in enumerate(actions)}
        for bits in it.product((False, True), repeat=m):
            pv = dict(zip(props, bits))
            if not reference_eval(phi, live, pmask, fmask, amasks, pv):
                M, v = DC.AtomAssignment(actions, statuses, pv).induced_model()
                return Countermodel(model=M, valuation=v, prop_val=pv)
    return Valid()


def _outcome(decide, *args, **kw):
    try:
        return decide(*args, **kw)
    except dk.BudgetExceeded as e:
        return "budget", str(e)


def _agree_classical(monkeypatch, phi, variant, alphabet=None,
                     slices=(4, 1 << 7, 1 << 62), **kw):
    """The bit-sliced decider gives the reference's whole verdict, first
    countermodel included, at its own slice size and at each of `slices`
    rows per slice: by default one atom digit (or two proposition digits),
    a mid value, and every assignment in one slice.  The digits left of
    the slice are enumerated as heads."""
    want = _outcome(reference_decide_classical, phi, variant, alphabet, **kw)
    for rows in (MD._SLICE_ROWS, *slices):
        with monkeypatch.context() as mp:
            mp.setattr(MD, "_SLICE_ROWS", rows)
            got = _outcome(decide_classical, phi, variant, alphabet, **kw)
        assert got == want, (dk.print_formula(phi), variant, alphabet, kw, rows)
    return want


def test_classical_grid_matches_reference_on_random_formulas(monkeypatch):
    rng = random.Random(20261018)
    seen = set()
    for variant in CLASSICAL:
        for k in range(18):
            letters = ("a", "b")[:k % 3]
            props = ("p", "q")[:1 + k % 2] if variant is V.DAL_PROP else ()
            phi = random_formula(rng, rng.randint(1, 3), variant, acts=letters, props=props)
            # DAL ignores the alphabet; NDAL1 takes its letters from the
            # formula when it has none
            alphabet = None if variant is V.NDAL1 and k % 4 == 0 else letters or ("a",)
            res = _agree_classical(monkeypatch, phi, variant, alphabet)
            seen.add(type(res))
    assert seen == {Valid, Countermodel}


def test_classical_grid_matches_reference_on_fixed_formulas(monkeypatch):
    terms = ["0", "1", "~0", "~1"]
    texts = ["true", "false", "!true | false"]
    texts += [f"{f}({t})" for f in ("perm", "forb") for t in terms]
    texts += [f"{s} == {t}" for s in terms for t in terms]
    texts += ["perm(a * ~0) | forb(~1 + a)", "a * 0 == ~1"]
    # the formulas that separate the NDAL variants
    texts += ["forb(a) | perm(a)", "forb(a + b) | perm(a + b)", "a + b == 1",
              "perm(~a * ~b) | forb(~a * ~b)", "perm(a * ~b) | forb(a * ~b)"]
    two_props = ["p -> q", "(p <-> !q) | forb(a)", "!p & q -> perm(a * b)"]
    # the parser expands <-> and -> under the classical variants; built
    # directly, they reach the decider's own Iff and Impl
    a, b = dk.Basic("a"), dk.Basic("b")
    built = [dk.Iff(dk.Perm(a), dk.Perm(a)), dk.Iff(dk.Perm(a), dk.Forb(b)),
             dk.Impl(dk.Forb(a), dk.Perm(a)), dk.Impl(dk.Eq(a, dk.Zero()), dk.Perm(a))]
    for variant in CLASSICAL:
        for text in texts + (two_props if variant is V.DAL_PROP else []):
            phi = dk.parse_formula(text, variant, ("a", "b"))
            _agree_classical(monkeypatch, phi, variant, ("a", "b"), slices=(1, 4, 1 << 7, 1 << 62))
        for phi in built:
            _agree_classical(monkeypatch, phi, variant, ("a", "b"))


def test_classical_grid_matches_reference_on_three_letters(monkeypatch):
    rng = random.Random(3)
    letters = ("a", "b", "c")
    tautology = "perm(a + b + c) <-> perm(a) & perm(b) & perm(c)"
    for variant in CLASSICAL:
        for _ in range(4):
            phi = random_formula(rng, 2, variant, acts=letters)
            _agree_classical(monkeypatch, phi, variant, letters)
        if variant.value.startswith("ndal"):
            phi = dk.parse_formula(tautology, variant, letters)
            assert _agree_classical(monkeypatch, phi, variant, letters) == Valid()


def test_classical_grid_beyond_the_cached_atoms(monkeypatch):
    """Four letters (16 atoms): the first 8 atoms are enumerated as heads;
    early countermodels come out as the reference's.  One slice of all 4^16
    rows would take 512 MB per value, so that setting is left out."""
    letters = ("a", "b", "c", "d")
    for variant, text in ((V.DAL, "perm(a * b * c * d)"), (V.DAL, "forb(a) | a * b == c"),
                          (V.NDAL1, "perm(a * b * c * d)"), (V.NDAL4, "forb(a) | perm(b)"),
                          (V.NDAL5, "forb(a) | perm(b)"), (V.DAL_PROP, "p -> perm(a * b * c * d)")):
        phi = dk.parse_formula(text, variant, letters)
        res = _agree_classical(monkeypatch, phi, variant, letters, slices=(4, 1 << 7),
                               max_assignments=4**17)
        assert isinstance(res, Countermodel)
    phi = dk.parse_formula("perm(a * b * c * d * e * f)")
    with pytest.raises(dk.BudgetExceeded, match="6 letters"):
        decide_classical(phi, V.DAL, max_assignments=4**64)


def test_classical_heads_split_the_propositions(monkeypatch):
    """Three propositions over one letter (bases 4, 4, 2, 2, 2): slices of 2
    and 4 rows hold the last one or two propositions, so the earlier ones
    are head digits after the atoms."""
    texts = ["p & q -> r | perm(a)", "p -> q | r | a == 1", "!p & q & !r -> forb(a)",
             "(p <-> q) | (q <-> r) | (p <-> r) | forb(a)", "p & !q & r -> a == 0"]
    seen = set()
    for text in texts:
        phi = dk.parse_formula(text, V.DAL_PROP)
        res = _agree_classical(monkeypatch, phi, V.DAL_PROP, slices=(2, 4, 1 << 7))
        seen.add(type(res))
    assert seen == {Valid, Countermodel}


def test_classical_grid_matches_reference_on_budgets(monkeypatch):
    for variant, text, total in ((V.DAL, "perm(a)", 16), (V.DAL_PROP, "p -> perm(a)", 32),
                                 (V.NDAL3, "a + b == 1", 256)):
        phi = dk.parse_formula(text, variant, ("a", "b"))
        for budget in (total - 1, total):
            res = _agree_classical(monkeypatch, phi, variant, ("a", "b"), max_assignments=budget)
            assert isinstance(res, tuple) == (budget < total), (text, budget)
