import pytest

import dalkit as dk
from dalkit.syntax import LogicVariant as V
from dalkit.decide import decide_classical
from conftest import random_model, random_formula
from test_decide import reference_eval


def weekend():
    M = dk.DeonticModel(["e1", "e2", "e3"], permitted={"e1"}, forbidden={"e3"})
    v = dk.Valuation({"a": {"e1", "e2"}, "b": {"e2", "e3"}})
    return M, v


def test_model_validation():
    with pytest.raises(ValueError):
        dk.DeonticModel(["e1", "e1"], set(), set())
    with pytest.raises(ValueError):
        dk.DeonticModel(["e1"], {"e2"}, set())
    with pytest.raises(ValueError):
        dk.DeonticModel(["e1"], {"e1"}, {"e1"})  # P and F must be disjoint


def test_extend_hand_computed():
    M, v = weekend()
    cases = {
        "a * b": {"e2"},
        "a + b": {"e1", "e2", "e3"},
        "~a": {"e3"},
        "~(a + b)": set(),
        "0": set(),
        "1": {"e1", "e2", "e3"},
        "a * ~b": {"e1"},
    }
    for text, want in cases.items():
        assert dk.extend(M, v, dk.parse_action(text)) == want, text


def test_extend_rejects_aimpl():
    M, v = weekend()
    with pytest.raises(ValueError):
        dk.extend(M, v, dk.AImpl(dk.Basic("a"), dk.Basic("b")))


def test_sat_hand_computed():
    M, v = weekend()
    cases = {
        "perm(a * ~b)": True,
        "perm(a)": False,
        "forb(~a)": True,
        "forb(b)": False,
        "a + ~a == 1": True,
        "a * b == 0": False,
        "perm(0) & forb(0)": True,     # the empty extension is inside both
        "obl(a + b)": True,            # nothing lies outside a+b
        "!perm(a) | perm(a)": True,
    }
    for text, want in cases.items():
        assert dk.sat(M, v, dk.parse_formula(text)) is want, text


def test_sat_with_props():
    M, v = weekend()
    phi = dk.parse_formula("rain -> forb(b)", V.DAL_PROP)
    assert dk.sat(M, v, phi, prop_val={"rain": False})
    assert not dk.sat(M, v, phi, prop_val={"rain": True})
    with pytest.raises(ValueError):
        dk.sat(M, v, phi)


def test_sat_missing_action_raises():
    M, v = weekend()
    with pytest.raises(ValueError):
        dk.sat(M, v, dk.parse_formula("perm(zzz)"))
    # coverage is checked up front, not only where evaluation looks
    with pytest.raises(ValueError):
        dk.sat(M, v, dk.parse_formula("true | perm(zzz)"))


def test_mask_semantics_rejects_metavariables():
    M, v = weekend()
    for phi in (dk.Perm(dk.AVar("α")), dk.Or(dk.FVar("φ"), dk.Top())):
        for check in (lambda: dk.sat(M, v, phi), lambda: dk.taut_oracle(phi),
                      lambda: decide_classical(phi)):
            with pytest.raises(TypeError):
                check()
    with pytest.raises(TypeError):
        dk.extend(M, v, dk.AVar("α"))


def test_sat_beyond_64_elements_matches_reference(rng):
    """Python-int masks of a 70-element model against the recursive reference."""
    elems = [f"e{i}" for i in range(70)]
    pool = list(elems)
    rng.shuffle(pool)
    M = dk.DeonticModel(elems, permitted=pool[:30], forbidden=pool[30:55])
    for _ in range(40):
        v = dk.Valuation({a: {e for e in elems if rng.random() < 0.5} for a in ("a", "b")})
        masks = {a: sum(1 << elems.index(e) for e in s) for a, s in v.map.items()}
        phi = random_formula(rng, rng.randint(1, 3))
        want = reference_eval(phi, (1 << 70) - 1, sum(1 << elems.index(e) for e in M.permitted),
                              sum(1 << elems.index(e) for e in M.forbidden), masks, {})
        assert dk.sat(M, v, phi) is want, dk.print_formula(phi)


def test_oracle_validates_axioms():
    for text in ["perm(a+b) <-> perm(a) & perm(b)",
                 "forb(a+b) <-> forb(a) & forb(b)",
                 "(perm(a) & forb(a)) <-> (a == 0)",
                 "a + ~a == 1",
                 "a * (a * b) == (a * a) * b",
                 "(a == b) & perm(a) -> perm(b)"]:
        assert dk.taut_oracle(dk.parse_formula(text)) is True, text


def test_oracle_refutes_non_theorems():
    for text in ["perm(a)", "forb(a) | perm(a)", "forb(a) <-> !perm(a)",
                 "a == b", "perm(a * b) -> perm(a)"]:
        assert dk.taut_oracle(dk.parse_formula(text)) is False, text


def test_oracle_witness_falsifies():
    ok, (M, v, props) = dk.taut_oracle(dk.parse_formula("forb(a) | perm(a)"),
                                       return_witness=True)
    assert ok is False
    assert dk.sat(M, v, dk.parse_formula("forb(a) | perm(a)"), prop_val=props) is False


def test_oracle_prop_formulas():
    assert dk.taut_oracle(dk.parse_formula("p | !p", V.DAL_PROP)) is True
    ok, (M, v, props) = dk.taut_oracle(dk.parse_formula("p -> q", V.DAL_PROP),
                                       return_witness=True)
    assert ok is False and props == {"p": True, "q": False}


def test_oracle_budget():
    phi = dk.parse_formula("perm(a * b * c)")
    with pytest.raises(dk.BudgetExceeded):
        dk.taut_oracle(phi)  # three actions exceed the supported bound


def test_oracle_agrees_with_sat_on_random_models(rng):
    """The vectorized oracle and the reference sat() must agree: any formula
    false in some random small model must be refuted by the oracle."""
    for _ in range(60):
        phi = random_formula(rng, rng.randint(1, 3))
        M, v = random_model(rng)
        if not dk.sat(M, v, phi):
            assert dk.taut_oracle(phi) is False


def reference_model(n, acts, props, row):
    """The model coded by row: its low bits are the propositions, first least
    significant; the rest is one base-(3 * 2^k) digit per element, element 0
    least significant, whose value is the P/F/neither choice plus 3 times the
    action memberships."""
    m, per = len(props), 3 << len(acts)
    elems = [f"e{i + 1}" for i in range(n)]
    states = [(row >> m) // per**i % per for i in range(n)]
    M = dk.DeonticModel(elems, {e for e, s in zip(elems, states) if s % 3 == 1},
                        {e for e, s in zip(elems, states) if s % 3 == 2})
    v = dk.Valuation({a: {e for e, s in zip(elems, states) if s // 3 >> j & 1}
                      for j, a in enumerate(acts)})
    return M, v, {p: bool(row >> j & 1) for j, p in enumerate(props)}


def test_oracle_witness_is_the_first_model_in_row_order(rng):
    # the fixed formulas need two elements to fail, which pins the element order
    fixed = [dk.parse_formula(t, V.DAL_PROP) for t in ("a == 0 | a == 1", "p & !q -> a == 0 | a == 1")]
    found = 0
    while found < 25:
        phi = fixed.pop() if fixed else random_formula(
            rng, rng.randint(1, 3), V.DAL_PROP,
            acts=("a", "b")[:rng.randint(1, 2)], props=("p", "q")[:rng.randint(0, 2)])
        ok, witness = dk.taut_oracle(phi, return_witness=True)
        if ok:
            continue
        sym = dk.symbols(phi)
        models = (reference_model(n, sym.actions, sym.props, row) for n in range(5)
                  for row in range((3 << len(sym.actions)) ** n << len(sym.props)))
        first = next(w for w in models if not dk.sat(w[0], w[1], phi, prop_val=w[2] or None))
        assert witness == first, dk.print_formula(phi)
        found += 1
