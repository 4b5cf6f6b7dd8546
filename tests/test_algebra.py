import numpy as np
import pytest

import dalkit as dk
import dalkit.syntax as S
from dalkit.algebra import _assignment_grid
from conftest import random_bb_algebra, random_flavored_algebra, random_pf


def simple_bb():
    """Action = powerset{x,y}; permit inside {x}, forbid inside {y}."""
    A = dk.powerset_algebra(["x", "y"])
    f = dk.two()
    x, y = A.index_of("{x}"), A.index_of("{y}")
    P = [f.top if A.leq(a, x) else f.bot for a in range(A.size)]
    F = [f.top if A.leq(a, y) else f.bot for a in range(A.size)]
    return dk.build(A, f, P, F)


def test_build_and_flavor():
    D = simple_bb()
    assert D.flavor == "BB"
    assert D.crisp_equality
    assert D.E(0, 0) == D.formula.top
    assert D.E(0, 1) == D.formula.bot


def test_build_rejects_non_antitone_p():
    A = dk.powerset_algebra(["x", "y"])
    f = dk.two()
    P = [f.top, f.bot, f.bot, f.top]  # P(top)=top but P(atoms)=bot
    F = [f.top, f.bot, f.bot, f.bot]
    with pytest.raises(dk.ConditionError) as e:
        dk.build(A, f, P, F)
    assert e.value.condition in ("1", "2")


def test_build_rejects_overlapping_p_f():
    A = dk.powerset_algebra(["x"])
    f = dk.two()
    with pytest.raises(dk.ConditionError) as e:
        dk.build(A, f, [f.top, f.top], [f.top, f.top])
    assert e.value.condition == "3"


def test_build_rejects_bad_e_diagonal():
    A = dk.powerset_algebra(["x"])
    f = dk.two()
    E = np.array([[0, 0], [0, 1]])
    with pytest.raises(dk.ConditionError) as e:
        dk.build(A, f, [1, 1], [1, 0], E=E)
    assert e.value.condition == "6"


def test_graded_e_half_permitted():
    # both P and F sit at the middle value on the sole non-zero action;
    # that forces the equality with 0 to be graded too
    H = dk.chain(3)
    D = dk.build(dk.two(), H, [2, 1], [2, 1],
                 E=np.array([[2, 1], [1, 2]]))
    assert D.flavor == "BH"
    assert not D.crisp_equality
    assert D.E(1, 0) == 1


def test_graded_e_rejected_when_condition3_breaks():
    H = dk.chain(3)
    with pytest.raises(dk.ConditionError) as e:
        dk.build(dk.two(), H, [2, 1], [2, 1])  # crisp E: P&F = 1 != 0 at 1
    assert e.value.condition == "3"


def test_evaluate_ground_terms():
    D = simple_bb()
    A = D.action
    h = dk.Interpretation(act={"a": A.index_of("{x}"), "b": A.index_of("{y}")})
    top = D.formula.top
    cases = {
        "perm(a)": top,
        "forb(b)": top,
        "perm(b)": D.formula.bot,
        "perm(a * b)": top,           # a*b = 0, and P(0) = top
        "a * b == 0": top,
        "perm(a) & forb(b)": top,
        "perm(a+b) <-> perm(a) & perm(b)": top,
        "obl(a)": top,                # forb(~a), and ~{x} = {y} is forbidden
        "obl(b)": D.formula.bot,      # ~{y} = {x} is not forbidden
    }
    for text, want in cases.items():
        assert dk.evaluate(D, h, dk.parse_formula(text)) == want, text


def test_evaluate_unbound_symbol_raises():
    D = simple_bb()
    with pytest.raises(KeyError):
        dk.evaluate(D, dk.Interpretation(), dk.parse_formula("perm(a)"))


def test_satisfies_and_valid_in():
    D = simple_bb()
    d1_l = dk.parse_formula("perm(a + b)")
    d1_r = dk.parse_formula("perm(a) & perm(b)")
    assert dk.valid_in(D, d1_l, d1_r)
    assert dk.valid_formula_in(D, dk.parse_formula("perm(a+b) <-> perm(a)&perm(b)"))
    assert not dk.valid_formula_in(D, dk.parse_formula("perm(a)"))


def test_valid_in_budget():
    D = simple_bb()
    t = dk.parse_formula("perm(a) & perm(b) & perm(c) & perm(d) & perm(e)")
    with pytest.raises(dk.BudgetExceeded):
        dk.valid_formula_in(D, t, max_interps=100)


def test_act_eq_iff_form_eq():
    # the correspondence is an iff per interpretation, so it also holds for
    # distinct terms: both sides fail together on a separating witness
    D = simple_bb()
    assert dk.act_eq_iff_form_eq(D, dk.parse_action("a * b"), dk.parse_action("b * a"))
    assert dk.act_eq_iff_form_eq(D, dk.parse_action("a"), dk.parse_action("b"))


def test_preimage_ideals_structure():
    D = simple_bb()
    pi, fi = dk.preimage_ideals(D)
    assert pi == {0, D.action.index_of("{x}")}
    assert fi == {0, D.action.index_of("{y}")}


def test_preimage_ideals_all_flavors(rng):
    for flavor in ("BB", "BH", "HB", "HH"):
        for _ in range(10):
            D = random_flavored_algebra(rng, flavor)
            assert D.flavor == flavor
            pi, fi = dk.preimage_ideals(D)
            assert pi & fi == {D.action.bot}


def test_check_ndal_conditions():
    A = dk.powerset_algebra(["x", "y"])
    f = dk.two()
    # everything permitted, nothing (but 0) forbidden: all conditions hold
    D = dk.build(A, f, [f.top] * 4, [f.top, f.bot, f.bot, f.bot])
    gens = ["{x}", "{y}"]
    assert all(dk.check_ndal(D, gens, k) for k in range(1, 6))
    # simple_bb: generators closed, but the join of atoms is 1 so 3 holds;
    # atoms are closed (each P- or F-covered), complement-meet is 0
    D2 = simple_bb()
    assert dk.check_ndal(D2, gens, 1)
    assert dk.check_ndal(D2, gens, 3)
    # a neutral generator breaks condition 1
    D3 = dk.build(A, f, [f.top, f.bot, f.bot, f.bot], [f.top, f.bot, f.bot, f.bot])
    assert not dk.check_ndal(D3, gens, 1)
    with pytest.raises(ValueError):
        dk.check_ndal(D3, gens, 6)


def test_subalgebra_check():
    big = simple_bb()
    f = dk.two()
    small = dk.build(dk.two(), f, [f.top, f.bot], [f.top, f.bot])
    ok, report = dk.subalgebra_check(small, big, [big.action.bot, big.action.top], [0, 1])
    assert ok, report
    # wrong embedding: top does not go to top
    ok, report = dk.subalgebra_check(small, big, [big.action.bot, 1], [0, 1])
    assert not ok and report


def test_enumerate_pf_maps_counts():
    # two/two: P(1),F(1) in {bot,top} minus the overlapping pair
    assert len(list(dk.enumerate_pf_maps(dk.two(), dk.two()))) == 3
    # powerset(2)/two: independent choices at both atoms, same exclusion
    assert len(list(dk.enumerate_pf_maps(dk.powerset_algebra(["x", "y"]), dk.two()))) == 9
    # two/chain3: pairs with meet bot: (0,0),(0,1),(0,2),(1,0),(2,0)
    assert len(list(dk.enumerate_pf_maps(dk.two(), dk.chain(3)))) == 5


def test_enumerate_pf_maps_all_valid(rng):
    action = dk.powerset_algebra(["x", "y"])
    for P, F in dk.enumerate_pf_maps(action, dk.chain(3)):
        dk.build(action, dk.chain(3), P, F)  # must not raise


def test_random_pf_always_buildable(rng):
    for _ in range(25):
        D = random_bb_algebra(rng)
        assert dk.validate(D.action) == []


def test_evaluate_batch_matches_scalar(rng):
    D = simple_bb()
    t = dk.parse_formula("perm(a * ~b) | (a == b)")
    n = D.action.size
    grid_a, grid_b = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    batch = dk.evaluate_batch(D, {"a": grid_a.ravel(), "b": grid_b.ravel()}, t)
    for i in range(n * n):
        h = dk.Interpretation(act={"a": int(grid_a.ravel()[i]), "b": int(grid_b.ravel()[i])})
        assert batch[i] == dk.evaluate(D, h, t)


def test_evaluate_compiles_a_repeated_term_once(monkeypatch):
    D = simple_bb()
    A = D.action
    h = dk.Interpretation(act={"a": A.index_of("{x}"), "b": A.index_of("{y}")})
    t, u = dk.parse_formula("perm(a * ~b) | (a == b)"), dk.parse_formula("forb(a * ~b) | (a == b)")
    v = dk.Or(dk.Perm(dk.Basic("a")), dk.Eq(dk.Basic("a"), dk.Basic("b")))   # built, not parsed
    walked = []
    real = S._walk
    monkeypatch.setattr(S, "_walk", lambda x: walked.append(x) or real(x))
    # a parsed term comes with its table; a built one is walked on first use
    for term, calls in ((t, []), (t, []), (v, [v]), (u, [v]), (v, [v]), (t, [v])):
        assert dk.evaluate(D, h, term) == reference_evaluate(D, h, term)
        assert walked == calls
    batch = dk.evaluate_batch(D, {"a": np.arange(A.size), "b": np.zeros(A.size, int)}, v)
    assert walked == [v] and batch.shape == (A.size,)


def reference_evaluate(D, h, t):
    """The recursive scalar evaluator the table walker replaced."""
    A, Fm = D.action, D.formula

    def act(t):
        if isinstance(t, (dk.Basic, dk.AVar)):
            return h.act[t.name]
        if isinstance(t, dk.Zero):
            return A.bot
        if isinstance(t, dk.One):
            return A.top
        if isinstance(t, dk.Union):
            return A.join(act(t.left), act(t.right))
        if isinstance(t, dk.Inter):
            return A.meet(act(t.left), act(t.right))
        if isinstance(t, dk.Compl):
            return A.compl(act(t.arg))
        assert isinstance(t, dk.AImpl), t
        return A.impl(act(t.left), act(t.right))

    def form(t):
        if isinstance(t, (dk.Prop, dk.FVar)):
            return h.prop[t.name]
        if isinstance(t, dk.Bot):
            return Fm.bot
        if isinstance(t, dk.Top):
            return Fm.top
        if isinstance(t, dk.Eq):
            return D.E(act(t.left), act(t.right))
        if isinstance(t, dk.Perm):
            return int(D.P[act(t.arg)])
        if isinstance(t, dk.Forb):
            return int(D.F[act(t.arg)])
        if isinstance(t, dk.Or):
            return Fm.join(form(t.left), form(t.right))
        if isinstance(t, dk.And):
            return Fm.meet(form(t.left), form(t.right))
        if isinstance(t, dk.Not):
            return Fm.compl(form(t.arg))
        if isinstance(t, dk.Impl):
            return Fm.impl(form(t.left), form(t.right))
        assert isinstance(t, dk.Iff), t
        return Fm.meet(form(dk.Impl(t.left, t.right)), form(dk.Impl(t.right, t.left)))

    return act(t) if isinstance(t, S.ActionTerm) else form(t)


def random_term(rng, depth, sort):
    """Undesugared random term with '~>', primitive '->', '<->', a
    proposition and both kinds of metavariable."""
    if sort == "act":
        if depth == 0:
            return rng.choice([dk.Basic("a"), dk.Basic("b"), dk.AVar("α"), dk.Zero(), dk.One()])
        cls = rng.choice([dk.Union, dk.Inter, dk.AImpl, dk.Compl])
    else:
        if depth == 0:
            return rng.choice([dk.Prop("p"), dk.FVar("φ"), dk.Top(), dk.Bot(),
                               dk.Perm(random_term(rng, 1, "act")),
                               dk.Forb(random_term(rng, 1, "act")),
                               dk.Eq(random_term(rng, 1, "act"), random_term(rng, 1, "act"))])
        cls = rng.choice([dk.Or, dk.And, dk.Impl, dk.Iff, dk.Not])
    if cls in (dk.Compl, dk.Not):
        return cls(random_term(rng, depth - 1, sort))
    return cls(random_term(rng, depth - 1, sort), random_term(rng, depth - 1, sort))


def test_evaluate_and_batch_match_recursive_reference(rng):
    acts, props = ["a", "b", "α"], ["p", "φ"]
    for flavor in ("BB", "BH", "HB", "HH"):
        for _ in range(6):
            D = random_flavored_algebra(rng, flavor)
            assign, total = _assignment_grid(D, acts, props, 1 << 20)
            rows = rng.sample(range(total), min(total, 40))
            for sort in ("act", "form", "form"):
                t = random_term(rng, rng.randint(0, 3), sort)
                batch = np.broadcast_to(dk.evaluate_batch(D, assign, t), (total,))
                for r in rows:
                    h = dk.Interpretation(act={a: int(assign[a][r]) for a in acts},
                                          prop={p: int(assign[p][r]) for p in props})
                    want = reference_evaluate(D, h, t)
                    assert dk.evaluate(D, h, t) == want == batch[r], (flavor, t)
