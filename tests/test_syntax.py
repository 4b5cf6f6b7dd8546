import re

import pytest
from hypothesis import given, settings, strategies as st

import dalkit as dk
from dalkit.syntax import LogicVariant as V


def test_action_precedence():
    t = dk.parse_action("a + b * ~c")
    assert t == dk.Union(dk.Basic("a"), dk.Inter(dk.Basic("b"), dk.Compl(dk.Basic("c"))))


def test_action_left_assoc():
    assert dk.parse_action("a + b + c") == dk.Union(
        dk.Union(dk.Basic("a"), dk.Basic("b")), dk.Basic("c"))


def test_aimpl_right_assoc_and_gating():
    t = dk.parse_action("a ~> b ~> c", V.DAL_IAL)
    assert t == dk.AImpl(dk.Basic("a"), dk.AImpl(dk.Basic("b"), dk.Basic("c")))
    with pytest.raises(dk.ParseError):
        dk.parse_action("a ~> b", V.DAL)


def test_formula_precedence():
    t = dk.parse_formula("perm(a) | forb(b) & perm(c)", V.DAL_IPL)
    assert t == dk.Or(dk.Perm(dk.Basic("a")),
                      dk.And(dk.Forb(dk.Basic("b")), dk.Perm(dk.Basic("c"))))


def test_impl_right_assoc_primitive():
    t = dk.parse_formula("perm(a) -> perm(b) -> perm(c)", V.DAL_IPL)
    assert isinstance(t, dk.Impl) and isinstance(t.right, dk.Impl)


def test_classical_impl_desugars_at_parse():
    t = dk.parse_formula("perm(a) -> perm(b)")
    assert t == dk.Or(dk.Not(dk.Perm(dk.Basic("a"))), dk.Perm(dk.Basic("b")))


def test_iff_desugars_both_ways():
    classical = dk.parse_formula("perm(a) <-> perm(b)")
    assert isinstance(classical, dk.And)
    assert isinstance(classical.left, dk.Or)
    ipl = dk.parse_formula("perm(a) <-> perm(b)", V.DAL_IPL)
    assert ipl == dk.And(dk.Impl(dk.Perm(dk.Basic("a")), dk.Perm(dk.Basic("b"))),
                         dk.Impl(dk.Perm(dk.Basic("b")), dk.Perm(dk.Basic("a"))))


def test_obl_is_forbidden_complement():
    assert dk.parse_formula("obl(a + b)") == dk.Forb(dk.Compl(dk.Union(dk.Basic("a"), dk.Basic("b"))))


def test_eq_atom_needs_action_sides():
    t = dk.parse_formula("a * b == 0")
    assert t == dk.Eq(dk.Inter(dk.Basic("a"), dk.Basic("b")), dk.Zero())


def test_eq_binds_inside_connectives():
    t = dk.parse_formula("a == b & perm(c)")
    assert isinstance(t, dk.And) and isinstance(t.left, dk.Eq)


def test_true_false_constants():
    assert dk.parse_formula("true") == dk.Top()
    assert dk.parse_formula("false") == dk.Bot()


def test_prop_gating():
    with pytest.raises(dk.ParseError):
        dk.parse_formula("rain -> perm(a)", V.DAL)
    t = dk.parse_formula("rain -> perm(a)", V.DAL_PROP)
    assert dk.symbols(t).props == ("rain",)


def test_alphabet_enforcement():
    with pytest.raises(dk.ParseError):
        dk.parse_formula("perm(c)", V.NDAL2, alphabet=("a", "b"))
    dk.parse_formula("perm(a * ~b)", V.NDAL2, alphabet=("a", "b"))


def test_comments_and_whitespace():
    t = dk.parse_formula("perm( a )  # trailing note")
    assert t == dk.Perm(dk.Basic("a"))


def test_parse_error_position():
    with pytest.raises(dk.ParseError) as e:
        dk.parse_formula("perm(a) &")
    assert "position" in str(e.value) or "end" in str(e.value)


def test_symbols_collects_both_sorts():
    t = dk.parse_formula("p -> (a * b == 0)", V.DAL_PROP)
    s = dk.symbols(t)
    assert s.actions == ("a", "b")
    assert s.props == ("p",)


def test_metavariables():
    t = dk.Impl(dk.FVar("φ"), dk.Perm(dk.AVar("α")))
    avars, fvars = dk.metavariables(t)
    assert avars == ("α",) and fvars == ("φ",)


def test_substitution_instance():
    a, b = dk.Basic("a"), dk.Basic("b")
    phi = dk.Perm(dk.Union(a, a))
    # replace zero, one, or both occurrences
    for psi in (phi, dk.Perm(dk.Union(b, a)), dk.Perm(dk.Union(a, b)),
                dk.Perm(dk.Union(b, b))):
        assert dk.is_substitution_instance(psi, phi, a, b)
    assert not dk.is_substitution_instance(dk.Perm(b), dk.Perm(a), a, dk.Basic("c"))


def test_printer_output():
    cases = [("!(a == b) & (a == 0 | perm(~(a + b) * c))", V.DAL,
              "!(a == b) & ((a == 0) | perm(~(a + b) * c))"),
             ("(p -> q) -> !p <-> (a ~> b ~> c) * d == 1", V.DAL_INT,
              "(((p -> q) -> !p) -> ((a ~> b ~> c) * d == 1)) & "
              "(((a ~> b ~> c) * d == 1) -> (p -> q) -> !p)"),
             ("obl(a) | forb(0) & true | !false", V.DAL, "forb(~a) | forb(0) & true | !false")]
    for text, variant, want in cases:
        assert dk.print_formula(dk.parse_formula(text, variant)) == want


def test_printer_writes_the_iff_expansion_as_iff():
    a, b = dk.Perm(dk.Basic("a")), dk.Perm(dk.Basic("b"))
    ors = dk.And(dk.Or(dk.Not(a), b), dk.Or(dk.Not(b), a))
    impls = dk.And(dk.Impl(a, b), dk.Impl(b, a))
    assert dk.print_formula(ors) == dk.print_formula(ors, V.DAL_IAL) == "perm(a) <-> perm(b)"
    assert dk.print_formula(impls, V.DAL_IPL) == dk.print_formula(impls, V.DAL_INT) == \
        "perm(a) <-> perm(b)"
    # the expansion of another variant: <-> would read back as a different term
    for variant in (V.DAL_IPL, V.DAL_INT):
        assert dk.print_formula(ors, variant) == "(!perm(a) | perm(b)) & (!perm(b) | perm(a))"
    assert dk.print_formula(impls) == "(perm(a) -> perm(b)) & (perm(b) -> perm(a))"
    # not an expansion the parser makes: the halves differ in kind or order
    assert dk.print_formula(dk.And(dk.Impl(a, b), dk.Or(dk.Not(b), a)), V.DAL_IPL) == \
        "(perm(a) -> perm(b)) & (!perm(b) | perm(a))"
    assert dk.print_formula(dk.And(dk.Impl(a, b), dk.Impl(a, b)), V.DAL_IPL) == \
        "(perm(a) -> perm(b)) & (perm(a) -> perm(b))"
    assert dk.print_formula(dk.Not(impls), V.DAL_IPL) == "!(perm(a) <-> perm(b))"


@pytest.mark.parametrize("variant", [V.DAL_PROP, V.DAL_IPL, V.DAL_IAL, V.DAL_INT])
def test_printed_conjunctions_of_implications_read_back_as_themselves(variant):
    for text in ("(!p | q) & (!q | p)", "(p -> q) & (q -> p)", "p <-> q"):
        t = dk.parse_formula(text, variant)
        assert dk.parse_formula(dk.print_formula(t, variant), variant) == t
        proof = dk.Proof(variant, ((t, dk.Axiom("A1")),))
        assert dk.read_proof(dk.write_proof(proof)) == proof


@pytest.mark.parametrize("variant", [V.DAL, V.DAL_IPL])
def test_iff_chains_print_in_linear_size(variant):
    for text in ("perm(a) <-> perm(b) <-> perm(c)", "perm(a) <-> (perm(b) <-> perm(c))",
                 "(a == b) <-> !perm(a) & (forb(b) <-> perm(1))"):
        t = dk.parse_formula(text, variant)
        assert dk.parse_formula(dk.print_formula(t, variant), variant) == t
    for n in (2, 18, 3000):
        text = " <-> ".join(["perm(a)"] * n)
        t = dk.parse_formula(text, variant)
        assert dk.print_formula(t, variant) == text
        assert dk.parse_formula(text, variant) == t


def test_formula_atom_tries_no_action_at_a_keyword():
    t = dk.parse_formula("perm(a) & forb(b) | obl(c) -> true & !false | a == b")
    assert dk.print_formula(t) == "!(perm(a) & forb(b) | forb(~c)) | (true & !false | (a == b))"
    for text, message in (("perm", "expected '(', found 'end of input' (at position 4)"),
                          ("true == 1", "unexpected trailing input '==' (at position 5)"),
                          ("forb(a) +", "unexpected trailing input '+' (at position 8)")):
        with pytest.raises(dk.ParseError, match=re.escape(message)):
            dk.parse_formula(text)


# -- printer round trips ------------------------------------------------------

_acts = st.deferred(lambda: st.one_of(
    st.sampled_from([dk.Basic("a"), dk.Basic("b"), dk.Zero(), dk.One()]),
    st.builds(dk.Union, _acts, _acts),
    st.builds(dk.Inter, _acts, _acts),
    st.builds(dk.Compl, _acts),
))

_forms = st.deferred(lambda: st.one_of(
    st.builds(dk.Perm, _acts),
    st.builds(dk.Forb, _acts),
    st.builds(dk.Eq, _acts, _acts),
    st.sampled_from([dk.Top(), dk.Bot()]),
    st.builds(dk.Or, _forms, _forms),
    st.builds(dk.And, _forms, _forms),
    st.builds(dk.Not, _forms),
))


@settings(max_examples=60, deadline=None)
@given(_acts)
def test_action_print_parse_roundtrip(t):
    assert dk.parse_action(dk.print_action(t)) == t


@settings(max_examples=60, deadline=None)
@given(_forms)
def test_formula_print_parse_roundtrip(t):
    assert dk.parse_formula(dk.print_formula(t)) == t


_ipl_forms = st.deferred(lambda: st.one_of(
    st.builds(dk.Perm, _acts),
    st.builds(dk.Prop, st.sampled_from(["p", "q"])),
    st.builds(dk.Impl, _ipl_forms, _ipl_forms),
    st.builds(dk.Or, _ipl_forms, _ipl_forms),
    st.builds(dk.And, _ipl_forms, _ipl_forms),
    st.builds(dk.Not, _ipl_forms),
))


@settings(max_examples=50, deadline=None)
@given(_ipl_forms)
def test_ipl_print_parse_roundtrip(t):
    for variant in (V.DAL_IPL, V.DAL_INT):
        assert dk.parse_formula(dk.print_formula(t, variant), variant) == t
