"""The operator-precedence parser against the recursive-descent parser it
replaced (``parse_reference``): on every input both accept or both reject,
accepted inputs give equal terms with identical compile_term tables, and a
rejection is a ParseError with a position inside the text."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import dalkit as dk
import dalkit.syntax as S
import parse_reference as R
from dalkit.syntax import LogicVariant as V

DATA = Path(dk.__file__).parent / "data"
ALPHABETS = (None, ("a", "b"))
TOKENS = ["a", "b", "c", "p", "q", "0", "1", "01", "(", "(", ")", ")", "+", "*", "~", "~>",
          "!", "&", "|", "->", "<->", "==", "perm(", "forb(", "obl(", "perm", "true",
          "false", "# note\n", "$", "\n", "a_1"]


def outcome(parse, text, variant, alphabet):
    try:
        return parse(text, variant, alphabet)
    except dk.ParseError as e:
        assert 0 <= e.pos <= len(text), (text, str(e))
        return None


def agree(text, variant, alphabet):
    """Both parsers, as formula and as action term: equal terms, which for
    terms means identical compile_term tables."""
    for new, old in ((S.parse_formula, R.parse_formula), (S.parse_action, R.parse_action)):
        t, r = outcome(new, text, variant, alphabet), outcome(old, text, variant, alphabet)
        assert (t is None) == (r is None), (text, variant, alphabet, t, r)
        if t is not None:
            assert t == r, (text, variant)


@pytest.mark.parametrize("seed", range(4))
def test_random_token_strings(seed):
    rng = random.Random(seed)
    for _ in range(150):
        text = " ".join(rng.choice(TOKENS) for _ in range(rng.randint(0, 14)))
        for variant in V:
            for alphabet in ALPHABETS:
                agree(text, variant, alphabet)


def test_shipped_formula_lines():
    lines = [line for path in sorted(DATA.glob("theorems_*.txt"))
             for line in path.read_text().splitlines() if line.strip() and not line.startswith("#")]
    for path in sorted((DATA / "proofs").rglob("*.prf")):
        for line in path.read_text().splitlines():
            head, colon, rest = line.partition(":")
            if colon and head.strip().isdigit():
                lines.append(rest.rpartition("[")[0])
    assert len(lines) > 50
    for text in lines:
        for variant in V:
            for alphabet in ALPHABETS:
                agree(text, variant, alphabet)


_acts = st.recursive(
    st.sampled_from([dk.Basic("a"), dk.Basic("b"), dk.Basic("p"), dk.Zero(), dk.One()]),
    lambda kids: st.one_of(st.builds(dk.Union, kids, kids), st.builds(dk.Inter, kids, kids),
                           st.builds(dk.Compl, kids), st.builds(dk.AImpl, kids, kids)),
    max_leaves=6)

_forms = st.recursive(
    st.one_of(st.builds(dk.Perm, _acts), st.builds(dk.Forb, _acts), st.builds(dk.Eq, _acts, _acts),
              st.sampled_from([dk.Top(), dk.Bot(), dk.Prop("p"), dk.Prop("a")])),
    lambda kids: st.one_of(st.builds(dk.Or, kids, kids), st.builds(dk.And, kids, kids),
                           st.builds(dk.Not, kids), st.builds(dk.Impl, kids, kids)),
    max_leaves=6)


@settings(max_examples=150, deadline=None)
@given(t=st.one_of(_acts, _forms), printer=st.sampled_from(list(V)))
def test_printed_terms(t, printer):
    text = dk.print_term(t, printer)
    for variant in V:
        for alphabet in ALPHABETS:
            agree(text, variant, alphabet)


CHAINS = [(" + ".join(["a"] * 10_000), V.DAL), (" * ".join(["a"] * 10_000), V.DAL),
          (" ~> ".join(["a"] * 10_000), V.DAL_IAL), ("~" * 10_000 + "a", V.DAL),
          ("!" * 10_000 + "perm(a)", V.DAL), (" & ".join(["perm(a)"] * 10_000), V.DAL),
          (" | ".join(["perm(a)"] * 10_000), V.DAL), (" -> ".join(["perm(a)"] * 10_000), V.DAL),
          (" -> ".join(["perm(a)"] * 10_000), V.DAL_INT),
          (" <-> ".join(["perm(a)"] * 10_000), V.DAL)]


@pytest.mark.parametrize("text, variant", CHAINS,
                         ids=[f"{text[:9].strip()}-{v.value}" for text, v in CHAINS])
def test_long_chains(text, variant):
    agree(text, variant, None)


KEPT = [  # (text, variant, alphabet, parser, message): the same from both parsers
    ("perm", V.DAL, None, "formula", "expected '(', found 'end of input' (at position 4)"),
    ("true == 1", V.DAL, None, "formula", "unexpected trailing input '==' (at position 5)"),
    ("forb(a) +", V.DAL, None, "formula", "unexpected trailing input '+' (at position 8)"),
    ("perm(a) &", V.DAL, None, "formula", "expected a formula, found end of input (at position 9)"),
    ("rain -> perm(a)", V.DAL, None, "formula",
     "proposition symbol 'rain' is not admitted under dal (at position 0)"),
    ("perm(a) & !q", V.NDAL3, ("a",), "formula",
     "proposition symbol 'q' is not admitted under ndal3 (at position 11)"),
    ("a ~> b", V.DAL, None, "action", "action implication '~>' is not admitted under dal (at position 2)"),
    ("forb(a * (b ~> a))", V.DAL_IPL, None, "formula",
     "action implication '~>' is not admitted under dal_ipl (at position 12)"),
    ("perm(c)", V.NDAL2, ("a", "b"), "formula",
     "basic action 'c' is not in the declared alphabet (at position 5)"),
    ("a + c", V.NDAL2, ("a", "b"), "action", "basic action 'c' is not in the declared alphabet (at position 4)"),
    ("perm(a) $ b", V.DAL, None, "formula", "unexpected character '$' (at position 8)"),
    ("perm( & A", V.DAL, None, "formula", "unexpected character 'A' (at position 8)"),
    ("a + (b == c)", V.DAL, None, "action", "expected ')', found '==' (at position 7)"),
    ("perm(a b)", V.DAL, None, "formula", "expected ')', found 'b' (at position 7)"),
    ("a & b", V.DAL, None, "action", "unexpected trailing input '&' (at position 2)"),
    ("perm(a)", V.DAL, None, "action", "expected an action term, found 'perm' (at position 0)"),
]


@pytest.mark.parametrize("text, variant, alphabet, parser, message", KEPT)
def test_kept_error_messages(text, variant, alphabet, parser, message):
    for module in (S, R):
        with pytest.raises(dk.ParseError) as e:
            getattr(module, f"parse_{parser}")(text, variant, alphabet)
        assert str(e.value) == message


def test_errors_name_the_real_cause():
    """Where the old parser reported what went wrong after abandoning an
    action-term reading, the cause is named."""
    for text, variant, alphabet, message in (
            ("a ~> b == c", V.DAL_PROP, None,
             "action implication '~>' is not admitted under dal_prop (at position 2)"),
            ("p == a", V.NDAL2, ("a",), "basic action 'p' is not in the declared alphabet (at position 0)"),
            ("perm(a) & b + c", V.DAL, None, "expected '==', found 'end of input' (at position 15)"),
            ("(a + b) | p", V.DAL_PROP, None, "expected '==', found '|' (at position 8)"),
            ("!a + ", V.DAL_PROP, None, "expected an action term, found end of input (at position 5)"),
            ("(a", V.DAL, None, "expected ')', found 'end of input' (at position 2)")):
        with pytest.raises(dk.ParseError) as e:
            dk.parse_formula(text, variant, alphabet)
        assert str(e.value) == message
