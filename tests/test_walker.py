"""The one term walker: compile_term tables, op-set coverage, deep input."""

import re

import pytest

import dalkit as dk
import dalkit.algebra as AL
import dalkit.models as MD
import dalkit.syntax as S
from dalkit.decide import Countermodel, decide_classical
from dalkit.syntax import LogicVariant as V

TERM_CLASSES = S.ActionTerm.__subclasses__() + S.FormulaTerm.__subclasses__()


def test_every_term_class_has_an_entry_in_every_op_set():
    assert len(TERM_CLASSES) == 20
    for ops in (MD._MASK_OPS, AL._TABLE_OPS, S._PRINT):
        assert set(ops) == set(TERM_CLASSES)


def test_compile_term_shares_equal_subterms():
    # the two halves of a desugared '<->' reuse each other's rows
    table = S.compile_term(dk.parse_formula("perm(a + b) <-> perm(a) & perm(b)"))
    assert len(table) == 12
    assert len({row[:3] for row in table}) == len(table)
    # equal subterms built as separate objects share a row too
    a1, a2 = dk.Basic("a"), dk.Basic("a")
    assert len(S.compile_term(dk.Union(dk.Inter(a1, dk.Zero()), dk.Inter(a2, dk.Zero())))) == 4


def test_compile_term_rows_are_post_order_and_each_dies_once():
    phi = dk.parse_formula("(a == b) & !perm(a * ~b) | forb(~b) -> perm(a)")
    table = S.compile_term(phi)
    deaths = [k for _, _, _, dead in table for k in dead]
    assert sorted(deaths) == list(range(len(table) - 1))   # all but the root, once
    for i, (_, _, kids, dead) in enumerate(table):
        assert all(k < i for k in kids) and set(dead) <= set(kids)


def test_compile_term_keeps_its_table_on_the_term():
    phi = dk.parse_formula("perm(a + b) <-> perm(a) & perm(b)")
    assert "_table" in vars(phi)   # the parser's own rows
    assert S.compile_term(phi) is S.compile_term(phi)
    built = dk.Or(dk.Perm(dk.Basic("a")), dk.Not(dk.Perm(dk.Basic("a"))))
    assert S.compile_term(built) is S.compile_term(built)
    # a kept table is no child: the term interns as an equal term without one
    bare = S.desugar(phi, V.DAL)
    assert "_table" not in vars(bare) and bare == phi   # == keeps bare's table too
    space = S.TermSpace()
    assert space.intern(phi) == space.intern(bare) == len(S.compile_term(phi)) - 1
    assert tuple(row[:3] for row in S.compile_term(phi)) == tuple(space.rows)


def test_compile_term_rejects_non_terms():
    with pytest.raises(TypeError):
        S.compile_term(dk.Perm("a"))


DEEP = 10_000


@pytest.mark.parametrize("text", ["perm(" + " + ".join(["a"] * DEEP) + ")",
                                  "!" * DEEP + "perm(a)"], ids=["sum", "bangs"])
def test_deep_terms_walk_without_recursion(text):
    """Both texts mean perm(a), at 10^4 occurrences of '+' or '!'."""
    phi = dk.parse_formula(text)
    assert dk.print_formula(phi) == text
    assert dk.symbols(phi) == S.SymbolSet(("a",), ())
    assert isinstance(decide_classical(phi), Countermodel)
    M = dk.DeonticModel(["e1", "e2"], permitted={"e1"})
    assert dk.sat(M, dk.Valuation({"a": {"e1"}}), phi) is True
    assert dk.sat(M, dk.Valuation({"a": {"e1", "e2"}}), phi) is False
    assert dk.taut_oracle(phi) is False
    D = dk.build(dk.two(), dk.two(), [1, 0], [1, 1])   # only 0 is permitted
    assert dk.evaluate(D, dk.Interpretation(act={"a": 0}), phi) == D.formula.top
    assert dk.evaluate(D, dk.Interpretation(act={"a": 1}), phi) == D.formula.bot


def test_deep_parentheses_parse():
    """Open parentheses wait on the parser's operator stack, not the call stack."""
    assert dk.parse_formula("(" * 300 + "perm(a)" + ")" * 300) == dk.Perm(dk.Basic("a"))
    n = 10 * DEEP
    assert dk.parse_formula("(" * n + "perm(a)" + ")" * n) == dk.Perm(dk.Basic("a"))
    assert dk.parse_action("(" * n + "a" + ")" * n, V.DAL_IAL) == dk.Basic("a")
    with pytest.raises(dk.ParseError, match=re.escape(f"found 'end of input' (at position {2 * n + 6})")):
        dk.parse_formula("(" * n + "perm(a)" + ")" * (n - 1))
    # right-associative chains are read with loops
    chain = dk.parse_action(" ~> ".join(["a"] * DEEP), V.DAL_IAL)
    assert dk.print_action(chain).count("~>") == DEEP - 1
