import re
from pathlib import Path

import pytest

import dalkit as dk
import dalkit.syntax as S
from dalkit.proof import Axiom, MP, Proof, ProofResult, axiom_table, check_proof, match_schema
from dalkit.syntax import LogicVariant as V

DATA = Path(dk.__file__).parent / "data"

TABLE_SIZES = {
    V.DAL: 33, V.NDAL1: 34, V.NDAL2: 35, V.NDAL3: 36, V.NDAL4: 37,
    V.NDAL5: 40, V.DAL_PROP: 33, V.DAL_IPL: 31, V.DAL_IAL: 35, V.DAL_INT: 33,
}


def test_axiom_table_sizes_frozen():
    alpha = ("a", "b")
    for variant, n in TABLE_SIZES.items():
        table = axiom_table(variant, alpha if variant.requires_alphabet else None)
        assert len(table) == n, variant
        # NDAL4 contributes one closed formula per minterm, all under one id
        dups = 3 if variant in (V.NDAL4, V.NDAL5) else 0
        assert len({s.id for s in table}) == len(table) - dups


def test_alphabet_required_for_minterm_variants():
    with pytest.raises(ValueError):
        axiom_table(V.NDAL4)
    with pytest.raises(ValueError):
        axiom_table(V.NDAL5, None)


def _schema(variant, sid):
    return [s for s in axiom_table(variant, ("a", "b")) if s.id == sid]


def test_match_schema_positive():
    cases = [
        (V.DAL, "D1", "perm((a*b) + ~c) <-> perm(a*b) & perm(~c)"),
        (V.DAL, "A7", "(a+b) * ~(a+b) == 0"),
        (V.DAL, "LEM'", "(perm(a) | !perm(a)) <-> true"),
        (V.DAL, "D3", "(perm(~a) & forb(~a)) <-> (~a == 0)"),
        (V.DAL_IPL, "H9", "perm(a) -> (forb(b) -> perm(a))"),
        (V.DAL_IPL, "H1", "perm(a) -> (perm(a) | forb(b))"),
        (V.DAL_IAL, "HA1", "a * (a ~> b) == a * b"),
    ]
    for variant, sid, text in cases:
        phi = dk.parse_formula(text, variant)
        assert any(match_schema(phi, s)[0] for s in _schema(variant, sid)), (sid, text)


def test_match_schema_negative():
    cases = [
        (V.DAL, "D1", "perm(a + b) <-> perm(a) & perm(c)"),  # mismatched binding
        (V.DAL, "A7", "a * ~b == 0"),
        (V.DAL, "LEM'", "perm(a) | !perm(a)"),               # missing the <-> true
        (V.DAL, "D2", "forb(a + b) <-> forb(a) | forb(b)"),  # wrong connective
    ]
    for variant, sid, text in cases:
        phi = dk.parse_formula(text, variant)
        assert not any(match_schema(phi, s)[0] for s in _schema(variant, sid)), (sid, text)


def test_match_e2_requires_congruent_sides():
    good = dk.parse_formula("(a == b) & perm(a * c) -> perm(b * c)")
    partial = dk.parse_formula("(a == b) & perm(a * a) -> perm(a * b)")
    bad = dk.parse_formula("(a == b) & perm(a * c) -> perm(c * b)")
    (s,) = _schema(V.DAL, "E2")
    assert match_schema(good, s)[0]
    assert match_schema(partial, s)[0]  # replacing only some occurrences is fine
    assert not match_schema(bad, s)[0]


def test_ndal4_minterm_instances():
    # one closed axiom per minterm over the alphabet; all four share the id
    schemas = _schema(V.NDAL4, "NDAL4")
    assert len(schemas) == 4
    phi = dk.parse_formula("perm(a * ~b) | forb(a * ~b)")
    assert any(match_schema(phi, s)[0] for s in schemas)
    # the same minterm with reordered factors is a different closed formula
    phi2 = dk.parse_formula("perm(~b * a) | forb(~b * a)")
    assert not any(match_schema(phi2, s)[0] for s in schemas)


def test_ndal1_basic_only():
    (s,) = [x for x in axiom_table(V.NDAL1) if x.id == "NDAL1"]
    assert match_schema(dk.parse_formula("forb(b) | perm(b)"), s)[0]
    assert not match_schema(dk.parse_formula("forb(a*b) | perm(a*b)"), s)[0]


def _axline(text, sid, variant=V.DAL):
    return (dk.parse_formula(text, variant), Axiom(sid))


def test_check_proof_mp_contract():
    phi = dk.parse_formula
    # classical mp: major must be literally !minor | conclusion
    good = Proof(V.DAL, (
        _axline("perm(a+b) <-> perm(a) & perm(b)", "D1"),
        (phi("!(perm(a+b) <-> perm(a) & perm(b)) | (perm(a+b) <-> perm(a) & perm(b))"),
         Axiom("LEM'")),
    ))
    # line 2 is not an LEM' instance; expect failure there, not at mp
    assert check_proof(good).line == 2

    p = Proof(V.DAL, (
        _axline("perm(a+b) <-> perm(a) & perm(b)", "D1"),
        _axline("perm(a+b) <-> perm(a) & perm(b)", "D1"),
        (phi("perm(a+b) <-> perm(a) & perm(b)"), MP(1, 2)),
    ))
    res = check_proof(p)
    assert not res and res.line == 3 and "not" in res.reason


def test_impl_rows_are_the_parsers_per_variant():
    """TermSpace.impl(primitive, x, y), which modus ponens checks against,
    is the row the parser builds for x -> y: !x | y in the classical
    variants, the primitive Impl under DAL_IPL and DAL_INT."""
    space = S.TermSpace()
    x, y = (space.intern(dk.parse_formula(t)) for t in ("perm(a)", "forb(a * b)"))
    for text in ("!perm(a) | forb(a * b)", "perm(a) -> forb(a * b)"):
        assert space.impl(False, x, y) == space.intern(dk.parse_formula(text, V.DAL))
    for variant in (V.DAL_IPL, V.DAL_INT):
        row = space.intern(dk.parse_formula("perm(a) -> forb(a * b)", variant))
        assert space.impl(True, x, y) == row != space.impl(False, x, y)
        assert space.rows[row] == (S.Impl, None, (x, y))


@pytest.mark.parametrize("variant", [V.DAL_IPL, V.DAL_INT])
def test_check_proof_mp_needs_the_variants_implication(variant):
    """Under a primitive ->, a valid line !x | y is no major premise for x
    and y, while the valid line x -> y is."""
    def proof(major, axiom):
        lines = [("a == a", "E1"), ("b == b", "E1"), (f"b == b -> {major}", axiom),
                 (major, MP(2, 3)), ("b == b", MP(1, 4))]
        return Proof(variant, tuple((dk.parse_formula(t, variant), j if isinstance(j, MP) else Axiom(j))
                                    for t, j in lines))

    assert check_proof(proof("(a == a -> b == b)", "H9"))
    assert check_proof(proof("!(a == a) | b == b", "H2")) == \
        ProofResult(False, 5, "line 4 is not (line 1) -> (line 5)")


def test_check_proof_mp_forward_reference():
    phi = dk.parse_formula("a + ~a == 1")
    p = Proof(V.DAL, ((phi, MP(1, 2)),))
    res = check_proof(p)
    assert not res and res.line == 1 and "earlier" in res.reason


def test_check_proof_unknown_axiom_per_variant():
    p = Proof(V.DAL_IAL, (_axline("(a + ~a) == 1", "LEM", V.DAL_IAL),))
    res = check_proof(p)
    assert not res and "unknown axiom" in res.reason


def test_check_proof_variant_override():
    p = Proof(V.DAL, (_axline("(a + ~a) == 1", "LEM"),))
    assert check_proof(p)
    assert not check_proof(p, variant=V.DAL_IAL)


EXPECT = re.compile(r"#\s*expect:\s*(.+)")


def good_proofs():
    return sorted((DATA / "proofs").glob("*.prf"))


def bad_proofs():
    return sorted((DATA / "proofs" / "bad").glob("*.prf"))


@pytest.mark.parametrize("path", good_proofs(), ids=lambda p: p.stem)
def test_shipped_proofs_check(path):
    res = check_proof(dk.read_proof(path.read_text()))
    assert res.ok, (res.line, res.reason)


@pytest.mark.parametrize("path", bad_proofs(), ids=lambda p: p.stem)
def test_shipped_bad_proofs_fail_where_expected(path):
    text = path.read_text()
    spec = EXPECT.search(text).group(1).strip()
    if spec == "error":
        with pytest.raises(dk.FormatError):
            dk.read_proof(text)
        return
    m = re.match(r"line=(\d+)(?:\s+reason=(.*))?", spec)
    res = check_proof(dk.read_proof(text))
    assert not res.ok
    assert res.line == int(m.group(1)), res
    if m.group(2):
        assert m.group(2).strip() in res.reason, res
