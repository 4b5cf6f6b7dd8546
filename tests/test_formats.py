from pathlib import Path

import numpy as np
import pytest

import dalkit as dk
from dalkit import formats
from dalkit.cli import main
from dalkit.formats import AlgebraFile, read_algebra, read_model, read_proof, \
    write_algebra, write_model, write_proof
from dalkit.syntax import LogicVariant as V

DATA = Path(dk.__file__).parent / "data"

MODEL_TEXT = """\
# comments and blank lines are ignored

elements: e1 e2 e3
permitted: e1
forbidden: e3
val a: e1 e2
val b: e2 e3
"""


def test_read_model():
    M, v = read_model(MODEL_TEXT)
    assert M.elements == ("e1", "e2", "e3")
    assert M.permitted == {"e1"} and M.forbidden == {"e3"}
    assert v.map == {"a": {"e1", "e2"}, "b": {"e2", "e3"}}


def test_model_round_trip():
    M, v = read_model(MODEL_TEXT)
    M2, v2 = read_model(write_model(M, v))
    assert (M.elements, M.permitted, M.forbidden) == (M2.elements, M2.permitted, M2.forbidden)
    assert v.map == v2.map
    assert not any(line.endswith(" ") for line in write_model(M, v).splitlines())


def test_read_model_errors_carry_line_numbers():
    with pytest.raises(dk.FormatError) as e:
        read_model("elements: e1\npermitted = e1\n")
    assert e.value.lineno == 2
    with pytest.raises(dk.FormatError) as e:
        read_model("elements: e1\nflavor: odd\n")
    assert e.value.lineno == 2
    with pytest.raises(dk.FormatError):
        read_model("permitted: e1\n")  # no elements line
    with pytest.raises(dk.FormatError):
        read_model("elements: e1\nval a: e9\n")  # undeclared event


ALG_TEXT = """\
actions: powerset x y
formulas: chain 3
P default = top
P {y} = c1
P {x y} = c1
F default = bot
F {} = top
"""


def test_read_algebra():
    af = read_algebra(ALG_TEXT)
    D = af.algebra
    assert D.action.size == 4 and D.formula.size == 3
    assert af.named_actions.keys() == {"x", "y"}
    x = af.named_actions["x"]
    assert D.P[x] == D.formula.top
    assert D.flavor == "BH" and D.crisp_equality


def test_algebra_round_trip_majority_default():
    af = read_algebra(ALG_TEXT)
    text = write_algebra(af)
    # majority default (ties broken towards the smaller element index)
    assert "P default = c1" in text and "P {} = top" in text
    assert "F default = bot" in text and "F {} = top" in text
    af2 = read_algebra(text)
    assert np.array_equal(af.algebra.P, af2.algebra.P)
    assert np.array_equal(af.algebra.F, af2.algebra.F)
    assert af2.action_spec == "powerset x y"


def test_graded_equality_is_directional():
    base = "actions: chain 2\nformulas: chain 3\n" \
           "P default = top\nP c1 = c1\nF default = top\nF c1 = c1\n"
    # the matrix stores exactly what was written: no auto-symmetrization
    one_way = read_algebra(base + "E c1 c0 = c1\n")
    D = one_way.algebra
    assert D.E(1, 0) == 1 and D.E(0, 1) == D.formula.bot
    assert "E c0 c1" not in write_algebra(one_way)
    both = read_algebra(base + "E c0 c1 = c1\nE c1 c0 = c1\n")
    assert both.algebra.E(0, 1) == 1
    # and write_algebra emits both directions again
    text = write_algebra(both)
    assert "E c0 c1 = c1" in text and "E c1 c0 = c1" in text


def test_read_algebra_error_line_numbers():
    with pytest.raises(dk.FormatError) as e:
        read_algebra("actions: chain 2\nformulas: chain 2\nP default = warm\n")
    assert e.value.lineno == 3
    with pytest.raises(dk.FormatError) as e:
        read_algebra("actions: chain 2\nformulas: chain 2\nP zz = top\n")
    assert e.value.lineno == 3
    with pytest.raises(dk.FormatError) as e:
        read_algebra("actions: spiral 3\nformulas: chain 2\n")
    assert e.value.lineno == 1
    with pytest.raises(dk.FormatError):
        read_algebra("actions: chain 2\nformulas: chain 2\nP c1 = top\n")  # no default


@pytest.mark.parametrize("text, lineno", [("actions:\nformulas: chain 2\n", 1),
                                          ("actions: chain 2\nformulas:   # nothing\n", 2)])
def test_read_algebra_needs_a_constructor(text, lineno, tmp_path, capsys):
    with pytest.raises(dk.FormatError, match="expected a lattice constructor") as e:
        read_algebra(text)
    assert e.value.lineno == lineno
    path = tmp_path / "empty.daa"
    path.write_text(text)
    assert main(["check-algebra", "--algebra", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: line {lineno}: expected")


@pytest.mark.parametrize("spec", ["chain 100000", "chain 257",
                                  "downsets " + " ".join(f"p{i}" for i in range(9)),
                                  "downsets " + " ".join(f"p{i}" for i in range(40)),
                                  "downsets " + " ".join(f"p{i}<p{i + 1}" for i in range(255))])
def test_read_algebra_caps_table_backed_carriers(spec, tmp_path, capsys, monkeypatch):
    closed = []   # 256 points have at least 257 downsets: rejected before any closure
    from_edges = dk.Poset.from_edges.__func__
    monkeypatch.setattr(dk.Poset, "from_edges", classmethod(
        lambda cls, names, edges: closed.append(len(names)) or from_edges(cls, names, edges)))
    text = f"actions: chain 2\nformulas: {spec}\nP default = top\nF default = bot\n"
    with pytest.raises(dk.FormatError, match="more than 256 elements") as e:
        read_algebra(text)
    assert e.value.lineno == 2
    path = tmp_path / "huge.daa"
    path.write_text(text)
    assert main(["check-algebra", "--algebra", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: line 2: ")
    assert max(closed, default=0) < 256


def test_table_cap_is_inclusive(monkeypatch):
    monkeypatch.setattr(formats, "MAX_TABLE_ELEMENTS", 4)
    for spec, size in (("chain 4", 4), ("downsets p q", 4), ("downsets p<q r<s", 9),
                       ("chain 5", 5), ("downsets p q r", 8), ("downsets p<q q<r r<s", 5)):
        text = f"actions: chain 2\nformulas: {spec}\nP default = top\nF default = bot\nF c0 = top\n"
        if size <= 4:
            assert read_algebra(text).algebra.formula.size == size
        else:
            with pytest.raises(dk.FormatError, match="more than 4 elements"):
                read_algebra(text)


def test_carriers_at_the_cap_are_read():
    """The largest table-backed carriers read and build in about a second;
    ``check-algebra`` on them takes seconds (on a 2-core container, ~6 s for
    a ``chain 256`` file and ~13 s with both sorts the downsets of a
    255-point chain), as ``validate`` is cubic in the carrier size."""
    chain = " ".join(f"p{i}<p{i + 1}" for i in range(254))
    for spec, bot in (("chain 256", "c0"), (f"downsets {chain}", "{}")):
        text = f"actions: {spec}\nformulas: chain 2\nP default = top\nF default = bot\nF {bot} = top\n"
        assert read_algebra(text).algebra.action.size == formats.MAX_TABLE_ELEMENTS == 256


def test_downset_count_stops_past_the_limit():
    antichain = dk.Poset.from_edges([f"p{i}" for i in range(11)], [])
    assert len(antichain.downset_masks()) == 2048
    assert len(antichain.downset_masks(100)) == 128   # doubles past 100 and stops
    fence = dk.Poset.from_edges("abcd", [("a", "b"), ("c", "b"), ("c", "d")])
    assert fence.downset_masks() == fence.downset_masks(10) == sorted(
        m for m in range(16)
        if all(m >> fence.point_names.index(lo) & 1 or not m >> fence.point_names.index(hi) & 1
               for lo, hi in (("a", "b"), ("c", "b"), ("c", "d"))))


def test_read_algebra_condition_failures_surface():
    # P missing top at the bottom element violates the P-and-F law
    bad = ("actions: chain 2\nformulas: chain 2\n"
           "P default = bot\nF default = bot\n")
    with pytest.raises(dk.ConditionError):
        read_algebra(bad)


def test_downsets_constructor():
    af = read_algebra("actions: downsets p<q\nformulas: chain 2\n"
                      "P default = top\nF default = bot\nF {} = top\n")
    assert af.algebra.action.size == 3  # chain of downsets {} < {p} < {p,q}
    assert set(af.named_actions) == {"p", "q"}


def test_shipped_algebra_files_parse():
    for name in ("drinking.daa", "license.daa", "closure.daa"):
        af = read_algebra((DATA / name).read_text())
        assert af.algebra.action.size >= 2
    closure = read_algebra((DATA / "closure.daa").read_text())
    assert not closure.algebra.crisp_equality


def test_proof_round_trip():
    p = read_proof((DATA / "proofs" / "d1_perm_union.prf").read_text())
    p2 = read_proof(write_proof(p))
    assert p == p2
    assert dk.check_proof(p2).ok


def test_proof_format_errors():
    with pytest.raises(dk.FormatError) as e:
        read_proof("1: perm(a)  [D1]\n")
    assert "logic" in str(e.value)
    with pytest.raises(dk.FormatError) as e:
        read_proof("logic: dal\n2: perm(a)  [D1]\n")
    assert "expected line number 1" in str(e.value)
    with pytest.raises(dk.FormatError):
        read_proof("logic: dal\n1: perm(a)\n")  # justification missing
    with pytest.raises(dk.FormatError):
        read_proof("logic: zen\n1: perm(a)  [D1]\n")
    with pytest.raises(dk.FormatError) as e:
        read_proof("logic: dal\n1: perm(a +)  [D1]\n")
    assert e.value.lineno == 2


def test_proof_alphabet_line():
    text = "logic: ndal3\nalphabet: a b\n1: a + b == 1  [NDAL3]\n"
    p = read_proof(text)
    assert p.alphabet == ("a", "b")
    assert dk.check_proof(p).ok
    assert "alphabet: a b" in write_proof(p)
