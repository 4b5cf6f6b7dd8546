from pathlib import Path

import pytest

import dalkit as dk
from dalkit.cli import main

DATA = Path(dk.__file__).parent / "data"

MODEL = """\
elements: e1 e2 e3
permitted: e1
forbidden: e3
val a: e1 e2
val b: e2 e3
"""


@pytest.fixture
def model_file(tmp_path):
    p = tmp_path / "m.dam"
    p.write_text(MODEL)
    return str(p)


def test_parse_echoes_canonical_form(capsys):
    assert main(["parse", "perm(a+b) & !forb(~a)"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "perm(a + b) & !forb(~a)"
    assert main(["parse", "perm(a) -> forb(b)"]) == 0
    # classical variants desugar the arrow at parse time
    assert capsys.readouterr().out.strip() == "!perm(a) | forb(b)"


def test_parse_action_term(capsys):
    assert main(["parse", "a * (b + 0)"]) == 0
    assert capsys.readouterr().out.strip() == "a * (b + 0)"


def test_parse_error_is_exit_2(capsys):
    assert main(["parse", "perm(a +"]) == 2
    assert "error:" in capsys.readouterr().err


def test_parse_variant_gating(capsys):
    assert main(["parse", "--logic", "dal", "a ~> b"]) == 2
    assert main(["parse", "--logic", "dal_ial", "a ~> b"]) == 0
    capsys.readouterr()
    assert main(["parse", "--logic", "zen", "perm(a)"]) == 2


def test_eval_model(model_file, capsys):
    assert main(["eval-model", "--model", model_file, "perm(a * ~b)"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["eval-model", "--model", model_file, "perm(a)"]) == 1
    assert capsys.readouterr().out.strip() == "false"


def test_eval_model_with_props(model_file, capsys):
    rc = main(["eval-model", "--logic", "dal_prop", "--model", model_file,
               "--props", "rain=true", "rain -> forb(~a)"])
    assert rc == 0 and capsys.readouterr().out.strip() == "true"


def test_eval_model_missing_file(capsys):
    assert main(["eval-model", "--model", "/nonexistent.dam", "perm(a)"]) == 2


def test_eval_algebra(capsys):
    path = str(DATA / "drinking.daa")
    rc = main(["eval-algebra", "--algebra", path,
               "--interp", "parking=~b", "perm(parking)"])
    assert rc == 0 and capsys.readouterr().out.strip() == "top"
    rc = main(["eval-algebra", "--algebra", path,
               "--interp", "drinking=a", "perm(drinking)"])
    assert rc == 1 and capsys.readouterr().out.strip() == "bot"


def test_eval_algebra_term_valued_interp(capsys):
    path = str(DATA / "drinking.daa")
    rc = main(["eval-algebra", "--algebra", path,
               "--interp", "x=a*~b", "perm(x)"])
    assert rc in (0, 1)
    assert capsys.readouterr().out.strip()


def test_eval_algebra_file_generators_usable_without_interp(capsys):
    # the file's own named generators bind automatically; --interp extends
    path = str(DATA / "drinking.daa")
    rc = main(["eval-algebra", "--algebra", path, "perm(a)"])
    assert rc == 1 and capsys.readouterr().out.strip() == "bot"
    rc = main(["eval-algebra", "--algebra", path,
               "--interp", "parking=~b", "perm(b + parking)"])
    assert rc in (0, 1) and capsys.readouterr().out.strip()


def test_eval_algebra_unbound_action_is_clean_error(capsys):
    # chain files name no generators, so a letter can't resolve
    path = str(DATA / "closure.daa")
    rc = main(["eval-algebra", "--logic", "dal_prop", "--algebra", path,
               "perm(zz)"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "zz" in err


def test_decide_valid(capsys):
    assert main(["decide", "perm(a+b) <-> perm(a) & perm(b)"]) == 0
    assert capsys.readouterr().out.strip() == "valid"


def test_decide_countermodel_round_trips(tmp_path, capsys):
    assert main(["decide", "forb(a) | perm(a)"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("countermodel:")
    body = "\n".join(line[2:] for line in out.splitlines()[1:])
    p = tmp_path / "cm.dam"
    p.write_text(body + "\n")
    # feeding the countermodel back falsifies the formula
    assert main(["eval-model", "--model", str(p), "forb(a) | perm(a)"]) == 1


def test_decide_respects_variant(capsys):
    assert main(["decide", "--logic", "ndal1", "forb(a) | perm(a)"]) == 0
    capsys.readouterr()
    assert main(["decide", "--logic", "ndal3", "--alphabet", "a,b",
                 "a + b == 1"]) == 0
    capsys.readouterr()
    assert main(["decide", "--logic", "ndal3", "a + b == 1"]) == 2


def test_decide_budget(capsys):
    assert main(["decide", "--budget", "10", "perm(a*b) -> perm(a)"]) == 2
    assert "budget" in capsys.readouterr().err


def test_countermodel_refutes(capsys):
    rc = main(["countermodel", "--logic", "dal_ipl", "perm(a) | !perm(a)"])
    assert rc == 1
    assert capsys.readouterr().out.startswith("countermodel:")


def test_countermodel_unknown_is_success_exit(capsys):
    rc = main(["countermodel", "--logic", "dal_ipl",
               "perm(a+b) <-> perm(a) & perm(b)"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("unknown:")


def test_countermodel_budget(capsys):
    theorem = "perm(a+b) <-> perm(a) & perm(b)"
    assert main(["countermodel", "--logic", "dal_ipl", "--budget", "-1", theorem]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert main(["countermodel", "--logic", "dal_ipl", "--budget", "0", theorem]) == 0
    assert capsys.readouterr().out == "unknown: candidate budget of 0 algebras exhausted\n"


def test_countermodel_rejects_classical_logic(capsys):
    assert main(["countermodel", "--logic", "dal", "perm(a)"]) == 2


def test_check_algebra(tmp_path, capsys):
    assert main(["check-algebra", "--algebra", str(DATA / "closure.daa")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok:") and "graded" in out
    bad = tmp_path / "bad.daa"
    bad.write_text("actions: chain 2\nformulas: chain 2\n"
                   "P default = bot\nF default = bot\n")
    assert main(["check-algebra", "--algebra", str(bad)]) == 1
    assert "invalid" in capsys.readouterr().out


def test_check_proof(capsys):
    good = str(DATA / "proofs" / "d1_perm_union.prf")
    assert main(["check-proof", good]) == 0
    assert capsys.readouterr().out.startswith("ok:")
    bad = str(DATA / "proofs" / "bad" / "wrong_binding.prf")
    assert main(["check-proof", bad]) == 1
    assert capsys.readouterr().out.startswith("line 1:")


def test_quotient(capsys):
    rc = main(["quotient", "--algebra", str(DATA / "drinking.daa"), "a == 0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("quotient size: 4")


def test_quotient_accepts_interp_terms(model_file, tmp_path, capsys):
    # convert a model, then quotient the powerset by a term equation
    assert main(["convert", "--to-algebra", "--model", model_file]) == 0
    alg = tmp_path / "m.daa"
    alg.write_text(capsys.readouterr().out)
    rc = main(["quotient", "--algebra", str(alg),
               "--interp", "a=e1+e2,b=e2+e3", "a * b == 0"])
    assert rc == 0
    out = capsys.readouterr().out
    # collapsing the shared event leaves the powerset of the other two
    assert out.startswith("quotient size: 4")


def test_convert_to_algebra_and_back(model_file, tmp_path, capsys):
    assert main(["convert", "--to-algebra", "--model", model_file]) == 0
    text = capsys.readouterr().out
    assert text.startswith("actions: powerset")
    interp = [l for l in text.splitlines() if l.startswith("# interp")]
    assert len(interp) == 2
    alg = tmp_path / "m.daa"
    alg.write_text(text)
    # interpret the original actions as terms over the powerset's atoms
    assert main(["convert", "--to-model", "--algebra", str(alg),
                 "--interp", "a=e1+e2,b=e2+e3"]) == 0
    back = capsys.readouterr().out
    M, v = dk.read_model(back)
    assert M.permitted == {"e1"} and M.forbidden == {"e3"}
    assert v.map == {"a": {"e1", "e2"}, "b": {"e2", "e3"}}


def test_convert_usage_errors(capsys):
    assert main(["convert", "--to-algebra"]) == 2
    assert main(["convert", "--to-model"]) == 2
    assert main(["convert"]) == 2


def test_catalog(capsys):
    assert main(["catalog", "--max-points", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert [int(l.split("size=")[1].split()[0]) for l in lines] == [2, 3, 4]


def test_dot(capsys):
    assert main(["dot", "--algebra", str(DATA / "drinking.daa")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph lattice {")
    assert "palegreen" in out and "lightcoral" in out and "khaki" in out
