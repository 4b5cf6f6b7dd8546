"""Start-up surface: what `import dalkit` and the CLI load, and what they export.

Every subcommand but `countermodel` must run without numpy.  The
subprocess tests run `python -S` with only `src/` on the path, so numpy
cannot be imported there.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dalkit as dk
from dalkit import algebra, syntax
from dalkit.cli import main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROOFS = sorted((SRC / "dalkit" / "data" / "proofs").glob("*.prf")) + \
    sorted((SRC / "dalkit" / "data" / "proofs" / "bad").glob("*.prf"))
EXPECT = re.compile(r"#\s*expect:\s*(.+)")
DATA = SRC / "dalkit" / "data"
ALGEBRAS = sorted(DATA.glob("*.daa"))

SUBMODULES = ["algebra", "decide", "duality", "formats", "lattice", "models",
              "proof", "syntax"]
# the package's public names, pinned: 104 exports plus the 8 submodules
ALL = sorted(SUBMODULES + """
    AImpl AVar AlgebraFile And AtomAssignment Axiom AxiomSchema Basic
    BooleanAlgebra Bot BudgetExceeded Compl ConditionError Countermodel
    DeonticAlgebra DeonticModel Eq FVar Forb FormatError HeytingAlgebra Iff
    Impl Inter Interpretation Lattice LogicVariant MP Not One Or ParseError Perm
    Poset PowersetAlgebra Proof ProofResult Prop RoundTripReport
    SetFamilyAlgebra Top Union Unknown Valid Valuation Zero act_eq_iff_form_eq
    all_ideals all_posets axiom_table build chain check_ndal check_proof
    congruence_closure countermodel_heyting decide_classical desugar
    downset_algebra enumerate_pf_maps evaluate evaluate_batch extend
    extend_by_irreducibles fence_scenario_search find_isomorphism free_boolean
    generated_sublattice heyting_catalog is_boolean is_congruence is_ideal
    is_substitution_instance match_schema metavariables parse_action
    parse_formula powerset_algebra preimage_ideals principal_ideal print_action
    print_formula print_term quotient read_algebra read_model read_proof
    round_trip_report sat satisfies stoneify subalgebra_check sublattice_on
    symbols taut_oracle to_algebra to_model two valid_formula_in valid_in
    validate write_algebra write_model write_proof""".split())


def run_python(*args, bare=False):
    """A fresh interpreter; `bare` drops site-packages (and with it numpy)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, *(["-S"] if bare else []), *args]
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)


def test_numpy_is_unavailable_without_site_packages():
    res = run_python("-c", "import numpy", bare=True)
    assert res.returncode != 0 and "numpy" in res.stderr


def test_proof_modules_import_without_numpy():
    res = run_python("-c", """if True:
        import sys
        import dalkit, dalkit.syntax, dalkit.proof, dalkit.formats
        p = dalkit.formats.read_proof("logic: dal\\n1: a == a  [E1]\\n")
        assert dalkit.proof.check_proof(p).ok
        dalkit.formats.write_proof(p)
        dalkit.parse_formula("perm(a)")
        assert "numpy" not in sys.modules, sorted(sys.modules)
        """, bare=True)
    assert res.returncode == 0, res.stderr


def test_models_import_without_numpy():
    res = run_python("-c", """if True:
        import sys
        import dalkit.models
        assert "numpy" not in sys.modules, sorted(sys.modules)
        """, bare=True)
    assert res.returncode == 0, res.stderr


def test_decide_and_eval_model_without_numpy():
    res = run_python("-m", "dalkit.cli", "decide", "perm(a + b) <-> perm(a) & perm(b)",
                     bare=True)
    assert (res.returncode, res.stdout, res.stderr) == (0, "valid\n", "")
    res = run_python("-m", "dalkit.cli", "decide", "--logic", "ndal2", "--alphabet", "a,b",
                     "perm(a) -> perm(b)", bare=True)
    assert res.returncode == 1, res.stderr
    want = dk.decide_classical(dk.parse_formula("perm(a) -> perm(b)", dk.LogicVariant.NDAL2),
                               dk.LogicVariant.NDAL2, ("a", "b"))
    model = "".join(line[2:] + "\n" for line in res.stdout.splitlines()[1:])
    assert res.stdout.startswith("countermodel:\n")
    assert dk.read_model(model) == (want.model, want.valuation)
    weekend = str(SRC / "dalkit" / "data" / "weekend.dam")
    for text, code, out in (("perm(a * ~b)", 0, "true\n"), ("perm(a)", 1, "false\n")):
        res = run_python("-m", "dalkit.cli", "eval-model", "--model", weekend, text, bare=True)
        assert (res.returncode, res.stdout, res.stderr) == (code, out, ""), text


def _algebra_commands():
    """(id, argv) of the subcommands that read or build algebras."""
    drinking, closure = str(DATA / "drinking.daa"), str(DATA / "closure.daa")
    ipl = (DATA / "theorems_ipl.txt").read_text().splitlines()[-1]
    out = []
    for path in ALGEBRAS:
        out += [(f"check-algebra-{path.stem}", ["check-algebra", "--algebra", str(path)]),
                (f"dot-{path.stem}", ["dot", "--algebra", str(path)])]
    return out + [
        ("eval-algebra-dal", ["eval-algebra", "--algebra", drinking,
                              "--interp", "c=a*~b", "perm(a) -> perm(c) | forb(b)"]),
        ("eval-algebra-dal_ipl", ["eval-algebra", "--algebra", closure, "--logic", "dal_ipl",
                                  "--interp", "a=c1,b=c0", ipl]),
        ("quotient", ["quotient", "--algebra", drinking, "a * b == 0", "~a == b"]),
        ("convert-to-algebra", ["convert", "--to-algebra", "--model", str(DATA / "weekend.dam")]),
        ("convert-to-model", ["convert", "--to-model", "--algebra", drinking]),
        ("catalog", ["catalog", "--max-points", "3"]),
    ]


@pytest.mark.parametrize("argv", [argv for _, argv in _algebra_commands()],
                         ids=[name for name, _ in _algebra_commands()])
def test_algebra_commands_without_numpy(argv):
    full = run_python("-m", "dalkit.cli", *argv)
    assert full.returncode in (0, 1) and full.stdout and not full.stderr, full.stderr
    bare = run_python("-m", "dalkit.cli", *argv, bare=True)
    assert (bare.returncode, bare.stdout, bare.stderr) == (full.returncode, full.stdout, "")


def test_only_countermodel_loads_numpy():
    """With numpy importable, one interpreter runs every other subcommand
    without loading it, and countermodel then loads it.  No subcommand
    loads dataclasses."""
    argvs = [argv for _, argv in _algebra_commands()] + [
        ["parse", "perm(a + b)"], ["decide", "perm(a + b) -> perm(a)"],
        ["eval-model", "--model", str(DATA / "weekend.dam"), "perm(a)"],
        ["check-proof", str(PROOFS[0])]]
    res = run_python("-c", f"""if True:
        import contextlib, io, sys
        from dalkit.cli import main
        for argv in {argvs!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) in (0, 1), argv
            assert "numpy" not in sys.modules and "dataclasses" not in sys.modules, argv
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["countermodel", "--logic", "dal_ipl", "perm(a) | !perm(a)"]) == 1
        assert "numpy" in sys.modules and "dataclasses" not in sys.modules
        """)
    assert res.returncode == 0, res.stderr


def test_submodules_load_neither_dataclasses_nor_inspect():
    """Every submodule but decide, which imports numpy, imports without
    dataclasses, inspect or typing; the records are built on syntax.Record,
    and annotations are never evaluated.  No module, decide included,
    imports typing itself."""
    modules = [f"dalkit.{name}" for name in SUBMODULES if name != "decide"] + ["dalkit.cli"]
    res = run_python("-c", f"""if True:
        import importlib, sys
        for name in {modules!r}:
            importlib.import_module(name)
        loaded = sorted({{"dataclasses", "inspect", "typing"}} & set(sys.modules))
        assert not loaded, loaded
        """, bare=True)
    assert res.returncode == 0, res.stderr
    for path in sorted((SRC / "dalkit").glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        imported = {a.name for n in nodes if isinstance(n, ast.Import) for a in n.names} | \
            {n.module for n in nodes if isinstance(n, ast.ImportFrom) and not n.level}
        assert "typing" not in imported, path.name


def test_algebra_files_read_build_and_validate_without_loading_numpy():
    """With numpy importable, reading, building, validating and writing the
    shipped algebras still leaves it unloaded."""
    res = run_python("-c", f"""if True:
        import sys
        import dalkit as dk
        for path in {[str(p) for p in ALGEBRAS]!r}:
            af = dk.read_algebra(open(path).read())
            D = af.algebra
            assert dk.validate(D.action) == [] and dk.validate(D.formula) == []
            E = None if D.crisp_equality else [[D.E(a, b) for b in range(D.action.size)]
                                               for a in range(D.action.size)]
            dk.build(D.action, D.formula, D.P, D.F, E)
            assert dk.read_algebra(dk.write_algebra(af)).algebra.P == D.P
        assert "numpy" not in sys.modules, sorted(sys.modules)
        """)
    assert res.returncode == 0, res.stderr


def expected_check(path):
    """Exit code and first stdout line of `check-proof` on a shipped proof."""
    m = EXPECT.search(path.read_text())
    if m is None:
        p = dk.read_proof(path.read_text())
        return 0, f"ok: {len(p.lines)} lines ({p.variant.value})"
    spec = m.group(1).strip()
    if spec == "error":
        return 2, None
    line, reason = re.match(r"line=(\d+)(?:\s+reason=(.*))?", spec).groups()
    return 1, (f"line {line}:", (reason or "").strip())


@pytest.mark.parametrize("path", PROOFS, ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_cli_without_numpy(path):
    code, first = expected_check(path)
    res = run_python("-m", "dalkit.cli", "check-proof", str(path), bare=True)
    assert res.returncode == code, res.stderr
    lines = res.stdout.splitlines()
    if code == 0:
        assert lines[0] == first
    elif code == 1:
        assert lines[0].startswith(first[0]) and first[1] in lines[0], lines
    else:
        assert not lines and res.stderr.startswith("error: line "), res.stderr
    if code == 2:
        return
    # parse echoes the proof's first formula in canonical form, under its logic
    p = dk.read_proof(path.read_text())
    text = dk.print_formula(p.lines[0][0], p.variant)
    alphabet = ["--alphabet", ",".join(p.alphabet)] if p.alphabet else []
    res = run_python("-m", "dalkit.cli", "parse", "--logic", p.variant.value,
                     *alphabet, text, bare=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == text + "\n"


def test_all_names_are_pinned():
    assert sorted(dk.__all__) == ALL and len(ALL) == 112


def test_every_name_resolves_in_a_fresh_interpreter():
    res = run_python("-c", f"""if True:
        import dalkit
        for name in {SUBMODULES!r}:
            assert getattr(dalkit, name).__name__ == "dalkit." + name, name
        for name in {ALL!r}:
            assert getattr(dalkit, name) is not None, name
        assert "nonsense" not in dir(dalkit)
        try:
            dalkit.nonsense
        except AttributeError:
            pass
        else:
            raise AssertionError("dalkit.nonsense resolved")
        """)
    assert res.returncode == 0, res.stderr


def test_star_import_in_a_fresh_interpreter():
    res = run_python("-c", f"""if True:
        from dalkit import *
        names = dict(globals())
        missing = [n for n in {ALL!r} if n not in names]
        assert not missing, missing
        """)
    assert res.returncode == 0, res.stderr


def test_moved_exceptions_are_one_class():
    for name in ("BudgetExceeded", "ConditionError", "ParseError"):
        assert getattr(dk, name) is getattr(syntax, name)
    assert dk.BudgetExceeded is algebra.BudgetExceeded
    assert dk.ConditionError is algebra.ConditionError
    assert issubclass(dk.ConditionError, ValueError)
    assert issubclass(dk.BudgetExceeded, RuntimeError)


def test_cli_maps_moved_exceptions_to_exit_2(tmp_path, capsys):
    # BudgetExceeded from the classical decider
    assert main(["decide", "--budget", "10", "perm(a*b) -> perm(a)"]) == 2
    assert "budget" in capsys.readouterr().err
    # ConditionError from building an algebra whose P and F overlap
    bad = tmp_path / "bad.daa"
    bad.write_text("actions: powerset a\nformulas: chain 2\nP default = top\n"
                   "F default = top\n")
    assert main(["eval-algebra", "--algebra", str(bad), "perm(a)"]) == 2
    assert capsys.readouterr().err.startswith("error: condition ")
    # FormatError from the proof reader
    broken = tmp_path / "broken.prf"
    broken.write_text("1: a == a  [E1]\n")
    assert main(["check-proof", str(broken)]) == 2
    assert capsys.readouterr().err.startswith("error: line 1: ")
