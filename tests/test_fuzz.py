"""Fuzzing the command line: random text, deep nesting, deep proof lines and
mutated data files all give an exit code in {0, 1, 2}, never a traceback.

The examples are derandomized, so a run is reproducible; raise
``max_examples`` locally for a longer search."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dalkit as dk
from dalkit.cli import main

DATA = Path(dk.__file__).parent / "data"
SHIPPED = sorted(DATA.glob("*.da[ma]")) + sorted((DATA / "proofs").rglob("*.prf"))
TOKENS = ["a", "b", "c", "p", "0", "1", "(", ")", "+", "*", "~", "~>", "!", "&", "|",
          "->", "<->", "==", "perm(", "forb(", "obl(", "true", "false", "#", ",", "="]
LOGICS = [v.value for v in dk.LogicVariant]
FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as e:   # argparse rejects the command line itself
        return e.code


texts = st.one_of(st.text(max_size=40),
                  st.lists(st.sampled_from(TOKENS), max_size=25).map(" ".join))


@FUZZ
@given(text=texts, logic=st.sampled_from(LOGICS), alphabet=st.sampled_from(["", "a,b", "a,a"]),
       command=st.sampled_from(["parse", "decide", "countermodel", "eval-model", "eval-algebra",
                                "quotient"]))
def test_random_text(text, logic, alphabet, command):
    argv = [command, "--logic", logic] + (["--alphabet", alphabet] if alphabet else [])
    argv += {"eval-model": ["--model", str(DATA / "weekend.dam")],
             "eval-algebra": ["--algebra", str(DATA / "drinking.daa"), "--interp", text],
             "quotient": ["--algebra", str(DATA / "drinking.daa")],
             "countermodel": ["--budget", "300"]}.get(command, [])
    assert exit_code(argv + ["--", text]) in (0, 1, 2)


def _deep(shape, n):
    return {"parens": "(" * n + "perm(a)" + ")" * n,
            "bangs": "!" * n + "perm(a)",
            "compl": "perm(" + "~" * n + "a)",
            "sum": "perm(" + " + ".join(["a"] * n) + ")",
            "impl": " -> ".join(["perm(a)"] * n),
            "iff": " <-> ".join(["perm(a)"] * n)}[shape]


SHAPES = st.sampled_from(["parens", "bangs", "compl", "sum", "impl", "iff"])


@FUZZ
@given(shape=SHAPES, n=st.integers(1, 5000),
       command=st.sampled_from(["parse", "decide", "eval-model"]))
def test_deep_nesting(shape, n, command):
    argv = [command] + (["--model", str(DATA / "weekend.dam")] if command == "eval-model" else [])
    assert exit_code(argv + [_deep(shape, n)]) in (0, 1, 2)


@FUZZ
@given(shape=SHAPES, n=st.integers(1, 5000), logic=st.sampled_from(["dal", "dal_ipl"]),
       axiom=st.sampled_from(["E1", "E2", "A9", "H9", "D1", "mp 1 2", "mp 1 1"]))
def test_deep_proof_lines(scratch, shape, n, logic, axiom):
    phi = _deep(shape, n)
    path = scratch / "deep.prf"
    path.write_text(f"logic: {logic}\n1: (a == b) & ({phi}) -> ({phi})  [E2]\n"
                    f"2: ({phi}) -> ({phi})  [{axiom}]\n3: {phi}  [{axiom}]\n")
    assert exit_code(["check-proof", str(path)]) in (0, 1, 2)


def _mutate(text, data):
    """One to three random edits: delete, duplicate or insert a slice, or
    swap two lines."""
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(text)))
        j = data.draw(st.integers(i, min(len(text), i + 12)))
        edit = data.draw(st.sampled_from(["delete", "duplicate", "insert", "swap"]))
        if edit == "delete":
            text = text[:i] + text[j:]
        elif edit == "duplicate":
            text = text[:j] + text[i:j] + text[j:]
        elif edit == "insert":
            text = text[:i] + data.draw(st.sampled_from(TOKENS + [" ", "\n", "x", "9"])) + text[i:]
        else:
            lines = text.splitlines()
            if len(lines) > 1:
                a, b = (data.draw(st.integers(0, len(lines) - 1)) for _ in "ab")
                lines[a], lines[b] = lines[b], lines[a]
            text = "\n".join(lines) + "\n"
    return text


@FUZZ
@given(path=st.sampled_from(SHIPPED), data=st.data())
def test_mutated_shipped_files(scratch, path, data):
    mutant = scratch / ("mutant" + path.suffix)
    mutant.write_text(_mutate(path.read_text(), data))
    m = str(mutant)
    commands = {
        ".dam": [["eval-model", "--model", m, "perm(a) | forb(b)"],
                 ["convert", "--to-algebra", "--model", m]],
        ".daa": [["check-algebra", "--algebra", m], ["dot", "--algebra", m],
                 ["eval-algebra", "--algebra", m, "perm(a)"],
                 ["convert", "--to-model", "--algebra", m],
                 ["quotient", "--algebra", m, "a == b"]],
        ".prf": [["check-proof", m]],
    }[path.suffix]
    for argv in commands:
        assert exit_code(argv) in (0, 1, 2), argv
