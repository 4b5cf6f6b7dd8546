"""Proof checking on hash-consed rows: agreement with the recursive
reference in tests/proof_reference.py, and verdicts on deep input."""

import random
import time
from collections import Counter
from pathlib import Path

import pytest

import dalkit as dk
import dalkit.proof as P
import dalkit.syntax as S
import proof_reference as REF
from conftest import instantiate, random_formula
from dalkit.cli import main
from dalkit.proof import MP, Axiom, Proof, axiom_table, check_proof, match_schema
from dalkit.syntax import LogicVariant as V

DATA = Path(dk.__file__).parent / "data"
PROOFS = sorted((DATA / "proofs").rglob("*.prf"))
ALPHABET = ("a", "b")


def _table(variant, alphabet=ALPHABET):
    return axiom_table(variant, alphabet if variant.requires_alphabet else None)


def _shipped():
    out = []
    for path in PROOFS:
        try:
            out.append((path, dk.read_proof(path.read_text())))
        except dk.FormatError:
            pass
    return out


def _random_action(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([S.Basic("a"), S.Basic("b"), S.Zero(), S.One()])
    k = rng.randrange(3)
    if k == 0:
        return S.Compl(_random_action(rng, depth - 1))
    return (S.Union, S.Inter)[k - 1](_random_action(rng, depth - 1),
                                     _random_action(rng, depth - 1))


def _replace_some(t, alpha, beta, rng):
    """t with a random subset of the occurrences of alpha replaced by beta."""
    if t == alpha and rng.random() < 0.5:
        return beta
    if isinstance(t, (S.Basic, S.Prop)) or not t._fields:
        return t
    return type(t)(*(_replace_some(getattr(t, f), alpha, beta, rng) for f in t._fields))


def _inputs(variant, rng):
    """Random formulas, an instance of every schema, E2 instances and
    near misses, and every line of the shipped proofs."""
    props = ("p",) if variant.allows_props else ()
    out = [random_formula(rng, rng.randint(0, 3), variant, props=props) for _ in range(30)]
    for s in _table(variant):
        if s.pattern is None:
            continue
        avars, fvars = S.metavariables(s.pattern)
        subst = {n: S.Basic(rng.choice("ab")) if rng.random() < 0.3 else _random_action(rng, 2)
                 for n in avars}
        subst |= {n: random_formula(rng, 1, variant, props=props) for n in fvars}
        out.append(instantiate(s.pattern, subst))
    for _ in range(20):
        alpha, body = rng.choice([S.Basic("a"), S.Compl(S.Basic("a"))]), random_formula(
            rng, rng.randint(0, 2), variant, props=props)
        beta = _random_action(rng, 1)
        psi = _replace_some(body, alpha, beta, rng)
        if rng.random() < 0.3:   # a near miss: some occurrence replaced by another term
            psi = _replace_some(psi, alpha, S.Basic("c"), rng)
        out.append(REF.expand_impl(variant, S.And(S.Eq(alpha, beta), body), psi))
    out += [phi for _, p in _shipped() for phi, _ in p.lines]
    return out


@pytest.mark.parametrize("variant", list(V), ids=lambda v: v.value)
def test_match_schema_agrees_with_recursive_reference(variant):
    rng = random.Random(f"match-{variant.value}")
    matched = 0
    for phi in _inputs(variant, rng):
        for s in _table(variant):
            got = match_schema(phi, s)
            assert got == REF.match_schema(phi, s), (s.id, S.print_term(phi))
            matched += got[0]
    assert matched >= len(_table(variant))   # the instances did match


@pytest.mark.parametrize("path, proof", [pytest.param(*x, id=x[0].stem) for x in _shipped()])
def test_check_proof_agrees_with_reference_on_shipped_and_mutated_proofs(path, proof):
    rng = random.Random(path.stem)
    ids = sorted({s.id for s in _table(proof.variant, proof.alphabet)} | {"E9"})
    proofs = [proof]
    for _ in range(40):
        lines = list(proof.lines)
        k = rng.randrange(len(lines))
        phi, just = lines[k]
        if isinstance(just, Axiom) and rng.random() < 0.7:
            just = Axiom(rng.choice(ids))
        else:
            i, j = (just.i, just.j) if isinstance(just, MP) else (1, 2)
            just = rng.choice([MP(j, i), MP(i, rng.randint(0, len(lines) + 1)),
                               MP(rng.randint(0, len(lines) + 1), j)])
        lines[k] = (phi, just)
        proofs.append(Proof(proof.variant, tuple(lines), proof.alphabet))
    for p in proofs:
        for variant in [None] + [v for v in V if p.alphabet or not v.requires_alphabet]:
            assert check_proof(p, variant) == REF.check_proof(p, variant), (p.lines, variant)


def test_checking_shipped_proofs_walks_axiom_patterns_only(monkeypatch):
    """read_proof + check_proof replay the table each line was parsed with;
    the only terms walked are axiom patterns, each at most once, as a walked
    term keeps its table."""
    walked = []
    real = S._walk
    monkeypatch.setattr(S, "_walk", lambda t: walked.append(t) or real(t))
    patterns, lines = set(), []
    for path in PROOFS * 2:
        try:
            proof = dk.read_proof(path.read_text())
        except dk.FormatError:
            continue
        check_proof(proof)
        lines += [phi for phi, _ in proof.lines]
        patterns |= {id(s.pattern) for s in axiom_table(proof.variant, proof.alphabet)}
        patterns.add(id(P._e2_pattern(proof.variant)))
    assert len(lines) > 100
    assert {id(t) for t in walked} <= patterns and len({id(t) for t in walked}) == len(walked)


def test_check_proof_interns_each_axiom_pattern_once(monkeypatch):
    """check_proof interns a schema's pattern the first time a line cites
    the schema, and never again in that check, however many lines cite it."""
    interned = []
    real = S.TermSpace.intern
    monkeypatch.setattr(S.TermSpace, "intern", lambda space, t: interned.append(t) or real(space, t))
    cited_twice = 0
    for _, proof in _shipped():
        patterns = {id(s.pattern) for s in axiom_table(proof.variant, proof.alphabet)}
        patterns.add(id(P._e2_pattern(proof.variant)))
        interned.clear()
        check_proof(proof)
        counts = Counter(id(t) for t in interned if id(t) in patterns)
        assert max(counts.values(), default=1) == 1, proof.lines
        ids = [just.id for _, just in proof.lines if isinstance(just, Axiom)]
        cited_twice += len(ids) - len(set(ids))
    assert cited_twice > 0


DEEP = 10_000
SUM_A = " + ".join(["a"] * DEEP)
SUM_B = " + ".join(["a"] * (DEEP - 1) + ["b"])


def _deep_union(last):
    t = S.Basic("a")
    for _ in range(DEEP - 2):
        t = S.Union(t, S.Basic("a"))
    return S.Union(t, S.Basic(last))


def test_is_substitution_instance_on_deep_terms():
    a, b = S.Basic("a"), S.Basic("b")
    assert dk.is_substitution_instance(S.Perm(_deep_union("b")), S.Perm(_deep_union("a")), a, b)
    assert not dk.is_substitution_instance(S.Perm(_deep_union("b")), S.Perm(_deep_union("a")),
                                           b, a)
    assert dk.is_substitution_instance(_deep_union("a"), _deep_union("a"), b, a)


@pytest.mark.parametrize("text, sid, ok", [
    (f"{SUM_A} == {SUM_A}", "E1", True),
    (f"{SUM_A} == {SUM_B}", "E1", False),
    (f"(a == b) & perm({SUM_A}) -> perm({SUM_B})", "E2", True),
    (f"(a == b) & perm({SUM_B}) -> perm({SUM_A})", "E2", False),
    (f"a + ({SUM_A}) == ({SUM_A}) + a", "A9", True),
], ids=["E1", "E1-miss", "E2", "E2-miss", "A9"])
def test_match_schema_on_deep_lines(text, sid, ok):
    phi = dk.parse_formula(text)
    (s,) = [s for s in axiom_table(V.DAL) if s.id == sid]
    matched, binds = match_schema(phi, s)
    assert matched is ok
    if ok:
        assert sorted(binds) == sorted(S.metavariables(s.pattern)[0]
                                       if s.pattern else ["α", "β", "φ", "ψ"])


DEEP_PROOFS = {
    "dal": (f"logic: dal\n1: {SUM_A} == {SUM_A}  [E1]\n"
            f"2: (a == b) & perm({SUM_A}) -> perm({SUM_B})  [E2]\n", "ok: 2 lines (dal)"),
    "dal-miss": (f"logic: dal\n1: {SUM_A} == {SUM_A}  [E1]\n"
                 f"2: (a == b) & perm({SUM_B}) -> perm({SUM_A})  [E2]\n",
                 "line 2: not an instance of E2"),
    "ipl-mp": (f"logic: dal_ipl\n1: {SUM_A} == {SUM_A}  [E1]\n"
               f"2: ({SUM_A} == {SUM_A}) -> (perm({SUM_B}) -> ({SUM_A} == {SUM_A}))  [H9]\n"
               f"3: perm({SUM_B}) -> ({SUM_A} == {SUM_A})  [mp 1 2]\n", "ok: 3 lines (dal_ipl)"),
    "ipl-mp-miss": (f"logic: dal_ipl\n1: {SUM_A} == {SUM_A}  [E1]\n"
                    f"2: ({SUM_A} == {SUM_A}) -> (perm({SUM_B}) -> ({SUM_A} == {SUM_A}))  [H9]\n"
                    f"3: perm({SUM_A}) -> ({SUM_A} == {SUM_A})  [mp 1 2]\n",
                    "line 3: line 2 is not (line 1) -> (line 3)"),
}


@pytest.mark.parametrize("name", DEEP_PROOFS)
def test_check_proof_on_deep_lines(name, tmp_path, capsys):
    text, expect = DEEP_PROOFS[name]
    res = check_proof(dk.read_proof(text))
    assert res.ok is expect.startswith("ok")
    path = tmp_path / "deep.prf"
    path.write_text(text)
    assert main(["check-proof", str(path)]) == (0 if res.ok else 1)
    out, err = capsys.readouterr()
    assert (out, err) == (expect + "\n", "")


def test_e2_on_shared_subterms_is_linear():
    """'<->' shares its sides, so 40 nested ones are a tree of 2^40 nodes
    but a table of a few rows; E2 checks each pair of rows once."""
    chain = " <-> ".join(["perm(a)"] * 40)
    phi = dk.parse_formula(f"(a == b) & ({chain}) -> ({chain.replace('a', 'b', 1)})")
    (s,) = [s for s in axiom_table(V.DAL) if s.id == "E2"]
    start = time.perf_counter()
    assert match_schema(phi, s)[0]
    assert time.perf_counter() - start < 5
