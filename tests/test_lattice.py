import hashlib
import itertools

import numpy as np
import pytest

import dalkit as dk
from dalkit.lattice import Lattice, _relation_mask


def test_powerset_ops_are_bitwise():
    B = dk.powerset_algebra(["x", "y", "z"])
    assert B.size == 8 and B.bot == 0 and B.top == 7
    assert B.join(0b101, 0b011) == 0b111
    assert B.meet(0b101, 0b011) == 0b001
    assert B.compl(0b101) == 0b010
    assert B.element_name(0b101) == "{x z}"
    assert B.index_of("{x z}") == 0b101
    assert B.member_set(0b110) == {"y", "z"}


def test_validate_accepts_standard_constructions():
    for lat in (dk.powerset_algebra(["x"]), dk.powerset_algebra(["x", "y"]),
                dk.chain(2), dk.chain(4), dk.two()):
        assert dk.validate(lat) == []


def test_validate_reports_broken_law():
    join = np.array([[0, 1], [1, 0]], dtype=np.int32)  # not idempotent at 1
    meet = np.array([[0, 0], [0, 1]], dtype=np.int32)
    bad = Lattice(join, meet, ("bot", "top"), 0, 1)
    problems = dk.validate(bad)
    assert problems and any("L" in p for p in problems)


def test_chain_is_heyting_not_boolean():
    C = dk.chain(3)
    assert dk.validate(C) == []
    assert not dk.is_boolean(C)
    assert dk.is_boolean(dk.chain(2))
    # relative pseudocomplement: a -> b is top when a <= b, else b
    assert C.impl(1, 2) == 2 and C.impl(2, 1) == 1 and C.impl(0, 0) == 2
    assert C.compl(1) == 0  # the middle element's negation collapses


def test_free_boolean_generators_are_free():
    alg, gens = dk.free_boolean(["a", "b"])
    assert alg.size == 16
    a, b = gens["a"], gens["b"]
    # no relations: all 16 meets of literals are distinct
    lits = [a, alg.compl(a)], [b, alg.compl(b)]
    meets = {alg.meet(x, y) for x in lits[0] for y in lits[1]}
    assert len(meets) == 4 and alg.bot not in meets


def test_downset_algebra_is_heyting():
    P = dk.Poset.from_edges(["p", "q", "r"], [("p", "q"), ("p", "r")])
    H = dk.downset_algebra(P)
    assert H.size == 5
    assert dk.validate(H) == []
    assert not dk.is_boolean(H)


def test_poset_rejects_cycles():
    with pytest.raises(ValueError):
        dk.Poset.from_edges(["p", "q"], [("p", "q"), ("q", "p")])


def test_atoms_and_irreducibles():
    B = dk.powerset_algebra(["x", "y"])
    assert sorted(B.atoms()) == [1, 2]
    C = dk.chain(4)
    assert C.atoms() == [1]
    assert C.join_irreducibles() == [1, 2, 3]


def test_covers():
    C = dk.chain(3)
    assert sorted(C.covers()) == [(0, 1), (1, 2)]


def test_ideals():
    B = dk.powerset_algebra(["x", "y"])
    pi = dk.principal_ideal(B, B.index_of("{x}"))
    assert pi == {0, 1}
    assert dk.is_ideal(B, pi)
    assert not dk.is_ideal(B, {0, 3})  # not downward closed
    # ideals of the 4-element Boolean algebra: {0}, two principals, all
    assert len(dk.all_ideals(B)) == 4


def test_congruence_closure_and_quotient():
    B = dk.powerset_algebra(["x", "y"])
    part = dk.congruence_closure(B, [(B.index_of("{x}"), B.bot)])
    assert sorted(map(sorted, part)) == [[0, 1], [2, 3]]
    assert dk.is_congruence(B, part)
    q, cls = dk.quotient(B, part)
    assert q.size == 2 and dk.validate(q) == []
    assert cls[B.bot] == cls[B.index_of("{x}")]


def test_is_congruence_rejects_non_congruence():
    B = dk.powerset_algebra(["x", "y"])
    assert not dk.is_congruence(B, [[0, 3], [1], [2]])


def test_generated_sublattice_returns_element_set():
    C = dk.chain(4)
    sub = dk.generated_sublattice(C, [2], "heyting")
    assert isinstance(sub, frozenset)
    assert sub == {0, 2, 3}  # 2, bot, top, and 2 ~> 0 = 0
    lat, emb = dk.sublattice_on(C, sub, "heyting")
    assert lat.size == 3 and dk.validate(lat) == []
    assert emb == [0, 2, 3]


def test_sublattice_on_rejects_unclosed_set():
    B = dk.powerset_algebra(["x", "y"])
    with pytest.raises(ValueError):
        dk.sublattice_on(B, {B.bot, B.index_of("{x}"), B.top}, "boolean")


def test_all_posets_counts():
    # unlabeled posets: 1, 2, 5, 16, 63 for 1..5 points
    assert len(dk.all_posets(1)) == 1
    assert len(dk.all_posets(2)) == 2
    assert len(dk.all_posets(3)) == 5
    assert len(dk.all_posets(4)) == 16
    assert len(dk.all_posets(5)) == 63


def reference_all_posets(n):
    """Brute force: every relation on n points, transitive ones kept, each
    canonicalised as the minimal relation mask over all permutations."""
    if n == 0:
        return (0,)
    pairs = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    seen = set()
    for assignment in itertools.product((0, 1, 2), repeat=len(pairs)):
        lt = [[False] * n for _ in range(n)]
        for (i, j), c in zip(pairs, assignment):
            if c == 1:
                lt[i][j] = True
            elif c == 2:
                lt[j][i] = True
        if any(lt[i][k] and lt[k][j] and not lt[i][j]
               for k in range(n) for i in range(n) for j in range(n)):
            continue
        seen.add(min(
            _relation_mask([[lt[p[i]][p[j]] for j in range(n)] for i in range(n)], n)
            for p in perms))
    return tuple(sorted(seen))


@pytest.mark.parametrize("n", range(5))
def test_all_posets_matches_brute_force(n):
    assert dk.all_posets(n) == reference_all_posets(n)


def test_heyting_catalog_5_is_pinned():
    # sha256 of names and operation tables, in catalog order, as the
    # brute-force all_posets produced them
    h = hashlib.sha256()
    for a in dk.heyting_catalog(5):
        h.update("\n".join(a.names).encode() + b"\0")
        for table in (a._join, a._meet, a._impl):
            h.update(np.ascontiguousarray(table, dtype="<i4").tobytes())
    assert len(dk.heyting_catalog(5)) == 87
    assert h.hexdigest() == \
        "dab84560410510d5f741606b7e229e6aa4b8402091117268bae9f19542556c62"
    # the same order, read through the scalar operations only: the catalog
    # order sets the search's candidate counts and first countermodels
    h = hashlib.sha256()
    for a in dk.heyting_catalog(5):
        n = range(a.size)
        h.update(repr((a.names, *([[op(x, y) for y in n] for x in n]
                                  for op in (a.join, a.meet, a.impl)))).encode())
    assert h.hexdigest() == \
        "615fed68a3f94581d05eed4ebb6bcfc5a62fba87eba95dd4f30cbfd8b113f0fe"


def test_heyting_catalog_sizes():
    assert [h.size for h in dk.heyting_catalog(2)] == [2, 3, 4]
    assert [h.size for h in dk.heyting_catalog(3)] == [2, 3, 4, 4, 5, 5, 6, 8]
    for h in dk.heyting_catalog(3):
        assert dk.validate(h) == []


def test_find_isomorphism():
    B = dk.powerset_algebra(["x", "y"])
    P = dk.Poset.from_edges(["p", "q"], [])
    H = dk.downset_algebra(P)  # downsets of a 2-antichain = powerset
    iso = dk.find_isomorphism(B, H)
    assert iso is not None
    assert dk.find_isomorphism(dk.chain(4), B) is None


def test_set_family_algebra_requires_closure():
    with pytest.raises(ValueError):
        dk.SetFamilyAlgebra({"x", "y"}, [{"x"}])  # complement {y} missing
    fam = dk.SetFamilyAlgebra({"x", "y"}, [{"x"}, {"y"}])
    assert fam.size == 4
    assert fam.member_set(fam.index_of_set({"x"})) == {"x"}
