"""The one law checker, lattice._first_failure: agreement with the numpy
loops it replaced (tests/law_reference.py) on seeded inputs.  Each check
runs twice: on lattices of every size from 1 to 32 ("sizes-1-32"), and on
lattices whose tables have a few cells changed, so that the laws fail at
assorted first witnesses ("mutants")."""

import random

import numpy as np
import pytest

import dalkit as dk
import dalkit.lattice as LT
import law_reference as REF
from conftest import random_pf
from dalkit.algebra import DeonticAlgebra


@pytest.fixture(params=["sizes-1-32", "mutants"])
def inputs(request):
    return request.param


def _lattices():
    """At least one lattice of every size from 1 to 32."""
    out = [dk.chain(n) for n in (1, 2, 3, 5, 7, 9, 10, 11, 13, 14, 15, 17, 31)]
    out += [dk.powerset_algebra([f"t{i}" for i in range(k)]) for k in range(6)]
    out += list(dk.heyting_catalog(3))
    out += [dk.heyting_catalog(5)[k] for k in (6, 20, 40, 50, 60, 70, 78, 84, 86)]
    out.append(dk.free_boolean(["g", "h"])[0])
    out.append(dk.SetFamilyAlgebra({"x", "y", "z"}, [{"x"}, {"y", "z"}]))
    C = dk.chain(4)
    out.append(dk.Lattice(C._join, C._meet, C.names, C.bot, C.top))
    for n in range(18, 31):   # products of two chains, n = a * b, and chains
        a = next((a for a in range(2, 6) if n % a == 0), None)
        out.append(_product(dk.chain(a), dk.chain(n // a)) if a else dk.chain(n))
    return out


def _product(l1, l2):
    """The direct product of two table-backed Heyting algebras."""
    pairs = [(a, b) for a in range(l1.size) for b in range(l2.size)]
    tables = [[[l2.size * getattr(l1, op)(a, c) + getattr(l2, op)(b, d) for c, d in pairs]
               for a, b in pairs] for op in ("join", "meet", "impl")]
    names = [f"{l1.element_name(a)}.{l2.element_name(b)}" for a, b in pairs]
    return dk.HeytingAlgebra(*tables, names, 0, len(pairs) - 1)


def _inputs(which, rng, count):
    return _lattices() if which == "sizes-1-32" else list(_mutants(rng, count))


def _ops(l):
    return ("join", "meet", "impl") if isinstance(l, dk.HeytingAlgebra) else ("join", "meet")


def _tables(l):
    row = tuple(range(l.size))   # each operation maps over a row argument
    return [np.array([getattr(l, op)(a, row) for a in row], dtype=np.int32).reshape(l.size, l.size)
            for op in _ops(l)]


def _rebuild(l, tables, cls=None):
    cls = cls or (type(l) if type(l) in (dk.Lattice, dk.HeytingAlgebra, dk.BooleanAlgebra)
                  else dk.BooleanAlgebra)
    names = tuple(l.element_name(i) for i in range(l.size))
    if cls is dk.Lattice:
        return dk.Lattice(tables[0], tables[1], names, l.bot, l.top)
    return cls(*tables[:3], names, l.bot, l.top)


def _mutant(rng, l):
    """l with a few random table cells changed, so that laws fail."""
    tables = _tables(l)
    for _ in range(rng.randint(1, 3)):
        t = rng.choice(tables)
        t[rng.randrange(l.size), rng.randrange(l.size)] = rng.randrange(l.size)
    kinds = [dk.Lattice] + ([dk.HeytingAlgebra, dk.BooleanAlgebra] if len(tables) == 3 else [])
    return _rebuild(l, tables, rng.choice(kinds))


def _mutants(rng, count):
    base = [l for l in _lattices() if l.size > 1]
    for _ in range(count):
        yield _mutant(rng, rng.choice(base))


def _permuted(rng, l):
    """A copy of l with its elements relabelled by a random permutation."""
    perm = list(range(l.size))
    rng.shuffle(perm)
    inv = np.argsort(perm)
    tables = [np.array(perm, dtype=np.int32)[t[np.ix_(inv, inv)]] for t in _tables(l)]
    names = tuple(l.element_name(int(i)) for i in inv)
    cls = dk.Lattice if len(tables) == 2 else dk.HeytingAlgebra
    return cls(*tables, names, perm[l.bot], perm[l.top])


def test_validate_and_is_boolean_match_reference(inputs):
    lattices = _inputs(inputs, random.Random(9), 120)
    assert inputs == "mutants" or {l.size for l in lattices} >= set(range(1, 33))
    failing = set()
    for l in lattices:
        for kind in (None, "bdl", "heyting", "boolean"):
            got = dk.validate(l, kind)
            assert got == REF.validate(l, kind), (l, kind)
            failing.update(r.split()[0] for r in got)
        assert dk.is_boolean(l) == REF.is_boolean(l)
    if inputs == "mutants":   # the mutants reach every law
        assert {f"L{i}" for i in range(1, 13)} | {"H2", "H3", "H1m", "residuation", "LEM"} <= failing


def _build_outcome(fn, *args):
    try:
        fn(*args)
    except dk.ConditionError as e:
        return e.condition, e.witness, str(e)
    return None


def _build_cases(rng, count, mutants=False):
    if mutants:   # action lattices with changed cells, lattices or not
        actions = list(_mutants(rng, 40))
    else:
        actions = [dk.powerset_algebra([f"t{i}" for i in range(k)]) for k in range(6)]
        actions += [dk.chain(3), dk.chain(4), dk.chain(21), _product(dk.chain(3), dk.chain(9))]
        actions += [h for h in dk.heyting_catalog(4) if h.size <= 6 or h.size in (10, 16)]
    formulas = [dk.two(), dk.chain(3), dk.powerset_algebra(["u", "w"]), dk.heyting_catalog(3)[4]]
    for _ in range(count):
        A, Fm = rng.choice(actions), rng.choice(formulas)
        n = A.size
        P, F = (np.array(v, dtype=np.int32) for v in random_pf(rng, A, Fm))
        E = None
        how = rng.randrange(6)
        if how == 1:  # a valid pair with a cell or two changed
            for _ in range(rng.randint(1, 2)):
                rng.choice((P, F))[rng.randrange(n)] = rng.randrange(Fm.size)
        elif how in (2, 3):  # graded E: crisp, with cells moved off bot
            E = np.where(np.eye(n, dtype=bool), Fm.top, Fm.bot).astype(np.int32)
            for _ in range(rng.randint(0, 3) if how == 2 else n * n):
                a, b = rng.randrange(n), rng.randrange(n)
                if a != b:
                    E[a, b] = E[b, a] = rng.choice([x for x in range(Fm.size) if x != Fm.top])
        elif how == 4:  # E breaking condition 6 on or off the diagonal
            E = np.where(np.eye(n, dtype=bool), Fm.top, Fm.bot).astype(np.int32)
            E[rng.randrange(n), rng.randrange(n)] = rng.randrange(Fm.size)
        elif how == 5:  # arbitrary maps
            P = np.array([rng.randrange(Fm.size) for _ in range(n)], dtype=np.int32)
            F = np.array([rng.randrange(Fm.size) for _ in range(n)], dtype=np.int32)
        yield A, Fm, P, F, E


def test_build_matches_reference(inputs):
    seen = set()
    for A, Fm, P, F, E in _build_cases(random.Random(17), 900, inputs == "mutants"):
        got = _build_outcome(dk.build, A, Fm, P, F, E)
        assert got == _build_outcome(REF.build_conditions, A, Fm, P, F, E), (A, Fm, P, F, E)
        seen.add(got and got[0])
    assert seen == {None, "1", "2", "3", "4", "5", "6"}


def test_build_names_first_condition_in_fixed_order(monkeypatch):
    """Condition 5 fails in row {} and condition 1 only in row {x}.  With
    one row per chunk the old loop named 5, from the earlier chunk; build
    names 1, which comes first in the order 6, 3, 1, 2, 4, 5."""
    A, Fm = dk.powerset_algebra(["x", "y"]), dk.chain(3)
    args = (A, Fm, [2, 1, 1, 2], [2, 0, 0, 0],
            [[2, 1, 0, 0], [0, 2, 0, 1], [0, 0, 2, 0], [0, 0, 0, 2]])
    monkeypatch.setattr(REF, "_CHUNK", A.size)
    assert _build_outcome(REF.build_conditions, *args)[:2] == ("5", "at ({}, {x})")
    assert _build_outcome(dk.build, *args)[:2] == ("1", "at ({x}, {y})")


def _ideal_candidates(rng, l):
    principal = [dk.principal_ideal(l, a) for a in range(l.size)]
    out = list(principal)
    for _ in range(12):
        s = set(rng.choice(principal)) | set(rng.choice(principal))
        how = rng.randrange(3)
        if how == 0:
            s ^= {rng.randrange(l.size)}
        elif how == 1:
            s = {x for x in range(l.size) if rng.random() < 0.5}
        out.append(s)
    return out


def test_is_ideal_matches_reference(inputs):
    rng = random.Random(23)
    lattices = _inputs(inputs, rng, 40)
    verdicts = set()
    for l in lattices:
        for s in _ideal_candidates(rng, l):
            got = dk.is_ideal(l, s)
            assert got == REF.is_ideal(l, s), (l, sorted(s))
            verdicts.add(got)
    assert verdicts == {True, False}
    assert not dk.is_ideal(dk.chain(3), {0, 3})  # a member outside the carrier


def _partitions(rng, l):
    n = l.size
    for _ in range(10):
        how = rng.randrange(3)
        if how == 0:
            blocks = dk.congruence_closure(l, [(rng.randrange(n), rng.randrange(n))])
        else:
            labels = [rng.randrange(max(1, n // 2)) for _ in range(n)]
            if how == 1:  # a congruence with one element moved
                blocks = dk.congruence_closure(l, [(rng.randrange(n), rng.randrange(n))])
                labels = [k for x in range(n) for k, b in enumerate(blocks) if x in b]
                labels[rng.randrange(n)] = rng.randrange(len(blocks) + 1)
            blocks = [[x for x in range(n) if labels[x] == k] for k in set(labels)]
        blocks = [rng.sample(b, len(b)) for b in blocks]
        rng.shuffle(blocks)
        yield blocks


def test_is_congruence_matches_reference(inputs):
    rng = random.Random(31)
    lattices = _inputs(inputs, rng, 40)
    verdicts = set()
    for l in lattices:
        for blocks in _partitions(rng, l):
            got = dk.is_congruence(l, blocks)
            assert got == REF.is_congruence(l, blocks), (l, blocks)
            verdicts.add(got)
    assert verdicts == {True, False}
    # only moving the second argument splits the classes: x ~> y is 0 at
    # y = 1 and 2 at y = 2, whatever x is
    C = dk.chain(3)
    odd = dk.HeytingAlgebra(C._join, C._meet, [[0, 0, 2]] * 3, C.names, C.bot, C.top)
    assert dk.is_congruence(C, [[0], [1, 2]])
    assert not dk.is_congruence(odd, [[0], [1, 2]])
    assert not REF.is_congruence(odd, [[0], [1, 2]])


def _subalgebra_cases(rng, count, mutants=False):
    """Subalgebras with embeddings, mostly spoiled; with mutants, the sub
    lattices have a few table cells changed."""
    actions = [dk.powerset_algebra(["x", "y", "z"]), dk.chain(4), dk.heyting_catalog(3)[-1],
               dk.free_boolean(["g", "h"])[0], dk.powerset_algebra(["x", "y", "z", "w", "v"]),
               _product(dk.chain(3), dk.chain(9))]
    formulas = [dk.two(), dk.chain(4), dk.powerset_algebra(["u", "w"])]
    for _ in range(count):
        A, Fm = rng.choice(actions), rng.choice(formulas)
        D = dk.build(A, Fm, *random_pf(rng, A, Fm))
        subs = []
        for big in (A, Fm):
            kind = rng.choice(["bdl", "heyting", "boolean"] if dk.is_boolean(big)
                              else ["bdl", "heyting"])
            gens = rng.sample(range(big.size), rng.randint(0, 2))
            subs.append(dk.sublattice_on(big, dk.generated_sublattice(big, gens, kind), kind))
        (sa, act_emb), (sf, form_emb) = subs
        if mutants:
            sa, sf = (_mutant(rng, l) if l.size > 1 else l for l in (sa, sf))
        back = {x: i for i, x in enumerate(form_emb)}
        P_sub = [back.get(int(D.P[x]), rng.randrange(sf.size)) for x in act_emb]
        F_sub = [back.get(int(D.F[x]), rng.randrange(sf.size)) for x in act_emb]
        E_sub = None
        how = rng.randrange(7)
        if how == 1:
            i, j = rng.sample(range(len(act_emb)), 2) if len(act_emb) > 1 else (0, 0)
            act_emb[i], act_emb[j] = act_emb[j], act_emb[i]
        elif how == 2:
            form_emb = [rng.randrange(Fm.size) for _ in form_emb]
        elif how == 3:
            act_emb = [rng.randrange(A.size + 1) for _ in act_emb[:rng.randint(0, len(act_emb))]]
        elif how == 4:
            P_sub[rng.randrange(len(P_sub))] = rng.randrange(sf.size)
        elif how == 5:
            E_sub = np.where(np.eye(sa.size, dtype=bool), sf.top, sf.bot)
            E_sub[rng.randrange(sa.size), rng.randrange(sa.size)] = rng.randrange(sf.size)
        elif how == 6:
            act_emb = [rng.randrange(A.size) for _ in act_emb]
        yield DeonticAlgebra(sa, sf, P_sub, F_sub, E_sub), D, act_emb, form_emb


def _tie_cases():
    """Embeddings whose first failing pair keeps the join and breaks the meet,
    or keeps both and breaks the implication."""
    two = dk.two()

    def plain(A):
        return DeonticAlgebra(A, two, [two.top] * A.size, [two.bot] * A.size)

    B2, B3 = dk.powerset_algebra(["x", "y"]), dk.powerset_algebra(["x", "y", "z"])
    L2 = dk.Lattice(*_tables(B2)[:2], B2.names, B2.bot, B2.top)  # no impl to check
    yield plain(L2), plain(B3), [0, 0b011, 0b110, 0b111], [0, 1]
    yield plain(dk.chain(3)), plain(B2), [0, 0b01, 0b11], [0, 1]


def test_subalgebra_check_matches_reference(inputs):
    messages = set()
    cases = list(_subalgebra_cases(random.Random(41), 500, inputs == "mutants")) + list(_tie_cases())
    for D_sub, D, act_emb, form_emb in cases:
        got = dk.subalgebra_check(D_sub, D, act_emb, form_emb)
        assert got == REF.subalgebra_check(D_sub, D, act_emb, form_emb), (act_emb, form_emb)
        messages.update(" ".join(r.split()[:2]) for r in got[1])
    assert {"action: join", "action: meet", "action: impl", "formula: join"} <= messages
    assert [dk.subalgebra_check(*case)[1] for case in _tie_cases()] == [
        ["action: meet not preserved at (1, 2)"], ["action: impl not preserved at (1, 0)"]]


def test_find_isomorphism_matches_reference():
    rng = random.Random(53)
    small = [l for l in _lattices() if l.size <= 8] + list(dk.heyting_catalog(4))[:30]
    for _ in range(150):
        l1 = rng.choice(small)
        l2 = _permuted(rng, l1) if rng.random() < 0.7 else rng.choice(small)
        assert dk.find_isomorphism(l1, l2) == REF.find_isomorphism(l1, l2)


@pytest.mark.parametrize("make", [lambda: dk.powerset_algebra([f"t{i}" for i in range(10)]),
                                  lambda: dk.chain(1200)], ids=["powerset-10", "chain-1200"])
def test_find_isomorphism_beyond_recursion_depth(make):
    l1 = make()
    l2 = _permuted(random.Random(61), l1)
    iso = dk.find_isomorphism(l1, l2)
    assert sorted(iso) == list(range(l1.size))
    assert (np.array(l1.leq_matrix()) == np.array(l2.leq_matrix())[np.ix_(iso, iso)]).all()
    assert dk.find_isomorphism(l1, l1) == list(range(l1.size))


@pytest.mark.parametrize("atoms", range(5))
def test_powerset_leq_matrix_is_subset_inclusion(atoms):
    B = dk.powerset_algebra([f"t{i}" for i in range(atoms)])
    idx = np.arange(B.size)
    subset = (idx[:, None] & ~idx[None, :]) == 0
    assert (np.array(B.leq_matrix()) == subset).all()
    assert all(B.leq(a, b) == bool(subset[a, b]) for a in idx for b in idx)
