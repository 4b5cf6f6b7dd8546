"""The value classes built on ``syntax.Record``: terms, proofs and results.

Each record keeps the behaviour it had as a frozen (or, for ``AlgebraFile``
and ``RoundTripReport``, a mutable) dataclass: construction by position, by
keyword and with defaults, a fresh dict or list per instance where the
default was a factory, ``==``, ``hash`` and ``repr``.  The repr strings
below were printed by the dataclass versions.
"""

import copy
import pickle
from pathlib import Path

import pytest

import dalkit as dk
import dalkit.syntax as S
from dalkit.decide import Unknown

DATA = Path(dk.__file__).parent / "data"
V = S.LogicVariant
a, b = S.Basic("a"), S.Basic("b")
p, q = S.Perm(a), S.Forb(b)
M = dk.DeonticModel(("e1", "e2"), {"e1"}, ())
D = dk.read_algebra((DATA / "drinking.daa").read_text()).algebra

# class: (fields, every field's value, the values of an unequal record)
CASES = {
    S.Basic: (("name",), ("a",), ("b",)),
    S.AVar: (("name",), ("α",), ("β",)),
    S.Prop: (("name",), ("p",), ("q",)),
    S.FVar: (("name",), ("φ",), ("ψ",)),
    S.Zero: ((), (), None),
    S.One: ((), (), None),
    S.Top: ((), (), None),
    S.Bot: ((), (), None),
    S.Union: (("left", "right"), (a, b), (b, a)),
    S.Inter: (("left", "right"), (a, b), (a, a)),
    S.AImpl: (("left", "right"), (a, b), (b, b)),
    S.Compl: (("arg",), (a,), (b,)),
    S.Eq: (("left", "right"), (a, b), (a, S.Zero())),
    S.Perm: (("arg",), (a,), (b,)),
    S.Forb: (("arg",), (a,), (S.One(),)),
    S.Or: (("left", "right"), (p, q), (q, p)),
    S.And: (("left", "right"), (p, q), (p, p)),
    S.Impl: (("left", "right"), (p, q), (q, q)),
    S.Iff: (("left", "right"), (p, q), (S.Top(), q)),
    S.Not: (("arg",), (p,), (q,)),
    S.SymbolSet: (("actions", "props"), (("a",), ("p",)), (("a",), ())),
    dk.AxiomSchema: (("id", "pattern", "variant", "basic_vars"),
                     ("A1", S.Eq(S.AVar("α"), S.AVar("α")), V.DAL, frozenset({"α"})),
                     ("A1", None, V.DAL, frozenset({"α"}))),
    dk.Axiom: (("id",), ("A1",), ("A2",)),
    dk.MP: (("i", "j"), (1, 2), (2, 1)),
    dk.Proof: (("variant", "lines", "alphabet"), (V.NDAL2, ((p, dk.Axiom("D1")),), ("a", "b")),
               (V.NDAL2, ((p, dk.Axiom("D1")),), ("a",))),
    dk.ProofResult: (("ok", "line", "reason"), (False, 3, "no"), (False, 3, "yes")),
    Unknown: (("reason",), ("budget",), ("time",)),
    dk.Interpretation: (("act", "prop"), ({"a": 1}, {"p": 0}), ({"a": 1}, {"p": 1})),
    dk.RoundTripReport: (("model_equal", "algebra_equal", "details"), (True, False, ["x"]),
                         (True, True, ["x"])),
    dk.AlgebraFile: (("algebra", "action_spec", "formula_spec", "named_actions"),
                     (D, "free a b", "chain 2", {"a": 10}), (D, "free a b", "chain 2", {})),
    dk.DeonticModel: (("elements", "permitted", "forbidden"),
                      (("e1", "e2"), frozenset({"e1"}), frozenset()),
                      (("e1", "e2"), frozenset(), frozenset({"e1"}))),
    dk.Valuation: (("map",), ({"a": frozenset({"e1"})},), ({"a": frozenset()},)),
    dk.Valid: ((), (), None),
    dk.Countermodel: (("model", "valuation", "prop_val", "algebra", "interp"),
                      (M, dk.Valuation({"a": {"e1"}}), None, None, None),
                      (M, None, None, None, None)),
    dk.AtomAssignment: (("actions", "statuses", "prop_val"), (("a",), (0, 1), {"p": True}),
                        (("a",), (0, 1), {"p": False})),
}
IDS = [cls.__name__ for cls in CASES]
MUTABLE = (dk.AlgebraFile, dk.RoundTripReport)
# the records whose sample values hash: no dict or list among them, nor in
# the Countermodel's Valuation
HASHABLE = [cls for cls in CASES if cls not in MUTABLE + (
    dk.Interpretation, dk.Valuation, dk.AtomAssignment, dk.Countermodel)]
# class: (the fields given, then the defaults of the rest)
DEFAULTS = {
    dk.AxiomSchema: (("A1", None, V.DAL), (frozenset(),)),
    dk.Proof: ((V.DAL, ()), (None,)),
    dk.ProofResult: ((True,), (None, None)),
    dk.Interpretation: ((), ({}, {})),
    dk.RoundTripReport: ((True, True), ([],)),
    dk.DeonticModel: ((("e1",),), (frozenset(), frozenset())),
    dk.Valuation: ((), ({},)),
    dk.Countermodel: ((), (None,) * 5),
    dk.AtomAssignment: ((("a",), (0, 1)), ({},)),
}
FRESH = [(dk.Interpretation, "act"), (dk.Interpretation, "prop"), (dk.AtomAssignment, "prop_val"),
         (dk.RoundTripReport, "details"), (dk.Valuation, "map")]


def test_every_record_is_covered():
    modules = (S, dk.proof, dk.models, dk.decide, dk.algebra, dk.duality, dk.formats)
    records = {cls for mod in modules for cls in vars(mod).values()
               if isinstance(cls, type) and issubclass(cls, S.Record)
               and cls.__module__ == mod.__name__}
    assert records - {S.Record, S._Term, S.ActionTerm, S.FormulaTerm} == set(CASES)
    assert len(CASES) == 35


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_fields_in_order(cls):
    assert cls._fields == CASES[cls][0]
    if cls in S._TERMS:
        assert S._FIELDS[cls] == cls._fields


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_construction_by_position_and_keyword(cls):
    fields, values, _ = CASES[cls]
    x, y = cls(*values), cls(**dict(zip(fields, values)))
    assert tuple(getattr(x, f) for f in fields) == values
    assert x == y and not x != y


@pytest.mark.parametrize("cls", DEFAULTS, ids=[c.__name__ for c in DEFAULTS])
def test_construction_with_defaults(cls):
    given, defaults = DEFAULTS[cls]
    x = cls(*given)
    assert tuple(getattr(x, f) for f in cls._fields) == given + defaults


@pytest.mark.parametrize("cls, name", FRESH, ids=[f"{c.__name__}.{f}" for c, f in FRESH])
def test_factory_defaults_are_fresh_per_instance(cls, name):
    given = DEFAULTS[cls][0]
    x, y = cls(*given), cls(*given)
    assert getattr(x, name) is not getattr(y, name)
    value = getattr(x, name)
    if isinstance(value, dict):
        value["k"] = 1
    else:
        value.append(1)
    assert not getattr(y, name) and not getattr(cls(*given), name)
    assert x != y


@pytest.mark.parametrize("cls", [c for c in CASES if c not in MUTABLE],
                         ids=[c.__name__ for c in CASES if c not in MUTABLE])
def test_frozen_records_refuse_assignment(cls):
    x = cls(*CASES[cls][1])
    for name in cls._fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert tuple(getattr(x, f) for f in cls._fields) == CASES[cls][1]


@pytest.mark.parametrize("cls", MUTABLE, ids=[c.__name__ for c in MUTABLE])
def test_mutable_records_assign_and_do_not_hash(cls):
    x = cls(*CASES[cls][1])
    name = cls._fields[-1]
    setattr(x, name, "changed")
    assert getattr(x, name) == "changed" and x != cls(*CASES[cls][1])
    with pytest.raises(TypeError):
        hash(x)


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_equality_and_hash(cls):
    _, values, other = CASES[cls]
    x, y = cls(*values), cls(*values)
    assert x == y and x is not y
    if cls in HASHABLE:
        assert hash(x) == hash(y) and len({x, y}) == 1
    else:
        with pytest.raises(TypeError):
            hash(x)
    if other is not None:
        assert x != cls(*other) and not x == cls(*other)
    assert x != object() and x != values


def test_equal_fields_of_different_classes_differ():
    for group in ((S.Union, S.Inter, S.AImpl), (S.Or, S.And, S.Impl, S.Iff), (S.Perm, S.Forb),
                  (S.Basic, S.AVar), (S.Prop, S.FVar), (S.Zero, S.One), (S.Top, S.Bot)):
        xs = [cls(*CASES[cls][1]) for cls in group]
        assert all((x == y) == (i == j) for i, x in enumerate(xs) for j, y in enumerate(xs))
    assert dk.Valid() != S.Top() and dk.Axiom("A1") != Unknown("A1")


REPRS = {  # printed by the dataclass versions
    "term": "Impl(left=Or(left=And(left=Perm(arg=Union(left=Basic(name='a'), "
            "right=Basic(name='b'))), right=Forb(arg=Inter(left=Compl(arg=Basic(name='a')), "
            "right=One()))), right=Not(arg=Eq(left=Basic(name='a'), right=Zero()))), "
            "right=Or(left=Or(left=Prop(name='p'), right=Top()), right=Bot()))",
    "aimpl": "AImpl(left=Basic(name='a'), right=Zero())",
    "meta": "Iff(left=FVar(name='φ'), right=Eq(left=AVar(name='α'), right=One()))",
    "bot": "Bot()",
    "symbols": "SymbolSet(actions=('a',), props=('p',))",
    "schema": "AxiomSchema(id='A1', pattern=Eq(left=Inter(left=AVar(name='α'), "
              "right=Inter(left=AVar(name='β'), right=AVar(name='γ'))), "
              "right=Inter(left=Inter(left=AVar(name='α'), right=AVar(name='β')), "
              "right=AVar(name='γ'))), variant=<LogicVariant.DAL: 'dal'>, "
              "basic_vars=frozenset())",
    "axiom": "Axiom(id='A1')",
    "mp": "MP(i=1, j=2)",
    "proof": "Proof(variant=<LogicVariant.NDAL2: 'ndal2'>, lines=((Perm(arg=Basic(name='a')), "
             "Axiom(id='D1')), (Top(), MP(i=1, j=1))), alphabet=('a', 'b'))",
    "result": "ProofResult(ok=False, line=3, reason='not an instance of A1')",
    "ok": "ProofResult(ok=True, line=None, reason=None)",
    "unknown": "Unknown(reason='budget')",
    "interp": "Interpretation(act={'a': 1}, prop={'p': 0})",
    "empty_interp": "Interpretation(act={}, prop={})",
    "model": "DeonticModel(elements=('e1', 'e2'), permitted=frozenset({'e1'}), "
             "forbidden=frozenset())",
    "valuation": "Valuation(map={'a': frozenset({'e1'})})",
    "valid": "Valid()",
    "countermodel": "Countermodel(model=None, valuation=None, prop_val={'p': True}, "
                    "algebra=None, interp=None)",
    "assignment": "AtomAssignment(actions=('a',), statuses=(0, 1), prop_val={})",
    "report": "RoundTripReport(model_equal=True, algebra_equal=False, details=['x'])",
    "algebra_file": "AlgebraFile(algebra=<DeonticAlgebra BB |A|=16 |F|=2>, "
                    "action_spec='free a b', formula_spec='chain 2', "
                    "named_actions={'a': 10, 'b': 12})",
}


def repr_samples():
    return {
        "term": dk.parse_formula("perm(a + b) & forb(~a * 1) | !(a == 0) -> p | true | false",
                                 V.DAL_INT),
        "aimpl": S.AImpl(a, S.Zero()), "meta": S.Iff(S.FVar("φ"), S.Eq(S.AVar("α"), S.One())),
        "bot": S.Bot(), "symbols": S.symbols(dk.parse_formula("perm(a) | p", V.DAL_PROP)),
        "schema": dk.axiom_table(V.DAL)[0], "axiom": dk.Axiom("A1"), "mp": dk.MP(1, 2),
        "proof": dk.Proof(V.NDAL2, ((p, dk.Axiom("D1")), (S.Top(), dk.MP(1, 1))), ("a", "b")),
        "result": dk.ProofResult(False, 3, "not an instance of A1"), "ok": dk.ProofResult(True),
        "unknown": Unknown("budget"), "interp": dk.Interpretation({"a": 1}, {"p": 0}),
        "empty_interp": dk.Interpretation(),
        "model": M, "valuation": dk.Valuation({"a": {"e1"}}),
        "valid": dk.Valid(), "countermodel": dk.Countermodel(prop_val={"p": True}),
        "assignment": dk.AtomAssignment(("a",), (0, 1)),
        "report": dk.RoundTripReport(True, False, ["x"]),
        "algebra_file": dk.read_algebra((DATA / "drinking.daa").read_text()),
    }


def test_repr_is_unchanged():
    assert {k: repr(v) for k, v in repr_samples().items()} == REPRS


def test_deep_terms_compare_and_hash_by_their_tables():
    text = " & ".join(["perm(a)"] * 3000)
    t, u = dk.parse_formula(text), dk.parse_formula(text)
    built = p
    for _ in range(2999):
        built = S.And(built, p)
    assert t == u == built and hash(t) == hash(u) == hash(built)
    assert S.compile_term(t) == S.compile_term(built) and len({t, u, built}) == 1
    assert t != dk.parse_formula(text + " & perm(b)") != built
    assert dk.parse_formula(" | ".join(["perm(a)"] * 3000)) != t


@pytest.mark.parametrize("n", [3000, 10_000])
def test_deep_terms_print_copy_and_pickle(n):
    """repr, copy and pickle go through the table too: a chain of n terms,
    parsed or built, prints as the dataclass version did and round-trips."""
    leaf = "Perm(arg=Basic(name='a'))"
    expect = "And(left=" * (n - 1) + leaf + f", right={leaf})" * (n - 1)
    parsed, built = dk.parse_formula(" & ".join(["perm(a)"] * n)), p
    for _ in range(n - 1):
        built = S.And(built, S.Perm(S.Basic("a")))
    for t in (parsed, built):
        assert repr(t) == expect
        for twin in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert twin == t and twin is not t and repr(twin) == expect
            assert vars(twin)["_table"] == S.compile_term(t)   # kept from its rows
    proof = dk.Proof(V.DAL, ((parsed, dk.Axiom("A1")), (built, dk.MP(1, 1))))
    assert pickle.loads(pickle.dumps(proof)) == copy.deepcopy(proof) == proof
