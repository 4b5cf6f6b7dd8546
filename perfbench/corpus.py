"""Seeded, stratified op corpora for the three workloads.

Every workload runs in passes.  A pass holds a fixed number of ops per class
(letters x tautology/not, theorem/refutable, subcommand), shuffled by the
seed; classes are never drawn at random, so the latency percentiles fall in
the same class whatever the seed.  Pass k of a seed is built from its own
``random.Random(f"{seed}:{k}")``, so the same seed gives the same inputs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path

from reference import (letters_of, model_value, ndal_admissible,
                       refuted_by_witness)

CLASSICAL_VARIANTS = ("dal", "dal_prop", "ndal1", "ndal2", "ndal3", "ndal4", "ndal5")
LETTERS = ("a", "b", "c", "go", "pay", "stay")


@dataclass
class Op:
    id: str
    cls: str
    variant: str = ""
    text: str = ""
    tree: tuple = ()
    alphabet: tuple = ()
    expect: str = ""            # "valid", "countermodel" or "unknown"
    max_points: int = 0
    argv: tuple = ()            # cli only
    check: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_NULLARY = {"0", "1", "true", "false"}
_UNARY = {"~", "!"}
_MODAL = {"perm", "forb", "obl"}


def render(t) -> str:
    """Fully parenthesised concrete syntax that dalkit's parser reads."""
    op = t[0]
    if op in ("var", "prop"):
        return t[1]
    if op in _NULLARY:
        return op
    if op in _UNARY:
        return op + render(t[1])
    if op in _MODAL:
        return f"{op}({render(t[1])})"
    return f"({render(t[1])} {op} {render(t[2])})"


# ---------------------------------------------------------------------------
# Random terms
# ---------------------------------------------------------------------------

def rand_act(rng, letters, leaves, heyting=False):
    """A random action term with exactly ``leaves`` letter leaves."""
    if leaves == 1:
        t = ("var", rng.choice(letters))
    else:
        k = rng.randrange(1, leaves)
        ops = ("+", "*", "~>") if heyting else ("+", "*")
        t = (rng.choice(ops), rand_act(rng, letters, k, heyting),
             rand_act(rng, letters, leaves - k, heyting))
    return ("~", t) if rng.random() < 0.25 else t


def rand_atom(rng, letters, leaves, props=()):
    r = rng.random()
    if props and r < 0.2:
        return ("prop", rng.choice(props))
    if r < 0.35:
        return ("==", rand_act(rng, letters, leaves), rand_act(rng, letters, leaves))
    return (rng.choice(("perm", "perm", "forb", "obl")), rand_act(rng, letters, leaves))


def rand_formula(rng, letters, atoms, leaves, props=()):
    """A random formula with exactly ``atoms`` atomic subformulas."""
    if atoms == 1:
        t = rand_atom(rng, letters, leaves, props)
    else:
        k = rng.randrange(1, atoms)
        t = (rng.choice(("&", "|", "->", "<->")),
             rand_formula(rng, letters, k, leaves, props),
             rand_formula(rng, letters, atoms - k, leaves, props))
    return ("!", t) if rng.random() < 0.2 else t


def _covering(rng, make, letters, props=()):
    """Draw from ``make`` until every letter (and proposition) occurs."""
    while True:
        t = make()
        acts, ps = letters_of(t)
        if acts == set(letters) and ps == set(props):
            return t


# ---------------------------------------------------------------------------
# Classical workload
# ---------------------------------------------------------------------------

def _schemas(A, B, C, X, Y, Z):
    """Instances of the DAL axiom schemas (action laws, formula laws,
    E1, E2, D1-D3); valid in every classical variant."""
    def eq(l, r):
        return ("==", l, r)

    def iff(l, r):
        return ("<->", l, r)

    def u(l, r):
        return ("+", l, r)

    def i(l, r):
        return ("*", l, r)

    def o(l, r):
        return ("|", l, r)

    def a(l, r):
        return ("&", l, r)

    return [
        eq(i(A, i(B, C)), i(i(A, B), C)),
        eq(i(A, u(B, C)), u(i(A, B), i(A, C))),
        eq(u(A, i(B, C)), i(u(A, B), u(A, C))),
        eq(i(A, u(A, B)), A),
        eq(u(A, ("~", A)), ("1",)),
        eq(i(A, ("~", A)), ("0",)),
        iff(a(X, o(Y, Z)), o(a(X, Y), a(X, Z))),
        iff(o(X, a(X, Y)), X),
        iff(a(X, a(Y, Z)), a(a(X, Y), Z)),
        o(X, ("!", X)),
        eq(u(A, B), u(A, B)),
        ("->", a(eq(A, B), ("perm", u(A, C))), ("perm", u(B, C))),
        ("->", a(eq(A, B), ("forb", i(A, C))), ("forb", i(B, C))),
        iff(("perm", u(A, B)), a(("perm", A), ("perm", B))),
        iff(("forb", u(A, B)), a(("forb", A), ("forb", B))),
        iff(a(("perm", A), ("forb", A)), eq(A, ("0",))),
    ]


def _ndal_schemas(variant, letters):
    """Instances of the normative-closure axioms the variant adds."""
    vs = [("var", x) for x in letters]
    out = []
    if variant in ("ndal1", "ndal2", "ndal3", "ndal5"):
        out += [("|", ("forb", v), ("perm", v)) for v in vs]
    if variant in ("ndal2", "ndal3", "ndal5"):
        m = ("~", vs[0])
        for v in vs[1:]:
            m = ("*", m, ("~", v))
        out.append(("|", ("perm", m), ("forb", m)))
    if variant in ("ndal3", "ndal5"):
        j = vs[0]
        for v in vs[1:]:
            j = ("+", j, v)
        out.append(("==", j, ("1",)))
    if variant in ("ndal4", "ndal5"):
        m = vs[0]
        for v in vs[1:]:
            m = ("*", m, ("~", v))
        out.append(("|", ("perm", m), ("forb", m)))
    return out


def _tautology(rng, variant, letters, props, use_schema):
    """Valid by construction: a schema instance or an excluded middle."""
    if use_schema:
        def make():
            terms = [rand_act(rng, letters, 2) for _ in range(3)]
            forms = [rand_atom(rng, letters, 1, props) for _ in range(3)]
            choices = _schemas(*terms, *forms)
            if variant not in ("dal", "dal_prop") and rng.random() < 0.3:
                return rng.choice(_ndal_schemas(variant, letters))
            return rng.choice(choices)
        ndal = variant not in ("dal", "dal_prop")
        while True:
            t = make()
            acts, ps = letters_of(t)
            # NDAL schemas range over the alphabet, so they may name fewer
            # letters than it has; everything else must name them all
            if (ndal and acts <= set(letters)) or (acts == set(letters) and ps == set(props)):
                return t
    phi = _covering(rng, lambda: rand_formula(rng, letters, 3, 2, props), letters, props)
    return ("|", phi, ("!", phi))


def _random_model(rng, variant, letters, props):
    """A random model with one outcome per non-empty minterm region of the
    letters, its statuses drawn so that the variant's closure axioms can
    hold (NDAL1: each letter picks a zone its regions stay in)."""
    n = len(letters)
    zone = [rng.choice("PF") for _ in letters]
    status = []
    for t in range(1 << n):
        if variant in ("ndal1", "ndal2", "ndal3", "ndal5") and t:
            zones = {zone[i] for i in range(n) if t >> i & 1}
            opts = "EE" + zones.pop() if len(zones) == 1 else "E"
        elif variant in ("ndal4", "ndal5") or (t == 0 and variant == "ndal2"):
            opts = "EPF"
        else:
            opts = "EPFN"
        if t == 0 and variant in ("ndal3", "ndal5"):
            opts = "E"
        status.append(rng.choice(opts))
    live = [t for t in range(1 << n) if status[t] != "E"]
    elements = [f"e{t}" for t in live]
    permitted = {f"e{t}" for t in live if status[t] == "P"}
    forbidden = {f"e{t}" for t in live if status[t] == "F"}
    val = {x: {f"e{t}" for t in live if t >> i & 1} for i, x in enumerate(letters)}
    pv = {p: rng.random() < 0.5 for p in props}
    return elements, permitted, forbidden, val, pv


def _falsifiable(rng, variant, letters, props, tries=50):
    """A random formula with a reference countermodel admissible under the
    variant, so the decider must answer Countermodel."""
    while True:
        phi = _covering(rng, lambda: rand_formula(rng, letters, 3, 2, props), letters, props)
        for _ in range(tries):
            E, P, F, val, pv = _random_model(rng, variant, letters, props)
            if (ndal_admissible(variant, letters, E, P, F, val)
                    and not model_value(phi, E, P, F, val, pv)):
                return phi


# Ops per class and variant in one classical pass (50 per variant, 350 in
# all).  Sorted by latency the classes stack up as: non-tautologies (stop at
# the first bad assignment) and 1-letter tautologies (16 assignments), both
# ~0.3-0.6 ms, 0-82%; 2-letter tautologies (256 assignments, ~2 ms) 82-98%;
# 3-letter tautologies (65,536 assignments, 0.15-1.5 s) 98-100%.  So p50
# falls inside the non-tautologies, p90 mid 2-letter tautologies, and the
# 3-letter tautologies set the throughput.  These are schema instances only,
# whose evaluation cost varies less between seeds than a random excluded
# middle's.
CLASSICAL_PLAN = {  # (letters, tautology?) -> ops per variant
    (1, False): 12, (2, False): 12, (3, False): 11,
    (1, True): 6, (2, True): 8, (3, True): 1,
}


def classical_pass(seed, k):
    rng = random.Random(f"classical:{seed}:{k}")
    ops = []
    for (n, taut), count in CLASSICAL_PLAN.items():
        for variant in CLASSICAL_VARIANTS:
            for j in range(count):
                letters = tuple(sorted(rng.sample(LETTERS, n)))
                props = ("p",) if variant == "dal_prop" else ()
                if taut:
                    tree = _tautology(rng, variant, letters, props,
                                      use_schema=n == 3 or j % 2 == 1)
                else:
                    tree = _falsifiable(rng, variant, letters, props)
                ops.append(Op(id="", cls=f"{n}L-{'taut' if taut else 'nontaut'}",
                              variant=variant, text=render(tree), tree=tree,
                              alphabet=letters,
                              expect="valid" if taut else "countermodel"))
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op.id = f"classical/{seed}/{k}/{i}"
    return ops


# ---------------------------------------------------------------------------
# Heyting workload
# ---------------------------------------------------------------------------

DATA = Path("src/dalkit/data")
IPL_POINTS, INT_POINTS = 3, 2


def theorems(name):
    lines = (DATA / name).read_text().splitlines()
    return [s.strip() for s in lines if s.strip() and not s.lstrip().startswith("#")]


def _heyting_atom(rng, letters, heyting_actions):
    t = rand_act(rng, letters, rng.randrange(1, 3), heyting_actions)
    return (rng.choice(("perm", "forb", "obl")), t)


def _refutable_candidate(rng, variant, letters):
    """Classically valid shapes that fail in some Heyting algebra."""
    templates = []
    if variant in ("dal_ipl", "dal_int"):
        X = _heyting_atom(rng, letters, variant == "dal_int")
        Y = _heyting_atom(rng, letters, variant == "dal_int")
        templates += [("|", X, ("!", X)),
                      ("->", ("!", ("!", X)), X),
                      ("->", ("->", ("->", X, Y), X), X)]
    if variant in ("dal_ial", "dal_int"):
        T = rand_act(rng, letters, rng.randrange(1, 3), True)
        U = rand_act(rng, letters, 1, True)
        templates += [("==", ("+", T, ("~", T)), ("1",)),
                      ("==", ("~", ("~", T)), T),
                      ("==", ("~>", ("~>", ("~>", T, U), T), T), ("1",))]
    return rng.choice(templates)


def refutable(rng, variant, letters):
    """A formula some witness algebra of the variant's catalog refutes, so
    the search must return a countermodel."""
    while True:
        t = _refutable_candidate(rng, variant, letters)
        if refuted_by_witness(t, variant):
            return t


# One heyting pass: every IPL theorem once (max_points=3, ~0.25 s), every INT
# theorem twice (max_points=2, ~0.04 s) and 10 seeded refutable formulas
# (< 15 ms).  Sorted by latency: refutable 0-28%, INT theorems 28-72%, IPL
# theorems 72-100%; p50 falls mid INT theorems, p90 inside IPL theorems.
REFUTABLE_PLAN = {"dal_ipl": 4, "dal_ial": 3, "dal_int": 3}
INT_REPEATS = 2


def heyting_pass(seed, k):
    rng = random.Random(f"heyting:{seed}:{k}")
    ops = [Op(id="", cls="ipl-theorem", variant="dal_ipl", text=s,
              expect="unknown", max_points=IPL_POINTS)
           for s in theorems("theorems_ipl.txt")]
    ops += [Op(id="", cls="int-theorem", variant="dal_int", text=s,
               expect="unknown", max_points=INT_POINTS)
            for s in theorems("theorems_int.txt") for _ in range(INT_REPEATS)]
    for variant, count in REFUTABLE_PLAN.items():
        points = INT_POINTS if variant == "dal_int" else IPL_POINTS
        for _ in range(count):
            letters = tuple(sorted(rng.sample(LETTERS[:3], rng.randrange(1, 3))))
            tree = refutable(rng, variant, letters)
            ops.append(Op(id="", cls="refutable", variant=variant, text=render(tree),
                          tree=tree, expect="countermodel", max_points=points))
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op.id = f"heyting/{seed}/{k}/{i}"
    return ops


# ---------------------------------------------------------------------------
# cli workload
# ---------------------------------------------------------------------------

# Every subcommand but catalog is bound by interpreter start-up and imports
# (~0.28 s each), so p50 and p90 both fall inside that one class; the single
# `catalog --max-points 5` (~5 s) of a run lies beyond p90.
CATALOG_POINTS = 5
CATALOG_ENTRIES = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63}


def _proof_expectation(text):
    for line in text.splitlines():
        _, sep, spec = line.partition("# expect:")
        if sep:
            spec = spec.strip()
            if spec == "error":
                return {"exit": 2}
            fields = dict(part.split("=", 1) for part in spec.split(maxsplit=1)[:1])
            out = {"exit": 1, "stdout": [f"line {fields['line']}:"]}
            if "reason=" in spec:
                out["stdout"].append(spec.split("reason=", 1)[1].strip())
            return out
    return {"exit": 0, "stdout": ["ok:"]}


def _algebra_size(path):
    """Element count of a .daa file's action lattice, read off its spec."""
    for line in (DATA / path).read_text().splitlines():
        spec = line.split("#", 1)[0].split()
        if spec[:1] == ["actions:"]:
            kind, args = spec[1], spec[2:]
            if kind == "chain":
                return int(args[0])
            if kind == "powerset":
                return 2 ** len(args)
            if kind == "free":
                return 2 ** (2 ** len(args))
    raise ValueError(f"{path}: no sizeable 'actions:' line")


WEEKEND = {"elements": ("e1", "e2", "e3"), "permitted": {"e1"}, "forbidden": {"e3"},
           "val": {"a": {"e1", "e2"}, "b": {"e2", "e3"}}}


def _free_quotient_size(eq, letters=("a", "b")):
    """Size of the free Boolean algebra on ``letters`` modulo one equation:
    2 to the number of minterms outside the equation's disagreement region."""
    minterms = list(itertools.product((True, False), repeat=len(letters)))
    elements = list(range(len(minterms)))
    val = {x: {i for i, m in enumerate(minterms) if m[j]} for j, x in enumerate(letters)}
    differ = 0
    for i in elements:
        # the equation, evaluated on the single-minterm model {i}
        sub = {x: val[x] & {i} for x in letters}
        if not model_value(eq, [i], (), (), sub):
            differ += 1
    return 2 ** (len(minterms) - differ)


def cli_pass(seed, k):
    rng = random.Random(f"cli:{seed}:{k}")
    ops = []

    def add(cls, argv, **check):
        ops.append(Op(id="", cls=cls, argv=tuple(argv), check=check))

    for path in sorted((DATA / "proofs").glob("*.prf")):
        add("check-proof", ["check-proof", str(path)], **_proof_expectation(path.read_text()))
    for path in sorted((DATA / "proofs" / "bad").glob("*.prf")):
        add("check-proof", ["check-proof", str(path)], **_proof_expectation(path.read_text()))
    for _ in range(4):
        letters = tuple(sorted(rng.sample(LETTERS, 2)))
        add("parse", ["parse", render(rand_formula(rng, letters, 3, 2))], exit=0)
    for _ in range(4):
        phi = rand_formula(rng, ("a", "b"), 2, 2)
        truth = model_value(phi, WEEKEND["elements"], WEEKEND["permitted"],
                            WEEKEND["forbidden"], WEEKEND["val"])
        add("eval-model", ["eval-model", "--model", str(DATA / "weekend.dam"), render(phi)],
            exit=0 if truth else 1, stdout=["true\n" if truth else "false\n"])
    # tautologies and theorems evaluate to top in every algebra of the logic
    add("eval-algebra", ["eval-algebra", "--algebra", str(DATA / "drinking.daa"),
                         render(_tautology(rng, "dal", ("a", "b"), (), rng.random() < 0.5))],
        exit=0, stdout=["top\n"])
    for name in ("closure.daa", "license.daa"):
        interp = ",".join(f"{x}=c{rng.randrange(2)}" for x in ("a", "b"))
        add("eval-algebra", ["eval-algebra", "--algebra", str(DATA / name), "--logic", "dal_ipl",
                             "--interp", interp, rng.choice(theorems("theorems_ipl.txt"))],
            exit=0, stdout=["top\n"])
    for name in ("closure.daa", "drinking.daa", "license.daa"):
        add("check-algebra", ["check-algebra", "--algebra", str(DATA / name)],
            exit=0, stdout=["ok:"])
        add("dot", ["dot", "--algebra", str(DATA / name)], exit=0,
            nodes=_algebra_size(name))
    for _ in range(2):
        eq = ("==", rand_act(rng, ("a", "b"), 2), rand_act(rng, ("a", "b"), 1))
        add("quotient", ["quotient", "--algebra", str(DATA / "drinking.daa"), render(eq)],
            exit=0, stdout=[f"quotient size: {_free_quotient_size(eq)}\n"])
    add("convert", ["convert", "--to-algebra", "--model", str(DATA / "weekend.dam")],
        exit=0, to_algebra=True)
    add("convert", ["convert", "--to-model", "--algebra", str(DATA / "drinking.daa")],
        exit=0, to_model=True)
    for j in range(4):
        n = 1 + j % 2
        variant = rng.choice(("dal", "ndal1", "ndal4"))
        letters = tuple(sorted(rng.sample(LETTERS, n)))
        taut = j < 2
        tree = (_tautology(rng, variant, letters, (), rng.random() < 0.5) if taut
                else _falsifiable(rng, variant, letters, ()))
        add("decide", ["decide", "--logic", variant, "--alphabet", ",".join(letters),
                       render(tree)],
            exit=0 if taut else 1, stdout=["valid" if taut else "countermodel:"],
            tree=tree, variant=variant, alphabet=letters)
    for j in range(4):
        if j < 2:
            variant = ("dal_ipl", "dal_ial", "dal_int")[rng.randrange(3)]
            letters = tuple(sorted(rng.sample(LETTERS[:3], 1 + j)))
            add("countermodel", ["countermodel", "--logic", variant, "--max-points", "2",
                                 render(refutable(rng, variant, letters))],
                exit=1, stdout=["countermodel:"])
        else:
            add("countermodel", ["countermodel", "--logic", "dal_int", "--max-points", "2",
                                 rng.choice(theorems("theorems_int.txt"))],
                exit=0, stdout=["unknown: no countermodel among"])
    if k == 0:
        add("catalog", ["catalog", "--max-points", str(CATALOG_POINTS)], exit=0,
            catalog=CATALOG_ENTRIES)
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op.id = f"cli/{seed}/{k}/{i}"
    return ops
