"""Hilbert-style proof checking for every logic variant.

A proof is a sequence of formulas, each justified as an instance of an axiom
schema or by modus ponens from two earlier lines.  A check replays the
tables of its lines, parsed with them, and patterns into one TermSpace, and
a schema matches by one loop over (pattern row, line row) pairs that binds
each metavariable (AVar over action terms, FVar over formulas) to one row.
The modus-ponens major premise must be the row TermSpace.impl makes: !x | y
under classical variants, x -> y under DAL_IPL/DAL_INT.

Axiom identifiers:

  A1-A13, LEM     action-lattice equations (formulas with a top-level ==)
  A1'-A13', LEM'  their propositional counterparts (classical variants)
  H1-H12          intuitionistic propositional axioms (DAL_IPL, DAL_INT)
  HA1-HA3         Heyting action equations for ~> (DAL_IAL, DAL_INT);
                  HA1 is a * (a ~> b) == a * b, the sound form of the
                  corresponding Heyting-algebra law
  E1, E2          equality; E2 accepts replacement of any subset of the
                  occurrences of the equated term
  D1-D3           permission/prohibition
  NDAL1-NDAL4     normative-closure extras (NDAL1 ranges over basic actions;
                  NDAL2-4 are closed formulas over the declared alphabet)
"""

from __future__ import annotations

from functools import lru_cache

from . import syntax as S
from .syntax import LogicVariant as V


class AxiomSchema(S.Record):
    id: str
    pattern: S.FormulaTerm | None   # None: matched specially (E2)
    variant: V
    basic_vars: frozenset = frozenset()   # metavariables restricted to Basic


class Axiom(S.Record):
    id: str


class MP(S.Record):
    i: int
    j: int


class Proof(S.Record):
    variant: V
    lines: tuple   # of (FormulaTerm, Axiom | MP)
    alphabet: tuple | None = None


class ProofResult(S.Record):
    ok: bool
    line: int | None = None
    reason: str | None = None

    def __bool__(self):
        return self.ok


OK = ProofResult(True)


def _av(n):
    return S.AVar(n)


def _fv(n):
    return S.FVar(n)


def _action_group():
    a, b, c = _av("α"), _av("β"), _av("γ")
    U, I, C = S.Union, S.Inter, S.Compl
    return [
        ("A1", I(a, I(b, c)), I(I(a, b), c)),
        ("A2", I(a, b), I(b, a)),
        ("A3", I(a, a), a),
        ("A4", I(a, U(a, b)), a),
        ("A5", I(a, U(b, c)), U(I(a, b), I(a, c))),
        ("A6", I(a, S.Zero()), S.Zero()),
        ("A7", I(a, C(a)), S.Zero()),
        ("A8", U(a, U(b, c)), U(U(a, b), c)),
        ("A9", U(a, b), U(b, a)),
        ("A10", U(a, a), a),
        ("A11", U(a, I(a, b)), a),
        ("A12", U(a, I(b, c)), I(U(a, b), U(a, c))),
        ("A13", U(a, S.One()), S.One()),
        ("LEM", U(a, C(a)), S.One()),
    ]


def _heyting_action_group():
    a, b, c = _av("α"), _av("β"), _av("γ")
    I, R = S.Inter, S.AImpl
    return [
        ("HA1", I(a, R(a, b)), I(a, b)),
        ("HA2", I(R(I(a, b), a), c), c),
        ("HA3", I(a, R(b, c)), I(a, R(I(a, b), I(a, c)))),
    ]


def _formula_group():
    p, q, r = _fv("φ"), _fv("ψ"), _fv("χ")
    O, A, N = S.Or, S.And, S.Not
    return [
        ("A1'", A(p, A(q, r)), A(A(p, q), r)),
        ("A2'", A(p, q), A(q, p)),
        ("A3'", A(p, p), p),
        ("A4'", A(p, O(p, q)), p),
        ("A5'", A(p, O(q, r)), O(A(p, q), A(p, r))),
        ("A6'", A(p, S.Bot()), S.Bot()),
        ("A7'", A(p, N(p)), S.Bot()),
        ("A8'", O(p, O(q, r)), O(O(p, q), r)),
        ("A9'", O(p, q), O(q, p)),
        ("A10'", O(p, p), p),
        ("A11'", O(p, A(p, q)), p),
        ("A12'", O(p, A(q, r)), A(O(p, q), O(p, r))),
        ("A13'", O(p, S.Top()), S.Top()),
        ("LEM'", O(p, N(p)), S.Top()),
    ]


def _ipl_group():
    p, q, r = _fv("φ"), _fv("ψ"), _fv("χ")
    O, A, N, M = S.Or, S.And, S.Not, S.Impl
    return [
        ("H1", M(p, O(p, q))),
        ("H2", M(p, O(q, p))),
        ("H3", M(A(p, q), p)),
        ("H4", M(A(p, q), q)),
        ("H5", M(M(p, S.Bot()), N(p))),
        ("H6", M(N(p), M(p, S.Bot()))),
        ("H7", M(S.Bot(), p)),
        ("H8", M(p, S.Top())),
        ("H9", M(p, M(q, p))),
        ("H10", M(p, M(q, A(p, q)))),
        ("H11", M(M(p, r), M(M(q, r), M(O(p, q), r)))),
        ("H12", M(M(p, M(q, r)), M(M(p, q), M(p, r)))),
    ]


def _deontic_group():
    a, b = _av("α"), _av("β")
    return [
        ("D1", S.Iff(S.Perm(S.Union(a, b)), S.And(S.Perm(a), S.Perm(b)))),
        ("D2", S.Iff(S.Forb(S.Union(a, b)), S.And(S.Forb(a), S.Forb(b)))),
        ("D3", S.Iff(S.And(S.Perm(a), S.Forb(a)), S.Eq(a, S.Zero()))),
    ]


def _meetc(names):
    t = S.Compl(S.Basic(names[0]))
    for n in names[1:]:
        t = S.Inter(t, S.Compl(S.Basic(n)))
    return t


def _joinb(names):
    t = S.Basic(names[0])
    for n in names[1:]:
        t = S.Union(t, S.Basic(n))
    return t


def _minterms(names):
    out = []
    for bits in range(1 << len(names)):
        t = None
        for i, n in enumerate(names):
            lit = S.Basic(n) if bits >> i & 1 else S.Compl(S.Basic(n))
            t = lit if t is None else S.Inter(t, lit)
        out.append(t)
    return out


def _ndal_extras(variant, alphabet):
    extras = []
    closure = S.Or(S.Forb(_av("α")), S.Perm(_av("α")))
    if variant in (V.NDAL1, V.NDAL2, V.NDAL3, V.NDAL5):
        extras.append(("NDAL1", closure, frozenset({"α"})))
    if variant in (V.NDAL2, V.NDAL3, V.NDAL5):
        m = _meetc(alphabet)
        extras.append(("NDAL2", S.Or(S.Perm(m), S.Forb(m)), frozenset()))
    if variant in (V.NDAL3, V.NDAL5):
        extras.append(("NDAL3", S.Eq(_joinb(alphabet), S.One()), frozenset()))
    if variant in (V.NDAL4, V.NDAL5):
        for m in _minterms(alphabet):
            extras.append(("NDAL4", S.Or(S.Perm(m), S.Forb(m)), frozenset()))
    return extras


@lru_cache(maxsize=None)
def axiom_table(variant: V, alphabet: tuple | None = None):
    """The variant's axiom schemas, desugared, in presentation order."""
    if variant.requires_alphabet and not alphabet:
        raise ValueError(f"{variant.value} needs a declared finite alphabet")
    entries = []

    def eq_schemas(group):
        return [(i, S.Eq(l, r)) for i, l, r in group]

    if variant in (V.DAL_IAL, V.DAL_INT):
        entries += eq_schemas(_action_group()[:-1])   # LEM dropped
        entries += eq_schemas(_heyting_action_group())
    else:
        entries += eq_schemas(_action_group())
    if variant in (V.DAL_IPL, V.DAL_INT):
        entries += [(i, p) for i, p in _ipl_group()]
    else:
        entries += [(i, S.Iff(l, r)) for i, l, r in _formula_group()]
    entries.append(("E1", S.Eq(_av("α"), _av("α"))))
    entries.append(("E2", None))
    entries += _deontic_group()
    basic = {}
    for extra in _ndal_extras(variant, alphabet or ()):
        i, pat, bv = extra
        entries.append((i, pat))
        basic[len(entries) - 1] = bv
    out = []
    for k, (i, pat) in enumerate(entries):
        if pat is not None:
            pat = S.desugar(pat, variant)
        out.append(AxiomSchema(i, pat, variant, basic.get(k, frozenset())))
    return tuple(out)


# ---------------------------------------------------------------------------
# Matching, on the rows of one TermSpace
# ---------------------------------------------------------------------------

_SORT = {S.AVar: S.ActionTerm, S.FVar: S.FormulaTerm}


@lru_cache(maxsize=None)
def _e2_pattern(variant: V) -> S.FormulaTerm:
    """E2's shape (α = β ∧ φ) → ψ, desugared; the replacement is checked on the rows."""
    return S.desugar(S.Impl(S.And(S.Eq(_av("α"), _av("β")), _fv("φ")), _fv("ψ")), variant)


def _match_rows(space: S.TermSpace, pat: int, row: int, basic=()) -> dict | None:
    """{metavariable: row} making pattern row pat into row, or None.  A metavariable
    binds a row of its sort (Basic if in ``basic``), and once bound only that row."""
    rows, binds, todo = space.rows, {}, [(pat, row)]
    while todo:
        p, r = todo.pop()
        (pc, pn, pk), (rc, rn, rk) = rows[p], rows[r]
        if pc in _SORT:
            sort = S.Basic if pn in basic else _SORT[pc]
            if not issubclass(rc, sort) or binds.setdefault(pn, r) != r:
                return None
        elif rc is not pc or rn != pn:
            return None
        else:
            todo += zip(pk, rk)
    return binds


def _pattern(schema: AxiomSchema) -> S.FormulaTerm:
    return _e2_pattern(schema.variant) if schema.id == "E2" else schema.pattern


def _match(space: S.TermSpace, row: int, schema: AxiomSchema, pat: int) -> dict | None:
    """Bindings making the schema's pattern, interned in space as pat, into row."""
    if schema.id != "E2":
        return _match_rows(space, pat, row, schema.basic_vars)
    b = _match_rows(space, pat, row)
    return b if b is not None and space.substitutes(b["ψ"], b["φ"], b["α"], b["β"]) else None


def match_schema(phi: S.FormulaTerm, schema: AxiomSchema):
    """(matched, bindings) for a desugared formula against one schema."""
    space = S.TermSpace()
    binds = _match(space, space.intern(phi), schema, space.intern(_pattern(schema)))
    if binds is None:
        return False, None
    terms = S._terms(space.rows)
    return True, {name: terms[r] for name, r in binds.items()}


def check_proof(p: Proof, variant: V | None = None) -> ProofResult:
    """Validate every line; the first bad line wins.  Terms are compared
    by their rows in one TermSpace, modus ponens' expected implication too."""
    variant = variant or p.variant
    table = axiom_table(variant, p.alphabet)
    space, rows, pats = S.TermSpace(), [], {}   # pats: schema position -> its pattern's row

    def matches(i):
        if i not in pats:
            pats[i] = space.intern(_pattern(table[i]))
        return _match(space, rows[-1], table[i], pats[i]) is not None

    for k, (phi, just) in enumerate(p.lines, start=1):
        rows.append(space.intern(phi))
        if isinstance(just, Axiom):
            # ids may repeat (one closed formula per minterm), so try them all
            candidates = [i for i, s in enumerate(table) if s.id == just.id]
            if not candidates:
                return ProofResult(False, k, f"unknown axiom {just.id} for {variant.value}")
            if not any(matches(i) for i in candidates):
                return ProofResult(False, k, f"not an instance of {just.id}")
        elif isinstance(just, MP):
            if not (1 <= just.i < k and 1 <= just.j < k):
                return ProofResult(False, k, "mp must cite earlier lines")
            if rows[just.j - 1] != space.impl(variant.primitive_impl, rows[just.i - 1], rows[-1]):
                return ProofResult(
                    False, k,
                    f"line {just.j} is not (line {just.i}) -> (line {k})")
        else:
            return ProofResult(False, k, f"unknown justification {just!r}")
    return OK
