"""Two-sorted language of deontic action logic.

Terms come in two sorts: action terms (a lattice/Boolean vocabulary over
basic action symbols) and formula terms (propositional connectives plus the
deontic atoms perm/forb and action equality).  The concrete syntax is
line-oriented and whitespace-insensitive; '#' starts a comment.

Operator precedence, tightest to loosest:

    actions:   ~   *   +   ~>
    formulas:  !   &   |   ->  <->

'->' and '~>' associate to the right, the remaining binary operators to the
left.  ``obl(t)`` is an abbreviation for ``forb(~t)`` and never appears in the
AST.  Under classical variants '->' and '<->' are sugar and are expanded by
the parser; under DAL_IPL / DAL_INT implication is a primitive connective
(and '<->' still expands to a conjunction of implications).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum


class LogicVariant(Enum):
    DAL = "dal"
    NDAL1 = "ndal1"
    NDAL2 = "ndal2"
    NDAL3 = "ndal3"
    NDAL4 = "ndal4"
    NDAL5 = "ndal5"
    DAL_PROP = "dal_prop"
    DAL_IPL = "dal_ipl"
    DAL_IAL = "dal_ial"
    DAL_INT = "dal_int"

    @property
    def allows_props(self) -> bool:
        return self in _PROP_VARIANTS

    @property
    def primitive_impl(self) -> bool:
        """Formula implication is a primitive connective (not sugar)."""
        return self in (LogicVariant.DAL_IPL, LogicVariant.DAL_INT)

    @property
    def allows_aimpl(self) -> bool:
        """Action implication '~>' is part of the action vocabulary."""
        return self in (LogicVariant.DAL_IAL, LogicVariant.DAL_INT)

    @property
    def requires_alphabet(self) -> bool:
        """Variant needs a declared finite basic-action alphabet."""
        return self in (LogicVariant.NDAL2, LogicVariant.NDAL3,
                        LogicVariant.NDAL4, LogicVariant.NDAL5)


_PROP_VARIANTS = (LogicVariant.DAL_PROP, LogicVariant.DAL_IPL,
                  LogicVariant.DAL_IAL, LogicVariant.DAL_INT)


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class ActionTerm:
    """Base class of action-sorted terms."""


class FormulaTerm:
    """Base class of formula-sorted terms."""


@dataclass(frozen=True)
class Basic(ActionTerm):
    name: str


@dataclass(frozen=True)
class Zero(ActionTerm):
    pass


@dataclass(frozen=True)
class One(ActionTerm):
    pass


@dataclass(frozen=True)
class Union(ActionTerm):
    left: ActionTerm
    right: ActionTerm


@dataclass(frozen=True)
class Inter(ActionTerm):
    left: ActionTerm
    right: ActionTerm


@dataclass(frozen=True)
class Compl(ActionTerm):
    arg: ActionTerm


@dataclass(frozen=True)
class AImpl(ActionTerm):
    """Action implication (relative pseudocomplement), written '~>'."""
    left: ActionTerm
    right: ActionTerm


@dataclass(frozen=True)
class AVar(ActionTerm):
    """Action metavariable; only occurs in axiom schemas."""
    name: str


@dataclass(frozen=True)
class Eq(FormulaTerm):
    left: ActionTerm
    right: ActionTerm


@dataclass(frozen=True)
class Perm(FormulaTerm):
    arg: ActionTerm


@dataclass(frozen=True)
class Forb(FormulaTerm):
    arg: ActionTerm


@dataclass(frozen=True)
class Prop(FormulaTerm):
    name: str


@dataclass(frozen=True)
class Or(FormulaTerm):
    left: FormulaTerm
    right: FormulaTerm


@dataclass(frozen=True)
class And(FormulaTerm):
    left: FormulaTerm
    right: FormulaTerm


@dataclass(frozen=True)
class Not(FormulaTerm):
    arg: FormulaTerm


@dataclass(frozen=True)
class Impl(FormulaTerm):
    left: FormulaTerm
    right: FormulaTerm


@dataclass(frozen=True)
class Iff(FormulaTerm):
    left: FormulaTerm
    right: FormulaTerm


@dataclass(frozen=True)
class Bot(FormulaTerm):
    pass


@dataclass(frozen=True)
class Top(FormulaTerm):
    pass


@dataclass(frozen=True)
class FVar(FormulaTerm):
    """Formula metavariable; only occurs in axiom schemas."""
    name: str


Term = ActionTerm | FormulaTerm


@dataclass(frozen=True)
class SymbolSet:
    """Basic-action and proposition symbols of a term, each sorted."""
    actions: tuple[str, ...]
    props: tuple[str, ...]


class ParseError(ValueError):
    """Syntax or variant-gating error, with source position."""

    def __init__(self, message: str, pos: int = -1):
        super().__init__(f"{message} (at position {pos})" if pos >= 0 else message)
        self.pos = pos


class BudgetExceeded(RuntimeError):
    """An exhaustive enumeration would exceed the configured budget."""


class ConditionError(ValueError):
    """A deontic-algebra condition fails; carries the condition id and witness."""

    def __init__(self, condition: str, witness: str):
        super().__init__(f"condition {condition} fails: {witness}")
        self.condition = condition
        self.witness = witness


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_KEYWORDS = ("perm", "forb", "obl", "true", "false")
_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<op><->|->|~>|==|[~*+!&|()01])"
    r"|(?P<ident>[a-z][a-zA-Z0-9_]*)"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, pos) triples; kind is 'op', 'ident', 'kw' or 'eof'."""
    out = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        if m.lastgroup == "op":
            out.append(("op", m.group(), i))
        elif m.lastgroup == "ident":
            word = m.group()
            out.append(("kw" if word in _KEYWORDS else "ident", word, i))
        i = m.end()
    out.append(("eof", "", len(text)))
    return out


# ---------------------------------------------------------------------------
# Parser (recursive descent; one token of backtracking for '==' atoms)
# ---------------------------------------------------------------------------

def _expand_impl(variant: LogicVariant, left: FormulaTerm, right: FormulaTerm) -> FormulaTerm:
    """'->' as the variant reads it: primitive, or sugar for '!left | right'."""
    return Impl(left, right) if variant.primitive_impl else Or(Not(left), right)


def _fold_right(parts: list, make):
    t = parts.pop()
    while parts:
        t = make(parts.pop(), t)
    return t


class _Parser:
    def __init__(self, text: str, variant: LogicVariant, alphabet=None):
        self.toks = _tokenize(text)
        self.i = 0
        self.variant = variant
        self.alphabet = None if alphabet is None else frozenset(alphabet)

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, text: str):
        kind, tok, pos = self.next()
        if tok != text:
            raise ParseError(f"expected {text!r}, found {tok or 'end of input'!r}", pos)

    def fail_eof_or(self, what: str):
        kind, tok, pos = self.peek()
        found = "end of input" if kind == "eof" else repr(tok)
        raise ParseError(f"expected {what}, found {found}", pos)

    def prefixed(self, op: str, atom, make):
        """atom() under a chain of prefix ops, counted in a loop."""
        n = 0
        while self.peek()[1] == op:
            self.next()
            n += 1
        t = atom()
        for _ in range(n):
            t = make(t)
        return t

    # -- actions ------------------------------------------------------------

    def action(self) -> ActionTerm:
        parts = [self.action_union()]
        while self.peek()[1] == "~>":
            kind, tok, pos = self.next()
            if not self.variant.allows_aimpl:
                raise ParseError(
                    f"action implication '~>' is not admitted under {self.variant.value}", pos)
            parts.append(self.action_union())
        return _fold_right(parts, AImpl)

    def action_union(self) -> ActionTerm:
        t = self.action_inter()
        while self.peek()[1] == "+":
            self.next()
            t = Union(t, self.action_inter())
        return t

    def action_inter(self) -> ActionTerm:
        t = self.prefixed("~", self.action_atom, Compl)
        while self.peek()[1] == "*":
            self.next()
            t = Inter(t, self.prefixed("~", self.action_atom, Compl))
        return t

    def action_atom(self) -> ActionTerm:
        kind, tok, pos = self.peek()
        if tok == "0":
            self.next()
            return Zero()
        if tok == "1":
            self.next()
            return One()
        if tok == "(":
            self.next()
            t = self.action()
            self.expect(")")
            return t
        if kind == "ident":
            self.next()
            if self.alphabet is not None and tok not in self.alphabet:
                raise ParseError(f"basic action {tok!r} is not in the declared alphabet", pos)
            return Basic(tok)
        self.fail_eof_or("an action term")

    # -- formulas -----------------------------------------------------------

    def formula(self) -> FormulaTerm:
        t = self.formula_impl()
        while self.peek()[1] == "<->":
            self.next()
            rhs = self.formula_impl()
            t = And(_expand_impl(self.variant, t, rhs), _expand_impl(self.variant, rhs, t))
        return t

    def formula_impl(self) -> FormulaTerm:
        parts = [self.formula_or()]
        while self.peek()[1] == "->":
            self.next()
            parts.append(self.formula_or())
        return _fold_right(parts, lambda left, right: _expand_impl(self.variant, left, right))

    def formula_or(self) -> FormulaTerm:
        t = self.formula_and()
        while self.peek()[1] == "|":
            self.next()
            t = Or(t, self.formula_and())
        return t

    def formula_and(self) -> FormulaTerm:
        t = self.prefixed("!", self.formula_atom, Not)
        while self.peek()[1] == "&":
            self.next()
            t = And(t, self.prefixed("!", self.formula_atom, Not))
        return t

    def formula_atom(self) -> FormulaTerm:
        kind, tok, pos = self.peek()
        # an equality atom starts with an action term, so try that first,
        # unless at a keyword, with which no action term starts
        start = self.i
        if kind != "kw":
            try:
                lhs = self.action()
                if self.peek()[1] == "==":
                    self.next()
                    return Eq(lhs, self.action())
                self.i = start
            except ParseError:
                self.i = start
        if tok in ("perm", "forb", "obl"):
            self.next()
            self.expect("(")
            arg = self.action()
            self.expect(")")
            if tok == "perm":
                return Perm(arg)
            if tok == "forb":
                return Forb(arg)
            return Forb(Compl(arg))
        if tok == "true":
            self.next()
            return Top()
        if tok == "false":
            self.next()
            return Bot()
        if tok == "(":
            self.next()
            t = self.formula()
            self.expect(")")
            return t
        if kind == "ident":
            self.next()
            if not self.variant.allows_props:
                raise ParseError(
                    f"proposition symbol {tok!r} is not admitted under {self.variant.value}", pos)
            return Prop(tok)
        self.fail_eof_or("a formula")

    def done(self):
        kind, tok, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected trailing input {tok!r}", pos)


def _parse(text, variant, alphabet, start):
    p = _Parser(text, variant, alphabet)
    try:
        t = start(p)
    except RecursionError:   # only parentheses recurse
        raise ParseError("input nested too deeply") from None
    p.done()
    return t


def parse_action(text: str, variant: LogicVariant = LogicVariant.DAL,
                 alphabet=None) -> ActionTerm:
    return _parse(text, variant, alphabet, _Parser.action)


def parse_formula(text: str, variant: LogicVariant = LogicVariant.DAL,
                  alphabet=None) -> FormulaTerm:
    """Parse a formula under the given variant's gating rules; '<->' and,
    unless primitive, '->' are expanded as they are read."""
    return _parse(text, variant, alphabet, _Parser.formula)


# ---------------------------------------------------------------------------
# Term tables: one non-recursive walker for every evaluator
# ---------------------------------------------------------------------------

_TERMS = frozenset(ActionTerm.__subclasses__() + FormulaTerm.__subclasses__())
_NAMED = frozenset((Basic, AVar, Prop, FVar))
_CLOSE = object()   # stack marker: build the row of the node below it


class TermSpace:
    """Terms hash-consed into rows (Filliatre & Conchon 2006): row i is
    (class, name of a symbol or metavariable leaf or None, child rows, all
    before i), and terms[i] is one term of row i.  Two terms interned into
    one space are equal iff they get the same row.  Nodes are looked up by
    id(), so the space holds every term interned: no id is reused in it."""

    def __init__(self):
        self.rows, self.terms, self.index, self.row_of, self.held = [], [], {}, {}, []

    def intern(self, t: Term) -> int:
        """t's row, after adding rows for its subterms new to the space;
        built without recursion, children before parents."""
        rows, terms, index, row_of, todo = self.rows, self.terms, self.index, self.row_of, [t]
        self.held.append(t)
        while todo:
            node = todo.pop()
            if node is _CLOSE:   # all children have rows now; a term's fields are its children
                node = todo.pop()
                key = (type(node), None, tuple([row_of[id(k)] for k in vars(node).values()]))
            else:
                if id(node) in row_of:
                    continue
                cls = type(node)
                if cls not in _TERMS:
                    raise TypeError(f"not a term: {cls.__name__}")
                if cls not in _NAMED:
                    todo += (node, _CLOSE, *reversed(vars(node).values()))
                    continue
                key = (cls, node.name, ())
            row = index.setdefault(key, len(rows))
            if row == len(rows):
                rows.append(key)
                terms.append(node)
            row_of[id(node)] = row
        return row_of[id(t)]

    def substitutes(self, res: int, orig: int, alpha: int, beta: int) -> bool:
        """True iff row res is row orig with zero or more occurrences of row
        alpha replaced by row beta."""
        rows, todo, seen = self.rows, [(res, orig)], set()
        while todo:
            pair = r, o = todo.pop()
            if r == o or o == alpha and r == beta or pair in seen:
                continue
            seen.add(pair)
            if rows[r][:2] != rows[o][:2]:   # class or name differ
                return False
            todo += zip(rows[r][2], rows[o][2])
        return True


def compile_term(t: Term) -> tuple:
    """The rows of t in a fresh TermSpace, the root last, each extended by
    its dead rows: the children whose last use it is.  Built without recursion."""
    space = TermSpace()
    space.intern(t)
    last = {k: row for row, (_, _, kids) in enumerate(space.rows) for k in kids}
    return tuple([(*key, tuple({k for k in key[2] if last[k] == row}))
                  for row, key in enumerate(space.rows)])


def run(table: tuple, ops: dict, env):
    """Evaluate a compile_term table with one flat loop and return the root's
    value.  Row i's value is ops[class](env, name, *child values); a value is
    dropped after its last use, so only a frontier of them is alive."""
    vals = []
    value_of = vals.__getitem__
    for cls, name, kids, dead in table:
        vals.append(ops[cls](env, name, *map(value_of, kids)))
        for k in dead:
            vals[k] = None
    return vals[-1]


def table_names(table: tuple, *classes) -> tuple[str, ...]:
    """The sorted names of the table's leaves of the given classes."""
    return tuple(sorted({name for cls, name, _, _ in table if cls in classes}))


# ---------------------------------------------------------------------------
# Desugaring
# ---------------------------------------------------------------------------

def _rebuild(cls):
    return lambda variant, name, *kids: cls(*kids) if name is None else cls(name)


def _check_aimpl(variant, _, left, right):
    if not variant.allows_aimpl:
        raise ParseError(f"action implication '~>' is not admitted under {variant.value}")
    return AImpl(left, right)


def _check_prop(variant, name):
    if not variant.allows_props:
        raise ParseError(f"proposition symbol {name!r} is not admitted under {variant.value}")
    return Prop(name)


_DESUGAR_OPS = {cls: _rebuild(cls) for cls in _TERMS} | {
    AImpl: _check_aimpl,
    Prop: _check_prop,
    Impl: lambda variant, _, left, right: _expand_impl(variant, left, right),
    Iff: lambda variant, _, left, right: And(_expand_impl(variant, left, right),
                                             _expand_impl(variant, right, left)),
}


def desugar(t: Term, variant: LogicVariant) -> Term:
    """Expand sugar ('<->' always; '->' unless primitive) and check gating.

    Idempotent.  Raises ParseError when the term uses a connective or symbol
    class the variant does not admit.
    """
    return run(compile_term(t), _DESUGAR_OPS, variant)


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

# class: (own precedence, pieces).  A piece is text, None for the leaf's
# name, or (k, level): child k, parenthesized if its own precedence is below
# level.  An equality atom is not self-delimiting, so its precedence 0
# parenthesizes it everywhere but at the top.
_ATOM = 6
_PRINT = {
    Basic: (_ATOM, (None,)), AVar: (_ATOM, (None,)),
    Prop: (_ATOM, (None,)), FVar: (_ATOM, (None,)),
    Zero: (_ATOM, ("0",)), One: (_ATOM, ("1",)),
    Top: (_ATOM, ("true",)), Bot: (_ATOM, ("false",)),
    AImpl: (1, ((0, 2), " ~> ", (1, 1))),
    Union: (2, ((0, 2), " + ", (1, 3))),
    Inter: (3, ((0, 3), " * ", (1, 4))),
    Compl: (4, ("~", (0, 4))),
    Perm: (_ATOM, ("perm(", (0, 0), ")")),
    Forb: (_ATOM, ("forb(", (0, 0), ")")),
    Eq: (0, ((0, 0), " == ", (1, 0))),
    Iff: (1, ((0, 1), " <-> ", (1, 2))),
    Impl: (2, ((0, 3), " -> ", (1, 2))),
    Or: (3, ((0, 3), " | ", (1, 4))),
    And: (4, ((0, 4), " & ", (1, 5))),
    Not: (5, ("!", (0, 5))),
}


def _implication(table, row, primitive):
    """(a, b) if the row is a -> b as the parser builds it: Impl(a, b) where
    implication is primitive, Or(Not(a), b) where it is not."""
    cls, _, kids, _ = table[row]
    if primitive:
        return kids if cls is Impl else None
    if cls is Or and table[kids[0]][0] is Not:
        return table[kids[0]][2][0], kids[1]
    return None


def print_term(t: Term, variant: LogicVariant = LogicVariant.DAL) -> str:
    """The term as text.  A conjunction that is the variant's own expansion
    of p <-> q prints as p <-> q, which the parser reads back under that
    variant as the same term, so a chain of them prints in linear size."""
    table = compile_term(t)
    out, todo = [], [(len(table) - 1, 0)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        cls, name, kids, _ = table[item[0]]
        if cls is And and table[kids[0]][0] is table[kids[1]][0]:
            sides = _implication(table, kids[0], variant.primitive_impl)
            if sides and sides[::-1] == _implication(table, kids[1], variant.primitive_impl):
                cls, kids = Iff, sides
        own, pieces = _PRINT[cls]
        parts = [name if p is None else p if isinstance(p, str) else (kids[p[0]], p[1])
                 for p in pieces]
        if own < item[1]:
            parts = ["(", *parts, ")"]
        todo.extend(reversed(parts))
    return "".join(out)


print_action = print_formula = print_term


# ---------------------------------------------------------------------------
# Symbol collection and substitution instances
# ---------------------------------------------------------------------------

def symbols(t: Term) -> SymbolSet:
    table = compile_term(t)
    return SymbolSet(table_names(table, Basic), table_names(table, Prop))


def metavariables(t: Term) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(action metavars, formula metavars) occurring in a schema pattern."""
    table = compile_term(t)
    return table_names(table, AVar), table_names(table, FVar)


def is_substitution_instance(psi: Term, phi: Term, alpha: ActionTerm, beta: ActionTerm) -> bool:
    """True iff psi is phi with zero or more occurrences of alpha replaced by beta."""
    space = TermSpace()
    return space.substitutes(*map(space.intern, (psi, phi, alpha, beta)))
