"""Two-sorted language of deontic action logic.

Terms come in two sorts: action terms (a lattice/Boolean vocabulary over
basic action symbols) and formula terms (propositional connectives plus the
deontic atoms perm/forb and action equality).  The concrete syntax is
line-oriented and whitespace-insensitive; '#' starts a comment.

Operator precedence, tightest to loosest, on one scale:

    ~   *   +   ~>   ==   !   &   |   ->  <->

The operands of '~' to '==' are action terms, those of '!' to '<->'
formulas; an identifier is a basic action or a proposition as the operator
that takes it requires.  '->' and '~>' associate to the right, '==' not at
all, the remaining binary operators to the left.  ``obl(t)`` is an
abbreviation for ``forb(~t)`` and never appears in the AST.  Under classical
variants '->' and '<->' are sugar and are expanded by the parser; under
DAL_IPL / DAL_INT implication is a primitive connective (and '<->' still
expands to a conjunction of implications).  The parser is one loop over an
operand stack and an operator stack; it hash-conses each node it reduces
through ``TermSpace.node``, the one place a row is keyed and added, so a
parsed term comes with its compile_term table.  ``desugar`` and ``intern``
replay a term's table through ``node``; only a term built by hand is walked.

Terms, like the proof and result classes of the other modules, are records:
subclasses of ``Record``, which reads a class's fields from its annotations
and compiles an ``__init__`` for them when the class is made, with nothing
imported.  Terms compare, hash, print and pickle by their compile_term
tables, so none of these recurses into a deep term.
"""

from __future__ import annotations

import re
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
# Records and the AST
# ---------------------------------------------------------------------------

class Record:
    """Base of dalkit's value classes: terms, proofs and results.

    A record's fields, ``_fields``, are its bases' fields, then its own
    annotated names.  A class attribute named like a field is its default; a
    dict or list default is copied for each instance.  Unless the class
    defines ``__init__`` or has no fields, it gets one compiled for its
    fields, which sets them through ``object.__setattr__``.  Records
    compare, hash and print by their fields, and assigning to one raises
    AttributeError; ``class R(Record, frozen=False)`` makes R's instances
    assignable and unhashable."""

    _fields = ()

    def __init_subclass__(cls, frozen=True):
        super().__init_subclass__()
        cls._fields = cls._fields + tuple(cls.__annotations__)
        if not frozen:   # assignable, and so unhashable
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__
            cls.__hash__ = None
        if cls._fields and "__init__" not in cls.__dict__:
            cls.__init__ = _record_init(cls)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def _values(self):
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{self.__class__.__qualname__}({args})"


_INIT_CODE = {}   # source: code, shared by the records of one signature


def _record_init(cls):
    """cls's __init__; the default of field k is the global _d<k>.  It sets
    no attribute through the instance's __dict__, which would make Python
    build a dict per record, and more work for the garbage collector."""
    env, params, body = {"_set": object.__setattr__}, [], ""
    for k, f in enumerate(cls._fields):
        default, param, stored = getattr(cls, f, env), f, f
        if default is not env:
            env[f"_d{k}"], param = default, f"{f}=_d{k}"
            if isinstance(default, (dict, list)):
                stored = f"{f}.copy() if {f} is _d{k} else {f}"
        params.append(param)
        body += f"\n    _set(self, {f!r}, {stored})"
    src = f"def __init__(self, {', '.join(params)}):{body}"
    exec(_INIT_CODE.get(src) or _INIT_CODE.setdefault(src, compile(src, "<record>", "exec")), env)
    return env["__init__"]


class _Term(Record):
    """Terms compare, hash, print and pickle by their compile_term tables,
    which equal terms share, so none of these recurses into a deep term."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return compile_term(self) == compile_term(other)

    def __hash__(self):
        return hash(compile_term(self))

    def __repr__(self):
        """Record's repr, written from the table with a stack of pieces: a
        piece is text or the row whose repr goes there."""
        try:
            table = compile_term(self)
        except TypeError:   # a field holds no term
            return super().__repr__()
        out, todo = [], [len(table) - 1]
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            cls, name, kids, _ = table[item]
            parts = [f"{cls.__qualname__}("]
            for i, (f, v) in enumerate(zip(cls._fields, kids or [repr(name)])):
                parts += [", " * (i > 0) + f + "=", v]
            todo += reversed(parts + [")"])
        return "".join(out)

    def __reduce__(self):
        return _rebuilt, (tuple([row[:3] for row in compile_term(self)]),)


class ActionTerm(_Term):
    """Base class of action-sorted terms."""


class FormulaTerm(_Term):
    """Base class of formula-sorted terms."""


class Basic(ActionTerm):
    name: str


class Zero(ActionTerm):
    pass


class One(ActionTerm):
    pass


class Union(ActionTerm):
    left: ActionTerm
    right: ActionTerm


class Inter(ActionTerm):
    left: ActionTerm
    right: ActionTerm


class Compl(ActionTerm):
    arg: ActionTerm


class AImpl(ActionTerm):
    """Action implication (relative pseudocomplement), written '~>'."""
    left: ActionTerm
    right: ActionTerm


class AVar(ActionTerm):
    """Action metavariable; only occurs in axiom schemas."""
    name: str


class Eq(FormulaTerm):
    left: ActionTerm
    right: ActionTerm


class Perm(FormulaTerm):
    arg: ActionTerm


class Forb(FormulaTerm):
    arg: ActionTerm


class Prop(FormulaTerm):
    name: str


class Or(FormulaTerm):
    left: FormulaTerm
    right: FormulaTerm


class And(FormulaTerm):
    left: FormulaTerm
    right: FormulaTerm


class Not(FormulaTerm):
    arg: FormulaTerm


class Impl(FormulaTerm):
    left: FormulaTerm
    right: FormulaTerm


class Iff(FormulaTerm):
    left: FormulaTerm
    right: FormulaTerm


class Bot(FormulaTerm):
    pass


class Top(FormulaTerm):
    pass


class FVar(FormulaTerm):
    """Formula metavariable; only occurs in axiom schemas."""
    name: str


Term = ActionTerm | FormulaTerm


class SymbolSet(Record):
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
# Parser: one operator-precedence loop (Pratt 1973) over an operand stack
# and an operator stack, hash-consing each node as it reduces it
# ---------------------------------------------------------------------------

# One findall scan.  Group 1 is the token, empty for whitespace and
# comments; a one-character token that is no operator, atom, parenthesis
# or letter is a bad character.
_TOKEN_RE = re.compile(r"\s+|#.*|(<->|->|~>|==|[a-z][a-zA-Z0-9_]*|.)")

# token: (precedence, associativity, class), tightest first.  The operands
# of '~' to '==' are action terms, those of '!' to '<->' formulas.
_EQ = 5
_OPS = {"~": (9, "prefix", Compl), "*": (8, "left", Inter), "+": (7, "left", Union),
        "~>": (6, "right", AImpl), "==": (_EQ, "none", Eq), "!": (4, "prefix", Not),
        "&": (3, "left", And), "|": (2, "left", Or), "->": (1, "right", Impl),
        "<->": (0, "left", Iff)}
_ATOMS = {"0": Zero, "1": One, "true": Top, "false": Bot}
# An operator-stack entry is (precedence, class, sort of its operands); an
# open parenthesis, call or the root has precedence -1 and is never reduced.
_ENTRY = {tok: (prec, cls, ActionTerm if prec >= _EQ else FormulaTerm)
          for tok, (prec, _, cls) in _OPS.items()}
_CALLS = {"perm": (-1, (Perm,), ActionTerm), "forb": (-1, (Forb,), ActionTerm),
          "obl": (-1, (Compl, Forb), ActionTerm)}   # obl(t) is forb(~t)
# after an operand: a binary operator first reduces the operators at or
# above this bound; anything else ends the innermost parenthesis or the root
_BOUND = {tok: prec + (assoc == "right") for tok, (prec, assoc, _) in _OPS.items()
          if assoc != "prefix"}


def _fail(text: str, toks: list, k: int, message: str):
    """Raise ParseError at token k, or at the first bad character if there
    is one: token positions are only found here."""
    at = [m.start(1) for m in _TOKEN_RE.finditer(text) if m.group(1)] + [len(text)]
    for i, tok in enumerate(toks[:-1]):
        if tok not in _OPS and tok not in _ATOMS and tok not in "()" and not "a" <= tok[0] <= "z":
            raise ParseError(f"unexpected character {tok!r}", at[i])
    raise ParseError(message, at[k])


def _parse(text: str, variant: LogicVariant = LogicVariant.DAL, alphabet=None, start=None):
    """(term, its compile_term table) for text, a term of sort start:
    ActionTerm, FormulaTerm, or None for either.  An identifier is read as
    Basic or as Prop by the operator that takes it.  '->' and '<->' are
    expanded as they are reduced, and the '!left' of a classical one as
    soon as left is, so the rows come in the order compile_term's walk gives."""
    toks = [tok for tok in _TOKEN_RE.findall(text) if tok]
    toks.append("")   # end of input
    alphabet = None if alphabet is None else frozenset(alphabet)
    primitive = variant.primitive_impl
    space = TermSpace()
    node, impl, rows = space.node, space.impl, space.rows
    ops = [(-1, None, start or FormulaTerm)]   # the root, then operators, '(' and calls
    vals = []   # rows, and ~k for the identifier at token k until an operator takes it

    def leaf(v, cls):
        name = toks[~v]
        if cls is Basic and alphabet is not None and name not in alphabet:
            _fail(text, toks, ~v, f"basic action {name!r} is not in the declared alphabet")
        if cls is Prop and not variant.allows_props:
            _fail(text, toks, ~v, f"proposition symbol {name!r} is not admitted under {variant.value}")
        return node(cls, name)

    def formula(v, k):
        if v < 0:
            return leaf(v, Prop)
        if issubclass(rows[v][0], ActionTerm):   # an action term not followed by '=='
            _fail(text, toks, k, f"expected '==', found {toks[k] or 'end of input'!r}")
        return v

    def reduce(bound, k):
        """Reduce the operators at or above bound; token k follows them."""
        while ops[-1][0] >= bound:
            _, cls, sort = ops.pop()
            right = vals.pop()
            if sort is FormulaTerm:
                right = formula(right, k)
            if cls is Compl or cls is Not:
                vals.append(node(cls, None, (right,)))
            elif cls is Impl:
                vals[-1] = impl(primitive, vals[-1], right)
            elif cls is Iff:
                vals[-1] = node(And, None, (impl(primitive, vals[-1], right),
                                            impl(primitive, right, vals[-1])))
            else:
                vals[-1] = node(cls, None, (vals[-1], right))

    k = 0
    while True:
        # an operand: prefix operators and '(' up to an atom or an identifier
        tok, sort = toks[k], ops[-1][2]
        if tok == "~" or tok == "!" and sort is not ActionTerm:
            ops.append(_ENTRY[tok])
        elif tok == "(":
            ops.append((-1, "(", sort))
        elif tok in _CALLS and sort is not ActionTerm:
            if toks[k + 1] != "(":
                _fail(text, toks, k + 1, f"expected '(', found {toks[k + 1] or 'end of input'!r}")
            ops.append(_CALLS[tok])
            k += 1
        else:
            cls = _ATOMS.get(tok)
            if cls is not None and (sort is not ActionTerm or cls is Zero or cls is One):
                vals.append(node(cls, None))
            elif "a" <= tok[:1] <= "z" and cls is None and tok not in _CALLS:
                vals.append(leaf(~k, Basic) if sort is ActionTerm else ~k)
            else:
                what = "an action term" if sort is ActionTerm else "a formula"
                _fail(text, toks, k, f"expected {what}, found {repr(tok) if tok else 'end of input'}")
            # then binary operators and ')', up to the next operand
            while True:
                k += 1
                tok = toks[k]
                bound = _BOUND.get(tok)
                if bound is not None:
                    if ops[-1][0] >= bound:
                        reduce(bound, k)
                    prec, _, cls = _OPS[tok]
                    left, sort = vals[-1], ops[-1][2]
                    if prec < _EQ and sort is not ActionTerm:
                        vals[-1] = left = formula(left, k)
                        if (cls is Impl or cls is Iff) and not primitive:
                            node(Not, None, (left,))
                        break
                    if prec >= _EQ and (left < 0 or issubclass(rows[left][0], ActionTerm)) and \
                            not (cls is Eq and sort is ActionTerm):
                        if cls is AImpl and not variant.allows_aimpl:
                            _fail(text, toks, k,
                                  f"action implication '~>' is not admitted under {variant.value}")
                        if left < 0:
                            vals[-1] = leaf(left, Basic)
                        break
                # a binary operator whose sorts do not fit here, ')' or anything else
                # ends the innermost parenthesis or call, or the root
                reduce(0, k)
                closes = ops[-1][1]
                if closes is None:
                    root = vals.pop()
                    if start is FormulaTerm:
                        root = formula(root, k)
                    elif root < 0:
                        root = leaf(root, Prop if start is None and variant.allows_props else Basic)
                    if tok:
                        _fail(text, toks, k, f"unexpected trailing input {tok!r}")
                    term = _rebuilt(rows)   # the root is the last row
                    return term, term._table
                if tok != ")":
                    _fail(text, toks, k, f"expected ')', found {tok or 'end of input'!r}")
                ops.pop()
                if closes != "(":
                    for cls in closes:
                        vals[-1] = node(cls, None, (vals[-1],))
            ops.append(_ENTRY[tok])
        k += 1


def parse_action(text: str, variant: LogicVariant = LogicVariant.DAL,
                 alphabet=None) -> ActionTerm:
    return _parse(text, variant, alphabet, ActionTerm)[0]


def parse_formula(text: str, variant: LogicVariant = LogicVariant.DAL,
                  alphabet=None) -> FormulaTerm:
    """Parse a formula under the given variant's gating rules; '<->' and,
    unless primitive, '->' are expanded as they are read."""
    return _parse(text, variant, alphabet, FormulaTerm)[0]


# ---------------------------------------------------------------------------
# Term tables: one non-recursive walker for every evaluator
# ---------------------------------------------------------------------------

_TERMS = frozenset(ActionTerm.__subclasses__() + FormulaTerm.__subclasses__())
_NAMED = frozenset((Basic, AVar, Prop, FVar))
_FIELDS = {cls: cls._fields for cls in _TERMS}
_CLOSE = object()   # stack marker: build the row of the node below it


class TermSpace:
    """Terms hash-consed into rows (Filliatre & Conchon 2006): row i is
    (class, name of a symbol or metavariable leaf or None, child rows, all
    before i), keyed and added by ``node`` alone.  Two terms made in one
    space are equal iff they get the same row.  A space holds rows only."""

    def __init__(self):
        self.rows, self.index = [], {}

    def node(self, cls, name, kids=()) -> int:
        """The row (cls, name, kids), added if new."""
        key = (cls, name, kids)
        row = self.index.get(key)
        if row is None:
            row = self.index[key] = len(self.rows)
            self.rows.append(key)
        return row

    def impl(self, primitive: bool, left: int, right: int) -> int:
        """The row of left -> right: primitive, or sugar for !left | right."""
        if primitive:
            return self.node(Impl, None, (left, right))
        return self.node(Or, None, (self.node(Not, None, (left,)), right))

    def intern(self, t: Term) -> int:
        """t's row: compile_term(t) replayed through node."""
        node, rows = self.node, []
        for cls, name, kids, _ in compile_term(t):
            rows.append(node(cls, name, tuple([rows[k] for k in kids])))
        return rows[-1]

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
    its dead rows: the children whose last use it is.  Kept on the
    immutable t, so a term is walked at most once; a parsed term comes with
    the table its parser built."""
    table = getattr(t, "_table", None)
    if table is None:
        table = _with_dead(_walk(t))
        object.__setattr__(t, "_table", table)
    return table


def _walk(t: Term) -> list:
    """The rows of t, children before parents: the one object walk."""
    space, row_of, todo = TermSpace(), {}, [t]
    while todo:
        obj = todo.pop()
        if obj is _CLOSE:   # all children have rows now; a term's fields are its children
            obj = todo.pop()
            kids = tuple([row_of[id(getattr(obj, f))] for f in _FIELDS[type(obj)]])
            row_of[id(obj)] = space.node(type(obj), None, kids)
        elif id(obj) not in row_of:
            cls = type(obj)
            if cls not in _TERMS:
                raise TypeError(f"not a term: {cls.__name__}")
            if cls in _NAMED:
                row_of[id(obj)] = space.node(cls, obj.name)
            else:
                todo += (obj, _CLOSE, *[getattr(obj, f) for f in reversed(_FIELDS[cls])])
    return space.rows


def _with_dead(rows: list) -> tuple:
    """The rows, each extended by the children whose last use it is."""
    seen, out = set(), []
    for key in reversed(rows):
        dead = ()
        for k in key[2]:
            if k not in seen:
                seen.add(k)
                dead += (k,)
        out.append((*key, dead))
    out.reverse()
    return tuple(out)


def _terms(rows) -> list:
    """One term per row, children before parents; a shared row is one object."""
    terms = []
    for cls, name, kids in rows:
        terms.append(cls(*[terms[k] for k in kids]) if name is None else cls(name))
    return terms


def _rebuilt(rows) -> Term:
    """The last row's term, keeping its canonical post-order rows as its table."""
    t = _terms(rows)[-1]
    object.__setattr__(t, "_table", _with_dead(rows))
    return t


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

def desugar(t: Term, variant: LogicVariant) -> Term:
    """Expand sugar ('<->' always; '->' unless primitive) and check gating.

    Idempotent.  Raises ParseError when the term uses a connective or symbol
    class the variant does not admit.  The result keeps no table: its rows
    need not come in the order compile_term's walk gives.
    """
    space, rows, primitive = TermSpace(), [], variant.primitive_impl
    for cls, name, kids, _ in compile_term(t):
        kids = tuple([rows[k] for k in kids])
        if cls is Prop and not variant.allows_props:
            raise ParseError(f"proposition symbol {name!r} is not admitted under {variant.value}")
        if cls is AImpl and not variant.allows_aimpl:
            raise ParseError(f"action implication '~>' is not admitted under {variant.value}")
        if cls is Iff:   # the conjunction of both implications
            cls, kids = And, (space.impl(primitive, *kids), space.impl(primitive, *kids[::-1]))
        rows.append(space.impl(primitive, *kids) if cls is Impl else space.node(cls, name, kids))
    return _terms(space.rows)[rows[-1]]


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
