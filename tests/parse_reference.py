"""The recursive-descent parser that ``syntax._parse`` replaced, kept as the
reference the operator-precedence parser is compared against.

It tries every formula atom not led by a keyword as an action term first
and reads it again when that fails, so nested parentheses cost O(depth^2),
and it recurses once per parenthesis: only call it on small inputs.
"""

import re

from dalkit.syntax import (ActionTerm, AImpl, And, Basic, Bot, Compl, Eq, Forb, FormulaTerm,
                           Impl, Inter, LogicVariant, Not, One, Or, ParseError, Perm, Prop,
                           Top, Union, Zero)

_KEYWORDS = ("perm", "forb", "obl", "true", "false")
_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<op><->|->|~>|==|[~*+!&|()01])"
    r"|(?P<ident>[a-z][a-zA-Z0-9_]*)"
)


def _expand_impl(variant, left, right):
    return Impl(left, right) if variant.primitive_impl else Or(Not(left), right)


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


def parse_action(text, variant=LogicVariant.DAL, alphabet=None):
    return _parse(text, variant, alphabet, _Parser.action)


def parse_formula(text, variant=LogicVariant.DAL, alphabet=None):
    return _parse(text, variant, alphabet, _Parser.formula)
