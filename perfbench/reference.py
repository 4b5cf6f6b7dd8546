"""Reference semantics, written apart from dalkit's own evaluators.

Terms are plain tuples built by ``corpus``; the benchmark renders them to
text for dalkit and evaluates the same tuples here, so a verdict is never
checked by the code that produced it.

Action terms: ("var", name) ("0",) ("1",) ("+", l, r) ("*", l, r) ("~", x)
("~>", l, r).  Formulas: ("perm", t) ("forb", t) ("obl", t) ("==", t, u)
("prop", name) ("true",) ("false",) ("!", f) ("&", f, g) ("|", f, g)
("->", f, g) ("<->", f, g).
"""

from __future__ import annotations

import itertools


def letters_of(term, acc=None):
    """Action letters and proposition names occurring in a term."""
    acc = acc if acc is not None else (set(), set())
    op = term[0]
    if op == "var":
        acc[0].add(term[1])
    elif op == "prop":
        acc[1].add(term[1])
    else:
        for sub in term[1:]:
            letters_of(sub, acc)
    return acc


# ---------------------------------------------------------------------------
# Set semantics over deontic models
# ---------------------------------------------------------------------------

def model_value(phi, elements, permitted, forbidden, val, props=None):
    """Truth of phi in the model (E, P, F) under val (letter -> subset)."""
    full = frozenset(elements)
    P, F = frozenset(permitted), frozenset(forbidden)

    def act(t):
        op = t[0]
        if op == "var":
            return frozenset(val[t[1]])
        if op == "0":
            return frozenset()
        if op == "1":
            return full
        if op == "+":
            return act(t[1]) | act(t[2])
        if op == "*":
            return act(t[1]) & act(t[2])
        if op == "~":
            return full - act(t[1])
        raise ValueError(f"{op} has no model semantics")

    def form(f):
        op = f[0]
        if op == "perm":
            return act(f[1]) <= P
        if op == "forb":
            return act(f[1]) <= F
        if op == "obl":
            return full - act(f[1]) <= F
        if op == "==":
            return act(f[1]) == act(f[2])
        if op == "prop":
            return bool(props[f[1]])
        if op == "true":
            return True
        if op == "false":
            return False
        if op == "!":
            return not form(f[1])
        if op == "&":
            return form(f[1]) and form(f[2])
        if op == "|":
            return form(f[1]) or form(f[2])
        if op == "->":
            return not form(f[1]) or form(f[2])
        if op == "<->":
            return form(f[1]) == form(f[2])
        raise ValueError(f"not a formula: {f!r}")

    return form(phi)


def _closed(region, P, F):
    return region <= P or region <= F


def ndal_admissible(variant, alphabet, elements, permitted, forbidden, val):
    """Does the model satisfy the variant's normative-closure axioms?

    Read off the model itself: NDAL1 every letter's extension lies inside P
    or inside F; NDAL2 so does the meet of the letter complements; NDAL3
    that meet is empty; NDAL4 every minterm region lies inside P or F;
    NDAL5 is NDAL3 and NDAL4.  ``dal`` and ``dal_prop`` admit every model.
    """
    full = frozenset(elements)
    P, F = frozenset(permitted), frozenset(forbidden)
    ext = [frozenset(val.get(a, ())) for a in alphabet]
    rest = full.difference(*ext)

    def ndal1():
        return all(_closed(r, P, F) for r in ext)

    def ndal4():
        for bits in itertools.product((True, False), repeat=len(ext)):
            region = full
            for inside, r in zip(bits, ext):
                region = region & r if inside else region - r
            if not _closed(region, P, F):
                return False
        return True

    if variant in ("dal", "dal_prop"):
        return True
    if variant == "ndal1":
        return ndal1()
    if variant == "ndal2":
        return ndal1() and _closed(rest, P, F)
    if variant == "ndal3":
        return ndal1() and not rest
    if variant == "ndal4":
        return ndal4()
    if variant == "ndal5":
        return ndal1() and not rest and ndal4()
    raise ValueError(f"not a classical variant: {variant}")


# ---------------------------------------------------------------------------
# Table semantics over finite algebras
# ---------------------------------------------------------------------------

def algebra_value(phi, action, formula, P, F, E, act_val, prop_val=None):
    """Value of phi by table lookups through the lattices' join/meet/impl.

    ``action`` and ``formula`` need ``join``, ``meet``, ``impl``, ``bot`` and
    ``top``; P and F are indexable by action elements, E is a two-argument
    callable.  Returns a formula element.
    """
    A, Fm = action, formula

    def act(t):
        op = t[0]
        if op == "var":
            return act_val[t[1]]
        if op == "0":
            return A.bot
        if op == "1":
            return A.top
        if op == "+":
            return A.join(act(t[1]), act(t[2]))
        if op == "*":
            return A.meet(act(t[1]), act(t[2]))
        if op == "~":
            return A.impl(act(t[1]), A.bot)
        if op == "~>":
            return A.impl(act(t[1]), act(t[2]))
        raise ValueError(f"not an action term: {t!r}")

    def form(f):
        op = f[0]
        if op == "perm":
            return int(P[act(f[1])])
        if op == "forb":
            return int(F[act(f[1])])
        if op == "obl":
            return int(F[A.impl(act(f[1]), A.bot)])
        if op == "==":
            return int(E(act(f[1]), act(f[2])))
        if op == "prop":
            return prop_val[f[1]]
        if op == "true":
            return Fm.top
        if op == "false":
            return Fm.bot
        if op == "!":
            return Fm.impl(form(f[1]), Fm.bot)
        if op == "&":
            return Fm.meet(form(f[1]), form(f[2]))
        if op == "|":
            return Fm.join(form(f[1]), form(f[2]))
        if op == "->":
            return Fm.impl(form(f[1]), form(f[2]))
        if op == "<->":
            a, b = form(f[1]), form(f[2])
            return Fm.meet(Fm.impl(a, b), Fm.impl(b, a))
        raise ValueError(f"not a formula: {f!r}")

    return form(phi)


class Chain:
    """The n-element chain 0 < 1 < ... < n-1 as a Heyting algebra."""

    def __init__(self, n):
        self.size, self.bot, self.top = n, 0, n - 1

    def join(self, a, b):
        return max(a, b)

    def meet(self, a, b):
        return min(a, b)

    def impl(self, a, b):
        return self.top if a <= b else b


def _crisp(formula):
    return lambda a, b: formula.top if a == b else formula.bot


# Small algebras whose deontic conditions hold by inspection: on a chain an
# antitone P or F preserves joins as meets, and P(a) & F(a) is bot exactly
# off 0.  Each is a member of the variant's search catalog at max_points=2
# (the 2-chain is the one-point downset algebra, the 3-chain the two-point
# one, the 2-chain of actions the powerset of one atom).
_C2, _C3 = Chain(2), Chain(3)
WITNESSES = {
    "dal_ipl": [(_C2, _C3, (2, 1), (2, 0)), (_C2, _C3, (2, 0), (2, 1))],
    "dal_ial": [(_C3, _C2, (1, 1, 1), (1, 0, 0)), (_C3, _C2, (1, 0, 0), (1, 1, 1))],
    "dal_int": [(_C3, _C3, (2, 1, 1), (2, 0, 0)), (_C3, _C3, (2, 0, 0), (2, 1, 1)),
                (_C3, _C2, (1, 1, 1), (1, 0, 0))],
}


def refuted_by_witness(phi, variant):
    """True when some witness algebra of the variant gives phi a non-top value."""
    acts, props = (sorted(s) for s in letters_of(phi))
    for action, formula, P, F in WITNESSES[variant]:
        E = _crisp(formula)
        for avals in itertools.product(range(action.size), repeat=len(acts)):
            for pvals in itertools.product(range(formula.size), repeat=len(props)):
                v = algebra_value(phi, action, formula, P, F, E,
                                  dict(zip(acts, avals)), dict(zip(props, pvals)))
                if v != formula.top:
                    return True
    return False
