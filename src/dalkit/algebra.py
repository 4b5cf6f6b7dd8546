"""Finite deontic action algebras.

A deontic action algebra couples an action lattice A and a formula lattice F
(each Boolean or Heyting, giving flavors BB/BH/HB/HH) through three maps:

    E : A x A -> F   graded equality
    P : A -> F       permission
    F : A -> F       prohibition

subject to the conditions

    1. P(a+b) = P(a) & P(b)
    2. F(a+b) = F(a) & F(b)
    3. P(a) & F(a) = E(a, 0)
    4. E(a,b) & P(a) <= P(b)
    5. E(a,b) & F(a) <= F(b)
    6. E(a,b) = top  iff  a == b

``build`` checks these exhaustively with the one law checker of ``lattice``,
in the fixed order 6, 3, 1, 2, 4, 5, and names the first condition that
fails with its first counterexample.  E defaults to the crisp equality (top
on the diagonal, bot off it); a graded E may be supplied explicitly.

Terms are evaluated under an Interpretation mapping basic actions to action
elements and propositions to formula elements.  Schema metavariables (AVar /
FVar) are resolved through the same maps, so quantifying an interpretation
over metavariable names checks an axiom schema semantically.  Evaluation is
the one table walker of ``syntax`` (``compile_term`` + ``run``) with the
one op set below.  ``evaluate`` runs it on the algebra itself, over one
interpretation that covers every symbol, with no numpy.  ``evaluate_batch``,
``valid_in`` and ``act_eq_iff_form_eq`` run it over numpy arrays of
interpretations, on numpy copies of the tables (``_arrays``, once per
algebra); they and the P/F enumeration import numpy when called.
"""

from __future__ import annotations

from operator import eq

from . import syntax as S
from .lattice import (HeytingAlgebra, PowersetAlgebra, _first_failure,
                      _gather, _lookup, _pointwise, _Table, is_boolean, is_ideal)
from .syntax import BudgetExceeded, ConditionError  # defined numpy-free, re-exported here


class Interpretation(S.Record):
    """Maps basic action symbols and propositions to algebra elements."""
    act: dict = {}   # each default is copied per instance
    prop: dict = {}


class DeonticAlgebra:
    """Validated deontic action algebra; construct through ``build``.

    ``P`` and ``F`` are tuples of formula elements indexed by action
    element.  ``E``, ``perm`` and ``forb`` take elements or rows, as the
    lattice operations do."""

    def __init__(self, action, formula, P, F, E=None):
        self.action: HeytingAlgebra = action
        self.formula: HeytingAlgebra = formula
        self._pf = _Table([P, F])
        self.P, self.F = self._pf
        self._E = None if E is None else _Table(E)
        self._crisp = _Table([(formula.bot, formula.top)])

    @property
    def flavor(self) -> str:
        return "".join("B" if is_boolean(x) else "H" for x in (self.action, self.formula))

    def E(self, a, b):
        if self._E is None:
            return _gather(self._crisp, _pointwise(eq, a, b))
        return _lookup(self._E, a, b)

    def perm(self, a):
        return _lookup(self._pf, 0, a)

    def forb(self, a):
        return _lookup(self._pf, 1, a)

    @property
    def crisp_equality(self) -> bool:
        return self._E is None

    def __repr__(self):
        return (f"<DeonticAlgebra {self.flavor} |A|={self.action.size} "
                f"|F|={self.formula.size}>")


_COND_CHUNK = 1 << 22


def build(action: HeytingAlgebra, formula: HeytingAlgebra, P, F, E=None) -> DeonticAlgebra:
    """Validate conditions 1-6 and return the algebra.

    P and F are sequences of formula elements indexed by action element; E is
    an optional |A| x |A| array of formula elements (crisp equality when
    omitted).  Raises ConditionError naming the first violated condition.
    """
    D = DeonticAlgebra(action, formula, P, F, E)
    A, Fm = action, formula
    n = A.size
    if len(D.P) != n or len(D.F) != n:
        raise ValueError("P and F must assign one formula element per action element")
    for vec, what in ((D.P, "P"), (D.F, "F")):
        if any(not 0 <= x < Fm.size for x in vec):
            raise ValueError(f"{what} contains an out-of-range formula element")
    if D._E is not None:
        if len(D._E) != n or any(len(row) != n for row in D._E):
            raise ValueError("E must be an |A| x |A| table of formula elements")
        if any(not 0 <= x < Fm.size for row in D._E for x in row):
            raise ValueError("E contains an out-of-range formula element")

    def name(i):
        return A.element_name(i)

    def at(a, b):
        return f"at ({name(a)}, {name(b)})"

    P, F, E = D.perm, D.forb, D.E
    # (condition, arity, law, witness text); condition 6 first: conditions
    # 3-5 quote E, and the off-diagonal check relies on the diagonal one
    laws = [] if D._E is None else [
        ("6", 1, lambda x: (E(x, x), Fm.top), lambda a: f"E({name(a)}, {name(a)}) != top"),
        ("6", 2, lambda x, y: (_pointwise(eq, E(x, y), Fm.top), _pointwise(eq, x, y)),
         lambda a, b: f"E({name(a)}, {name(b)}) = top but the elements differ"),
    ]
    laws += [
        ("3", 1, lambda x: (Fm.meet(P(x), F(x)), E(x, A.bot)),
         lambda a: f"P & F at {name(a)} is {Fm.element_name(Fm.meet(P(a), F(a)))}, "
                   f"E(a,0) is {Fm.element_name(E(a, A.bot))}"),
        ("1", 2, lambda x, y: (P(A.join(x, y)), Fm.meet(P(x), P(y))), at),
        ("2", 2, lambda x, y: (F(A.join(x, y)), Fm.meet(F(x), F(y))), at),
        ("4", 2, lambda x, y: (Fm.join(Fm.meet(E(x, y), P(x)), P(y)), P(y)), at),
        ("5", 2, lambda x, y: (Fm.join(Fm.meet(E(x, y), F(x)), F(y)), F(y)), at),
    ]
    for cid, arity, law, text in laws:
        witness = _first_failure(n, arity, law)
        if witness is not None:
            raise ConditionError(cid, text(*witness))
    return D


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

# Table semantics: values are lattice elements, or arrays of them.  Every
# operation goes through env["D"], so anything with the same attributes can
# stand in for a DeonticAlgebra: the numpy copy of _arrays does for the batch
# evaluators, and the Heyting search runs a chunk of catalog pairs at once
# this way.
_TABLE_OPS = {
    S.Basic: lambda env, name: env["acts"][name],
    S.Zero: lambda env, _: env["D"].action.bot,
    S.One: lambda env, _: env["D"].action.top,
    S.Union: lambda env, _, a, b: env["D"].action.join(a, b),
    S.Inter: lambda env, _, a, b: env["D"].action.meet(a, b),
    S.Compl: lambda env, _, a: env["D"].action.compl(a),
    S.AImpl: lambda env, _, a, b: env["D"].action.impl(a, b),
    S.AVar: lambda env, name: env["acts"][name],
    S.Eq: lambda env, _, a, b: env["D"].E(a, b),
    S.Perm: lambda env, _, a: env["D"].perm(a),
    S.Forb: lambda env, _, a: env["D"].forb(a),
    S.Prop: lambda env, name: env["props"][name],
    S.Or: lambda env, _, a, b: env["D"].formula.join(a, b),
    S.And: lambda env, _, a, b: env["D"].formula.meet(a, b),
    S.Not: lambda env, _, a: env["D"].formula.compl(a),
    S.Impl: lambda env, _, a, b: env["D"].formula.impl(a, b),
    S.Iff: lambda env, _, a, b: env["D"].formula.meet(env["D"].formula.impl(a, b),
                                                      env["D"].formula.impl(b, a)),
    S.Bot: lambda env, _: env["D"].formula.bot,
    S.Top: lambda env, _: env["D"].formula.top,
    S.FVar: lambda env, name: env["props"][name],
}


def _run_table(D: DeonticAlgebra, acts: dict, props: dict, table):
    return S.run(table, _TABLE_OPS, {"D": D, "acts": acts, "props": props})


class _Sort:
    """Lattices side by side over numpy index arrays: element i of the k-th
    distinct one has id k*m + i, m the largest size, so an operation on two
    ids of one lattice is one flat take at x*m + y.  Per lattice of ``side``:
    ``off``, the id of its element 0, ``size``, and ``lo``/``hi``, the ids of
    its bot and top.  ``bounded(at)`` is a view whose bot and top are those
    of the lattices at ``at``.  The Heyting search lays out one side of a
    catalog's pairs this way; _arrays lays out a single lattice."""

    def __init__(self, side):
        import numpy as np
        index = {L: k for k, L in enumerate(dict.fromkeys(side))}   # lattices hash by identity
        m = self.m = max(L.size for L in index)
        self._join, self._meet, self._impl = (np.zeros(len(index) * m * (m + 1), np.int32)
                                              for _ in range(3))
        self._compl = np.zeros(len(index) * m, np.int32)
        for L, k in index.items():
            off, x, row = k * m, np.arange(L.size), tuple(range(L.size))
            at = (off + x[:, None]) * m + off + x
            ops = (L.join, L.meet) + ((L.impl,) if isinstance(L, HeytingAlgebra) else ())
            for table, op in zip((self._join, self._meet, self._impl), ops):
                table[at] = off + np.array([op(a, row) for a in row]).reshape(L.size, L.size)
            if isinstance(L, HeytingAlgebra):
                self._compl[off + x] = off + np.array(L.compl(row))
        self.off = np.array([index[L] * m for L in side], np.int32)
        self.size = np.array([L.size for L in side], np.int32)
        self.lo = self.off + [L.bot for L in side]
        self.hi = self.off + [L.top for L in side]

    def bounded(self, at):
        view = object.__new__(_Sort)
        view.__dict__.update(self.__dict__, bot=self.lo[at, None], top=self.hi[at, None])
        return view

    def join(self, x, y):
        return self._join.take(x * self.m + y)

    def meet(self, x, y):
        return self._meet.take(x * self.m + y)

    def impl(self, x, y):
        return self._impl.take(x * self.m + y)

    def compl(self, x):
        return self._compl.take(x)


class _AlgebraArrays:
    """A DeonticAlgebra's operations over numpy index arrays."""

    def __init__(self, D):
        import numpy as np
        self.action, self.formula = _arrays(D.action), _arrays(D.formula)
        self.perm, self.forb = np.array(D.P, np.int32).take, np.array(D.F, np.int32).take
        bot, top = self.formula.bot, self.formula.top
        E = None if D._E is None else np.array(D._E, np.int32)
        self.E = ((lambda x, y: np.where(np.asarray(x) == np.asarray(y), top, bot)) if E is None
                  else lambda x, y: E[x, y])


def _arrays(x):
    """The numpy stand-in of a lattice or a DeonticAlgebra in _TABLE_OPS,
    built on first use and kept on x.  A powerset algebra computes bitwise,
    on arrays as on elements, and stands in for itself."""
    if isinstance(x, PowersetAlgebra):
        return x
    view = x.__dict__.get("_numpy_view")
    if view is None and isinstance(x, DeonticAlgebra):
        view = x._numpy_view = _AlgebraArrays(x)
    elif view is None:
        view = x._numpy_view = _Sort((x,))
        view.bot, view.top = x.bot, x.top
    return view


def evaluate(D: DeonticAlgebra, h: Interpretation, t: S.Term) -> int:
    """Value of a (desugared) term: an action element or a formula element."""
    table = S.compile_term(t)
    for cls, name, _, _ in table:
        if cls in (S.Basic, S.AVar) and name not in h.act:
            raise KeyError(f"interpretation does not cover the basic action {name!r}")
        if cls in (S.Prop, S.FVar) and name not in h.prop:
            raise KeyError(f"interpretation does not cover the proposition {name!r}")
    return int(_run_table(D, h.act, h.prop, table))


def evaluate_batch(D: DeonticAlgebra, assign: dict, t: S.Term):
    """Evaluate over numpy arrays of elements (one array per symbol name)."""
    return _run_table(_arrays(D), assign, assign, S.compile_term(t))


def satisfies(D: DeonticAlgebra, h: Interpretation, lhs: S.Term, rhs: S.Term) -> bool:
    """D, h |= lhs = rhs (both sides of the same sort)."""
    if isinstance(lhs, S.ActionTerm) != isinstance(rhs, S.ActionTerm):
        raise ValueError("equation sides must be of the same sort")
    return evaluate(D, h, lhs) == evaluate(D, h, rhs)


def _assignment_grid(D, act_names, prop_names, max_interps):
    import numpy as np
    na, nf = D.action.size, D.formula.size
    total = (na ** len(act_names)) * (nf ** len(prop_names))
    if total > max_interps:
        raise BudgetExceeded(
            f"{total} interpretations exceed the budget of {max_interps}")
    assign = {}
    period = total
    base = np.arange(total)
    for name in act_names:
        period //= na
        assign[name] = (base // period) % na
    for name in prop_names:
        period //= nf
        assign[name] = (base // period) % nf
    return assign, total


def _both_sides(D, lhs, rhs, max_interps):
    """(value of lhs, value of rhs, count) over the grid of every interpretation
    of their symbols and metavariables."""
    tables = S.compile_term(lhs), S.compile_term(rhs)
    both = tables[0] + tables[1]
    assign, total = _assignment_grid(D, S.table_names(both, S.Basic, S.AVar),
                                     S.table_names(both, S.Prop, S.FVar), max_interps)
    return *(_run_table(_arrays(D), assign, assign, table) for table in tables), total


def valid_in(D: DeonticAlgebra, lhs: S.Term, rhs: S.Term,
             max_interps: int = 4_000_000) -> bool:
    """lhs = rhs under every interpretation of the occurring symbols."""
    import numpy as np
    if isinstance(lhs, S.ActionTerm) != isinstance(rhs, S.ActionTerm):
        raise ValueError("equation sides must be of the same sort")
    va, vb, total = _both_sides(D, lhs, rhs, max_interps)
    return total == 0 or bool(np.all(va == vb))


def valid_formula_in(D: DeonticAlgebra, t: S.FormulaTerm,
                     max_interps: int = 4_000_000) -> bool:
    """t evaluates to top under every interpretation."""
    return valid_in(D, t, S.Top(), max_interps=max_interps)


def act_eq_iff_form_eq(D: DeonticAlgebra, a: S.ActionTerm, b: S.ActionTerm,
                       max_interps: int = 4_000_000) -> bool:
    """h(a) == h(b) iff E(h(a), h(b)) = top, for every interpretation h."""
    import numpy as np
    va, vb, total = _both_sides(D, a, b, max_interps)
    same = np.broadcast_to(np.asarray(va) == np.asarray(vb), (total,))
    etop = np.broadcast_to(_arrays(D).E(va, vb) == D.formula.top, (total,))
    return bool(np.all(same == etop))


# ---------------------------------------------------------------------------
# Structure of P and F
# ---------------------------------------------------------------------------

def preimage_ideals(D: DeonticAlgebra):
    """The top-preimages of P and F; checks both are ideals meeting in {0}."""
    p_set = frozenset(a for a, x in enumerate(D.P) if x == D.formula.top)
    f_set = frozenset(a for a, x in enumerate(D.F) if x == D.formula.top)
    if not is_ideal(D.action, p_set):
        raise ConditionError("ideal(P)", f"{sorted(p_set)} is not an ideal")
    if not is_ideal(D.action, f_set):
        raise ConditionError("ideal(F)", f"{sorted(f_set)} is not an ideal")
    if p_set & f_set != {D.action.bot}:
        raise ConditionError("ideal-intersection",
                             f"{sorted(p_set & f_set)} != {{{D.action.bot}}}")
    return p_set, f_set


def check_ndal(D: DeonticAlgebra, generators, k: int) -> bool:
    """Check the k-th normative-closure condition.

    Each k checks the condition its class adds (k=5 combines 3 and 4):
      1: F(g) + P(g) = top for every generator g
      2: P(m) + F(m) = top for m the meet of the generator complements
      3: the generators join to 1
      4: P(a) + F(a) = top for every atom a of the action algebra
    """
    A, Fm = D.action, D.formula
    gens = [A.index_of(g) if isinstance(g, str) else int(g) for g in generators]

    def closed(x):
        return Fm.join(D.P[x], D.F[x]) == Fm.top

    if k == 1:
        return all(closed(g) for g in gens)
    if k == 2:
        m = A.top
        for g in gens:
            m = A.meet(m, A.compl(g))
        return closed(m)
    if k == 3:
        j = A.bot
        for g in gens:
            j = A.join(j, g)
        return j == A.top
    if k == 4:
        return all(closed(a) for a in A.atoms())
    if k == 5:
        return check_ndal(D, gens, 3) and check_ndal(D, gens, 4)
    raise ValueError("k must be in 1..5")


def subalgebra_check(D_sub: DeonticAlgebra, D: DeonticAlgebra,
                     act_emb, form_emb):
    """Do the embeddings witness D_sub as a deontic subalgebra of D?

    Returns (ok, report): injectivity, preservation of bounds and operations
    on both sorts, and commutation with E, P and F.
    """
    report = []
    act_emb = list(act_emb)
    form_emb = list(form_emb)

    def check_lattice(sub, big, emb, tag):
        if len(emb) != sub.size:
            report.append(f"{tag}: embedding must list one image per element")
            return
        if len(set(emb)) != len(emb):
            report.append(f"{tag}: embedding is not injective")
        if any(not 0 <= e < big.size for e in emb):
            report.append(f"{tag}: embedding image out of range")
            return
        if emb[sub.bot] != big.bot or emb[sub.top] != big.top:
            report.append(f"{tag}: bounds are not preserved")
        names = ("join", "meet")
        if isinstance(sub, HeytingAlgebra) and isinstance(big, HeytingAlgebra):
            names += ("impl",)
        img = _Table([emb])
        fails = []
        for k, name in enumerate(names):
            op_sub, op_big = getattr(sub, name), getattr(big, name)
            witness = _first_failure(sub.size, 2, lambda x, y: (
                _gather(img, op_sub(x, y)), op_big(_gather(img, x), _gather(img, y))))
            if witness is not None:
                fails.append((witness, k))
        if fails:  # the first failing pair; at a pair, join before meet before impl
            (a, b), k = min(fails)
            report.append(f"{tag}: {names[k]} not preserved at ({a}, {b})")

    check_lattice(D_sub.action, D.action, act_emb, "action")
    check_lattice(D_sub.formula, D.formula, form_emb, "formula")
    if report:
        return False, report
    for a in range(D_sub.action.size):
        if form_emb[D_sub.P[a]] != D.P[act_emb[a]]:
            report.append(f"P not preserved at {a}")
        if form_emb[D_sub.F[a]] != D.F[act_emb[a]]:
            report.append(f"F not preserved at {a}")
        for b in range(D_sub.action.size):
            if form_emb[D_sub.E(a, b)] != D.E(act_emb[a], act_emb[b]):
                report.append(f"E not preserved at ({a}, {b})")
                break
    return not report, report


# ---------------------------------------------------------------------------
# P/F map enumeration (used by searches and tests)
# ---------------------------------------------------------------------------

def extend_by_irreducibles(action: HeytingAlgebra, formula: HeytingAlgebra,
                           ji, values):
    """Antitone extension: map x to the formula-meet of values at ji below x.

    Join-irreducible generation makes condition 1 (join-to-meet) automatic in
    a distributive lattice; the empty meet puts top at 0.  Leading axes of
    ``values`` stack several assignments, and the maps stack the same way.
    """
    import numpy as np
    values = np.asarray(values, dtype=np.int32)
    out = np.full(values.shape[:-1] + (action.size,), formula.top, dtype=np.int32)
    meet = _arrays(formula).meet
    for i, j in enumerate(ji):
        above = [x for x in range(action.size) if action.leq(j, x)]
        out[..., above] = meet(out[..., above], values[..., i, None])
    return out


def _pf_steps(action: HeytingAlgebra, formula: HeytingAlgebra):
    """(antitone maps, P maps per block, F maps per block) of _pf_stacks."""
    total = formula.size ** len(action.join_irreducibles())
    fstep = max(1, min(total, _COND_CHUNK // action.size))
    return total, max(1, _COND_CHUNK // (fstep * action.size)), fstep


def _pf_one_block(action: HeytingAlgebra, formula: HeytingAlgebra) -> bool:
    """Whether _pf_stacks covers the pair's whole P x F product in one block."""
    total, pstep, _ = _pf_steps(action, formula)
    return pstep >= total


def _pf_stacks(action: HeytingAlgebra, formula: HeytingAlgebra):
    """The valid (P, F) pairs in enumerate_pf_maps order, as non-empty blocks
    (Ps, Fs, pi, fi): the pairs are (Ps[pi[k]], Fs[fi[k]]).  Condition 3 is one
    broadcast per block of at most ``_COND_CHUNK`` cells, the F maps blocked
    too (against one P map each) if they fill one."""
    import numpy as np
    ji = action.join_irreducibles()
    total, pstep, fstep = _pf_steps(action, formula)
    rest = np.arange(action.size) != action.bot
    meet = _arrays(formula).meet

    def maps(lo, hi):  # antitone maps lo..hi-1 in itertools.product order
        codes = np.arange(lo, min(hi, total))[:, None] // formula.size ** np.arange(len(ji))[::-1]
        return extend_by_irreducibles(action, formula, ji, codes % formula.size)

    for p0 in range(0, total, pstep):
        Ps = maps(p0, p0 + pstep)
        for f0 in range(0, total, fstep):
            Fs = Ps if pstep >= total else maps(f0, f0 + fstep)   # one block: the same maps
            ok = (meet(Ps[:, None, rest], Fs[None, :, rest]) == formula.bot).all(axis=2)
            pi, fi = np.nonzero(ok)
            if len(pi):
                yield Ps, Fs, pi, fi


def enumerate_pf_maps(action: HeytingAlgebra, formula: HeytingAlgebra):
    """All valid (P, F) pairs with crisp E, in deterministic order.

    Pairs are generated from formula-element assignments to the action
    algebra's join-irreducibles, P-major, and filtered by condition 3 (with
    crisp E, conditions 4-6 hold automatically and 1-2 hold by construction).
    """
    for Ps, Fs, pi, fi in _pf_stacks(action, formula):
        yield from zip(Ps[pi], Fs[fi])
