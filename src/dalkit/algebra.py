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

``build`` checks these exhaustively.  E defaults to the crisp equality (top
on the diagonal, bot off it); a graded E may be supplied explicitly.

Terms are evaluated under an Interpretation mapping basic actions to action
elements and propositions to formula elements.  Schema metavariables (AVar /
FVar) are resolved through the same maps, so quantifying an interpretation
over metavariable names checks an axiom schema semantically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import syntax as S
from .lattice import (BooleanAlgebra, HeytingAlgebra, is_boolean, is_ideal)


class BudgetExceeded(RuntimeError):
    """An exhaustive enumeration would exceed the configured budget."""


class ConditionError(ValueError):
    """A deontic-algebra condition fails; carries the condition id and witness."""

    def __init__(self, condition: str, witness: str):
        super().__init__(f"condition {condition} fails: {witness}")
        self.condition = condition
        self.witness = witness


@dataclass(frozen=True)
class Interpretation:
    """Maps basic action symbols and propositions to algebra elements."""
    act: dict = field(default_factory=dict)
    prop: dict = field(default_factory=dict)


class DeonticAlgebra:
    """Validated deontic action algebra; construct through ``build``."""

    def __init__(self, action, formula, P, F, E=None):
        self.action: HeytingAlgebra = action
        self.formula: HeytingAlgebra = formula
        self.P = np.asarray(P, dtype=np.int32)
        self.F = np.asarray(F, dtype=np.int32)
        self._E = None if E is None else np.asarray(E, dtype=np.int32)

    @property
    def flavor(self) -> str:
        return "".join("B" if is_boolean(x) else "H" for x in (self.action, self.formula))

    def E(self, a: int, b: int) -> int:
        if self._E is None:
            return self.formula.top if a == b else self.formula.bot
        return int(self._E[a, b])

    def vE(self, x, y):
        if self._E is None:
            return np.where(np.asarray(x) == np.asarray(y), self.formula.top, self.formula.bot)
        return self._E[x, y]

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
    if D.P.shape != (n,) or D.F.shape != (n,):
        raise ValueError("P and F must assign one formula element per action element")
    for arr, what in ((D.P, "P"), (D.F, "F")):
        if arr.size and (arr.min() < 0 or arr.max() >= Fm.size):
            raise ValueError(f"{what} contains an out-of-range formula element")
    if D._E is not None:
        if D._E.shape != (n, n):
            raise ValueError("E must be an |A| x |A| table of formula elements")
        if D._E.min() < 0 or D._E.max() >= Fm.size:
            raise ValueError("E contains an out-of-range formula element")

    def name_a(i):
        return A.element_name(i)

    # condition 6 first: it is cheap and conditions 3-5 quote E
    if D._E is not None:
        diag = D._E.diagonal()
        bad = np.nonzero(diag != Fm.top)[0]
        if len(bad):
            a = int(bad[0])
            raise ConditionError("6", f"E({name_a(a)}, {name_a(a)}) != top")
        off = D._E == Fm.top
        np.fill_diagonal(off, False)
        bad = np.nonzero(off)
        if len(bad[0]):
            a, b = int(bad[0][0]), int(bad[1][0])
            raise ConditionError("6", f"E({name_a(a)}, {name_a(b)}) = top but the elements differ")

    # condition 3: P(a) & F(a) = E(a, 0)
    idx = np.arange(n)
    lhs = Fm.vmeet(D.P[idx], D.F[idx])
    rhs = D.vE(idx, np.full(n, A.bot))
    bad = np.nonzero(lhs != rhs)[0]
    if len(bad):
        a = int(bad[0])
        raise ConditionError("3", f"P & F at {name_a(a)} is "
                             f"{Fm.element_name(int(lhs[a]))}, E(a,0) is {Fm.element_name(int(rhs[a]))}")

    # conditions 1, 2, 4, 5 are quadratic; chunk over the first coordinate
    leq_f = None
    step = max(1, _COND_CHUNK // max(n, 1))
    for a0 in range(0, n, step):
        a = np.arange(a0, min(n, a0 + step))[:, None]
        b = idx[None, :]
        j = A.vjoin(a, b)
        for cid, vec in (("1", D.P), ("2", D.F)):
            lhs = vec[j]
            rhs = Fm.vmeet(vec[a], vec[b])
            bad = np.nonzero(lhs != rhs)
            if len(bad[0]):
                i, k = int(bad[0][0]) + a0, int(bad[1][0])
                raise ConditionError(cid, f"at ({name_a(i)}, {name_a(k)})")
        e = D.vE(a, b)
        for cid, vec in (("4", D.P), ("5", D.F)):
            lhs = Fm.vmeet(e, vec[a])
            rhs = np.broadcast_to(vec[b], lhs.shape)
            not_leq = Fm.vjoin(lhs, rhs) != rhs
            bad = np.nonzero(not_leq)
            if len(bad[0]):
                i, k = int(bad[0][0]) + a0, int(bad[1][0])
                raise ConditionError(cid, f"at ({name_a(i)}, {name_a(k)})")
    return D


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate(D: DeonticAlgebra, h: Interpretation, t: S.Term) -> int:
    """Value of a (desugared) term: an action element or a formula element."""
    if isinstance(t, S.ActionTerm):
        return _eval_act(D, h, t)
    return _eval_form(D, h, t)


def _lookup(mapping, name, what):
    try:
        return mapping[name]
    except KeyError:
        raise KeyError(f"interpretation does not cover the {what} {name!r}") from None


def _eval_act(D, h, t):
    A = D.action
    if isinstance(t, (S.Basic, S.AVar)):
        return _lookup(h.act, t.name, "basic action")
    if isinstance(t, S.Zero):
        return A.bot
    if isinstance(t, S.One):
        return A.top
    if isinstance(t, S.Union):
        return A.join(_eval_act(D, h, t.left), _eval_act(D, h, t.right))
    if isinstance(t, S.Inter):
        return A.meet(_eval_act(D, h, t.left), _eval_act(D, h, t.right))
    if isinstance(t, S.Compl):
        return A.compl(_eval_act(D, h, t.arg))
    if isinstance(t, S.AImpl):
        return A.impl(_eval_act(D, h, t.left), _eval_act(D, h, t.right))
    raise TypeError(f"not an action term: {t!r}")


def _eval_form(D, h, t):
    Fm = D.formula
    if isinstance(t, (S.Prop, S.FVar)):
        return _lookup(h.prop, t.name, "proposition")
    if isinstance(t, S.Bot):
        return Fm.bot
    if isinstance(t, S.Top):
        return Fm.top
    if isinstance(t, S.Eq):
        return D.E(_eval_act(D, h, t.left), _eval_act(D, h, t.right))
    if isinstance(t, S.Perm):
        return int(D.P[_eval_act(D, h, t.arg)])
    if isinstance(t, S.Forb):
        return int(D.F[_eval_act(D, h, t.arg)])
    if isinstance(t, S.Or):
        return Fm.join(_eval_form(D, h, t.left), _eval_form(D, h, t.right))
    if isinstance(t, S.And):
        return Fm.meet(_eval_form(D, h, t.left), _eval_form(D, h, t.right))
    if isinstance(t, S.Not):
        return Fm.compl(_eval_form(D, h, t.arg))
    if isinstance(t, S.Impl):
        return Fm.impl(_eval_form(D, h, t.left), _eval_form(D, h, t.right))
    if isinstance(t, S.Iff):
        return Fm.meet(_eval_form(D, h, S.Impl(t.left, t.right)),
                       _eval_form(D, h, S.Impl(t.right, t.left)))
    raise TypeError(f"not a formula term: {t!r}")


def evaluate_batch(D: DeonticAlgebra, assign: dict, t: S.Term):
    """Evaluate over numpy arrays of elements (one array per symbol name)."""
    if isinstance(t, S.ActionTerm):
        return _eval_act_batch(D, assign, t)
    return _eval_form_batch(D, assign, t)


def _eval_act_batch(D, assign, t):
    A = D.action
    if isinstance(t, (S.Basic, S.AVar)):
        return assign[t.name]
    if isinstance(t, S.Zero):
        return A.bot
    if isinstance(t, S.One):
        return A.top
    if isinstance(t, S.Union):
        return A.vjoin(_eval_act_batch(D, assign, t.left), _eval_act_batch(D, assign, t.right))
    if isinstance(t, S.Inter):
        return A.vmeet(_eval_act_batch(D, assign, t.left), _eval_act_batch(D, assign, t.right))
    if isinstance(t, S.Compl):
        return A.vimpl(_eval_act_batch(D, assign, t.arg), A.bot)
    if isinstance(t, S.AImpl):
        return A.vimpl(_eval_act_batch(D, assign, t.left), _eval_act_batch(D, assign, t.right))
    raise TypeError(f"not an action term: {t!r}")


def _eval_form_batch(D, assign, t):
    Fm = D.formula
    if isinstance(t, (S.Prop, S.FVar)):
        return assign[t.name]
    if isinstance(t, S.Bot):
        return Fm.bot
    if isinstance(t, S.Top):
        return Fm.top
    if isinstance(t, S.Eq):
        return D.vE(_eval_act_batch(D, assign, t.left), _eval_act_batch(D, assign, t.right))
    # P and F may carry a leading candidate axis; atleast_1d keeps a
    # letter-free argument on the interpretation axis instead of that one
    if isinstance(t, S.Perm):
        return D.P[..., np.atleast_1d(_eval_act_batch(D, assign, t.arg))]
    if isinstance(t, S.Forb):
        return D.F[..., np.atleast_1d(_eval_act_batch(D, assign, t.arg))]
    if isinstance(t, S.Or):
        return Fm.vjoin(_eval_form_batch(D, assign, t.left), _eval_form_batch(D, assign, t.right))
    if isinstance(t, S.And):
        return Fm.vmeet(_eval_form_batch(D, assign, t.left), _eval_form_batch(D, assign, t.right))
    if isinstance(t, S.Not):
        return Fm.vimpl(_eval_form_batch(D, assign, t.arg), Fm.bot)
    if isinstance(t, S.Impl):
        return Fm.vimpl(_eval_form_batch(D, assign, t.left), _eval_form_batch(D, assign, t.right))
    if isinstance(t, S.Iff):
        a = _eval_form_batch(D, assign, t.left)
        b = _eval_form_batch(D, assign, t.right)
        return Fm.vmeet(Fm.vimpl(a, b), Fm.vimpl(b, a))
    raise TypeError(f"not a formula term: {t!r}")


def satisfies(D: DeonticAlgebra, h: Interpretation, lhs: S.Term, rhs: S.Term) -> bool:
    """D, h |= lhs = rhs (both sides of the same sort)."""
    if isinstance(lhs, S.ActionTerm) != isinstance(rhs, S.ActionTerm):
        raise ValueError("equation sides must be of the same sort")
    return evaluate(D, h, lhs) == evaluate(D, h, rhs)


def _term_names(*terms):
    """(action symbol names, formula symbol names), metavariables included."""
    acts, props = set(), set()
    for t in terms:
        sym = S.symbols(t)
        mv = S.metavariables(t)
        acts.update(sym.actions, mv[0])
        props.update(sym.props, mv[1])
    return sorted(acts), sorted(props)


def _assignment_grid(D, act_names, prop_names, max_interps):
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


def valid_in(D: DeonticAlgebra, lhs: S.Term, rhs: S.Term,
             max_interps: int = 4_000_000) -> bool:
    """lhs = rhs under every interpretation of the occurring symbols."""
    if isinstance(lhs, S.ActionTerm) != isinstance(rhs, S.ActionTerm):
        raise ValueError("equation sides must be of the same sort")
    act_names, prop_names = _term_names(lhs, rhs)
    assign, total = _assignment_grid(D, act_names, prop_names, max_interps)
    if total == 0:
        return True
    va = evaluate_batch(D, assign, lhs)
    vb = evaluate_batch(D, assign, rhs)
    return bool(np.all(va == vb))


def valid_formula_in(D: DeonticAlgebra, t: S.FormulaTerm,
                     max_interps: int = 4_000_000) -> bool:
    """t evaluates to top under every interpretation."""
    return valid_in(D, t, S.Top(), max_interps=max_interps)


def act_eq_iff_form_eq(D: DeonticAlgebra, a: S.ActionTerm, b: S.ActionTerm,
                       max_interps: int = 4_000_000) -> bool:
    """h(a) == h(b) iff E(h(a), h(b)) = top, for every interpretation h."""
    act_names, prop_names = _term_names(a, b)
    assign, total = _assignment_grid(D, act_names, prop_names, max_interps)
    va = evaluate_batch(D, assign, a)
    vb = evaluate_batch(D, assign, b)
    same = np.broadcast_to(np.asarray(va) == np.asarray(vb), (total,))
    etop = np.broadcast_to(D.vE(va, vb) == D.formula.top, (total,))
    return bool(np.all(same == etop))


# ---------------------------------------------------------------------------
# Structure of P and F
# ---------------------------------------------------------------------------

def preimage_ideals(D: DeonticAlgebra):
    """The top-preimages of P and F; checks both are ideals meeting in {0}."""
    p_set = frozenset(int(a) for a in np.nonzero(D.P == D.formula.top)[0])
    f_set = frozenset(int(a) for a in np.nonzero(D.F == D.formula.top)[0])
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
        return Fm.join(int(D.P[x]), int(D.F[x])) == Fm.top

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
        for a in range(sub.size):
            for b in range(sub.size):
                if emb[sub.join(a, b)] != big.join(emb[a], emb[b]):
                    report.append(f"{tag}: join not preserved at ({a}, {b})")
                    return
                if emb[sub.meet(a, b)] != big.meet(emb[a], emb[b]):
                    report.append(f"{tag}: meet not preserved at ({a}, {b})")
                    return
                if isinstance(sub, HeytingAlgebra) and isinstance(big, HeytingAlgebra):
                    if emb[sub.impl(a, b)] != big.impl(emb[a], emb[b]):
                        report.append(f"{tag}: impl not preserved at ({a}, {b})")
                        return

    check_lattice(D_sub.action, D.action, act_emb, "action")
    check_lattice(D_sub.formula, D.formula, form_emb, "formula")
    if report:
        return False, report
    for a in range(D_sub.action.size):
        if form_emb[int(D_sub.P[a])] != int(D.P[act_emb[a]]):
            report.append(f"P not preserved at {a}")
        if form_emb[int(D_sub.F[a])] != int(D.F[act_emb[a]]):
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
    values = np.asarray(values, dtype=np.int32)
    out = np.full(values.shape[:-1] + (action.size,), formula.top, dtype=np.int32)
    for i, below in enumerate(action.leq_matrix()[list(ji)]):
        out[..., below] = formula.vmeet(out[..., below], values[..., i, None])
    return out


def _pf_stacks(action: HeytingAlgebra, formula: HeytingAlgebra):
    """The valid (P, F) pairs as non-empty (c, |A|) stacks in enumerate_pf_maps
    order; condition 3 is one broadcast per block of at most ``_COND_CHUNK``
    cells, the F maps blocked too (against one P map each) if they fill one."""
    ji = action.join_irreducibles()
    n, total = action.size, formula.size ** len(ji)
    rest = np.arange(n) != action.bot

    def maps(lo, hi):  # antitone maps lo..hi-1 in itertools.product order
        codes = np.arange(lo, min(hi, total))[:, None] // formula.size ** np.arange(len(ji))[::-1]
        return extend_by_irreducibles(action, formula, ji, codes % formula.size)

    fstep = max(1, min(total, _COND_CHUNK // n))
    pstep = max(1, _COND_CHUNK // (fstep * n))
    for p0 in range(0, total, pstep):
        Ps = maps(p0, p0 + pstep)
        for f0 in range(0, total, fstep):
            Fs = maps(f0, f0 + fstep)
            ok = (formula.vmeet(Ps[:, None, rest], Fs[None, :, rest]) == formula.bot).all(axis=2)
            pi, fi = np.nonzero(ok)
            if len(pi):
                yield Ps[pi], Fs[fi]


def enumerate_pf_maps(action: HeytingAlgebra, formula: HeytingAlgebra):
    """All valid (P, F) pairs with crisp E, in deterministic order.

    Pairs are generated from formula-element assignments to the action
    algebra's join-irreducibles, P-major, and filtered by condition 3 (with
    crisp E, conditions 4-6 hold automatically and 1-2 hold by construction).
    """
    for Ps, Fs in _pf_stacks(action, formula):
        yield from zip(Ps, Fs)
