"""The hand-written law loops that ``lattice._first_failure`` replaced, kept
as the reference the one checker is compared against.

``validate`` and ``build_conditions`` broadcast over numpy copies of the
operation tables (``_Arrays``), read cell by cell through the scalar
operations, in their own chunks; ``is_ideal``, ``is_congruence`` and the
operation check of ``subalgebra_check`` are Python double loops, and
``find_isomorphism`` recurses once per element: only call them on small
inputs.
"""

import numpy as np

from dalkit.algebra import DeonticAlgebra
from dalkit.lattice import BooleanAlgebra, HeytingAlgebra, _class_map
from dalkit.syntax import ConditionError

_CHUNK = 1 << 22


class _Arrays:
    """A lattice's operations over numpy index arrays, from tables filled
    through its scalar operations."""

    def __init__(self, l):
        self.size, self.bot, self.top, self.element_name = l.size, l.bot, l.top, l.element_name
        idx = range(l.size)
        ops = ("join", "meet", "impl") if isinstance(l, HeytingAlgebra) else ("join", "meet")
        self.tables = {op: np.array([[getattr(l, op)(a, b) for b in idx] for a in idx],
                                    dtype=np.int64).reshape(l.size, l.size) for op in ops}

    def vjoin(self, x, y):
        return self.tables["join"][x, y]

    def vmeet(self, x, y):
        return self.tables["meet"][x, y]

    def vimpl(self, x, y):
        return self.tables["impl"][x, y]

    def vcompl(self, x):
        return self.tables["impl"][x, self.bot]


def _grids(l, arity, x0, x1):
    idx = np.arange(l.size)
    x = np.arange(x0, x1)
    if arity == 1:
        return (x,)
    if arity == 2:
        return (x[:, None], idx[None, :])
    return (x[:, None, None], idx[None, :, None], idx[None, None, :])


def _check_law(l, law_id, arity, fn, report):
    step = max(1, _CHUNK // (l.size ** (arity - 1) or 1))
    for x0 in range(0, l.size, step):
        grids = _grids(l, arity, x0, min(l.size, x0 + step))
        lhs, rhs = fn(l, *grids)
        bad = np.nonzero(np.broadcast_to(lhs != rhs, np.broadcast_shapes(np.shape(lhs), np.shape(rhs))))
        if len(bad[0]):
            first = tuple(int(b[0]) for b in bad)
            witness = (first[0] + x0,) + first[1:]
            names = ", ".join(l.element_name(w) for w in witness)
            report.append(f"{law_id} fails at ({names})")
            return


_BDL_LAWS = [
    ("L1", 3, lambda l, x, y, z: (l.vjoin(x, l.vjoin(y, z)), l.vjoin(l.vjoin(x, y), z))),
    ("L2", 2, lambda l, x, y: (l.vjoin(x, y), l.vjoin(y, x))),
    ("L3", 1, lambda l, x: (l.vjoin(x, x), x)),
    ("L4", 2, lambda l, x, y: (l.vjoin(x, l.vmeet(x, y)), x)),
    ("L5", 3, lambda l, x, y, z: (l.vjoin(x, l.vmeet(y, z)), l.vmeet(l.vjoin(x, y), l.vjoin(x, z)))),
    ("L6", 1, lambda l, x: (l.vjoin(x, l.top), np.full(np.shape(x), l.top))),
    ("L7", 3, lambda l, x, y, z: (l.vmeet(x, l.vmeet(y, z)), l.vmeet(l.vmeet(x, y), z))),
    ("L8", 2, lambda l, x, y: (l.vmeet(x, y), l.vmeet(y, x))),
    ("L9", 1, lambda l, x: (l.vmeet(x, x), x)),
    ("L10", 2, lambda l, x, y: (l.vmeet(x, l.vjoin(x, y)), x)),
    ("L11", 3, lambda l, x, y, z: (l.vmeet(x, l.vjoin(y, z)), l.vjoin(l.vmeet(x, y), l.vmeet(x, z)))),
    ("L12", 1, lambda l, x: (l.vmeet(x, l.bot), np.full(np.shape(x), l.bot))),
]

_HEYTING_LAWS = [
    ("H2", 3, lambda l, x, y, z: (l.vmeet(l.vimpl(l.vmeet(x, y), x), z), np.broadcast_to(z, np.broadcast_shapes(np.shape(x), np.shape(z))))),
    ("H3", 3, lambda l, x, y, z: (l.vmeet(x, l.vimpl(y, z)), l.vmeet(x, l.vimpl(l.vmeet(x, y), l.vmeet(x, z))))),
    ("H1m", 2, lambda l, x, y: (l.vmeet(x, l.vimpl(x, y)), l.vmeet(x, y))),
    ("residuation", 3, lambda l, x, y, z: (l.vjoin(l.vmeet(x, z), y) == np.broadcast_to(y, np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(z))),
                                           l.vjoin(z, l.vimpl(x, y)) == l.vimpl(x, y))),
]

_BOOLEAN_LAWS = [
    ("LEM", 1, lambda l, x: (l.vjoin(x, l.vcompl(x)), np.full(np.shape(x), l.top))),
]


def validate(l, kind=None):
    if kind is None:
        kind = ("boolean" if isinstance(l, BooleanAlgebra)
                else "heyting" if isinstance(l, HeytingAlgebra) else "bdl")
    laws = list(_BDL_LAWS)
    if kind in ("heyting", "boolean"):
        if not isinstance(l, HeytingAlgebra):
            return [f"{kind} validation needs an implication operation"]
        laws += _HEYTING_LAWS
    if kind == "boolean":
        laws += _BOOLEAN_LAWS
    report = []
    v = _Arrays(l)
    for law_id, arity, fn in laws:
        _check_law(v, law_id, arity, fn, report)
    return report


def is_boolean(l):
    if not isinstance(l, HeytingAlgebra):
        return False
    idx = np.arange(l.size)
    v = _Arrays(l)
    return bool((v.vjoin(idx, v.vcompl(idx)) == l.top).all())


def build_conditions(action, formula, P, F, E=None):
    """The checks of conditions 6, 3, 1, 2, 4, 5 in ``build``; raises the
    ConditionError build raised, or returns None."""
    D = DeonticAlgebra(action, formula, P, F, E)
    A, Fm = _Arrays(action), _Arrays(formula)
    n = A.size
    P, F = np.array(D.P, dtype=np.int64), np.array(D.F, dtype=np.int64)
    E = None if D._E is None else np.array(D._E, dtype=np.int64)

    def vE(x, y):
        return np.where(np.asarray(x) == np.asarray(y), Fm.top, Fm.bot) if E is None else E[x, y]

    def name_a(i):
        return A.element_name(i)

    if E is not None:
        diag = E.diagonal()
        bad = np.nonzero(diag != Fm.top)[0]
        if len(bad):
            a = int(bad[0])
            raise ConditionError("6", f"E({name_a(a)}, {name_a(a)}) != top")
        off = E == Fm.top
        np.fill_diagonal(off, False)
        bad = np.nonzero(off)
        if len(bad[0]):
            a, b = int(bad[0][0]), int(bad[1][0])
            raise ConditionError("6", f"E({name_a(a)}, {name_a(b)}) = top but the elements differ")

    idx = np.arange(n)
    lhs = Fm.vmeet(P[idx], F[idx])
    rhs = vE(idx, np.full(n, A.bot))
    bad = np.nonzero(lhs != rhs)[0]
    if len(bad):
        a = int(bad[0])
        raise ConditionError("3", f"P & F at {name_a(a)} is "
                             f"{Fm.element_name(int(lhs[a]))}, E(a,0) is {Fm.element_name(int(rhs[a]))}")

    step = max(1, _CHUNK // max(n, 1))
    for a0 in range(0, n, step):
        a = np.arange(a0, min(n, a0 + step))[:, None]
        b = idx[None, :]
        j = A.vjoin(a, b)
        for cid, vec in (("1", P), ("2", F)):
            lhs = vec[j]
            rhs = Fm.vmeet(vec[a], vec[b])
            bad = np.nonzero(lhs != rhs)
            if len(bad[0]):
                i, k = int(bad[0][0]) + a0, int(bad[1][0])
                raise ConditionError(cid, f"at ({name_a(i)}, {name_a(k)})")
        e = vE(a, b)
        for cid, vec in (("4", P), ("5", F)):
            lhs = Fm.vmeet(e, vec[a])
            rhs = np.broadcast_to(vec[b], lhs.shape)
            not_leq = Fm.vjoin(lhs, rhs) != rhs
            bad = np.nonzero(not_leq)
            if len(bad[0]):
                i, k = int(bad[0][0]) + a0, int(bad[1][0])
                raise ConditionError(cid, f"at ({name_a(i)}, {name_a(k)})")
    return None


def is_ideal(l, members):
    s = set(members)
    if l.bot not in s:
        return False
    for a in s:
        for b in s:
            if l.join(a, b) not in s:
                return False
        for x in range(l.size):
            if l.meet(a, x) not in s:
                return False
    return True


def is_congruence(l, partition):
    cls = _class_map(l, partition)
    ops = [l.join, l.meet] + ([l.impl] if isinstance(l, HeytingAlgebra) else [])
    for op in ops:
        seen = {}
        for a in range(l.size):
            for b in range(l.size):
                key = (cls[a], cls[b])
                c = cls[op(a, b)]
                if seen.setdefault(key, c) != c:
                    return False
    return True


def subalgebra_check(D_sub, D, act_emb, form_emb):
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


def find_isomorphism(l1, l2):
    if l1.size != l2.size:
        return None
    leq1, leq2 = np.array(l1.leq_matrix()), np.array(l2.leq_matrix())
    prof1 = [(int(leq1[i].sum()), int(leq1[:, i].sum())) for i in range(l1.size)]
    prof2 = [(int(leq2[i].sum()), int(leq2[:, i].sum())) for i in range(l2.size)]
    if sorted(prof1) != sorted(prof2):
        return None
    order = sorted(range(l1.size), key=lambda i: prof1[i])
    image = [-1] * l1.size
    used = [False] * l2.size

    def extend(k):
        if k == len(order):
            return True
        i = order[k]
        for j in range(l2.size):
            if used[j] or prof1[i] != prof2[j]:
                continue
            good = True
            for i2 in order[:k]:
                j2 = image[i2]
                if leq1[i, i2] != leq2[j, j2] or leq1[i2, i] != leq2[j2, j]:
                    good = False
                    break
            if good:
                image[i] = j
                used[j] = True
                if extend(k + 1):
                    return True
                image[i] = -1
                used[j] = False
        return False

    return image if extend(0) else None
