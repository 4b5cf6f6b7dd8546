"""Finite bounded distributive lattices, Heyting algebras, Boolean algebras.

Elements are dense indices 0..size-1.  Table-backed lattices store numpy
operation tables; powerset algebras use bitmask indices and compute their
operations bitwise, so they scale to 2^16 elements without materializing
tables.  All operations are exposed both element-wise (``join``) and
vectorized over numpy index arrays (``vjoin``), which is what the validators
and the exhaustive checkers use.

Defining equations checked by ``validate``:

    bounded distributive lattice: L1..L12
    Heyting: residuation plus H2, H3 and the meet form of modus ponens
        x * (x ~> y) = x * y   (id "H1m")
    Boolean: additionally LEM  x + ~x = 1

Every check that a law holds for all elements goes through one checker,
``_first_failure``: it broadcasts the law over index grids, chunked over the
first index, and returns the first counterexample in row-major order.  The
lattice laws above, ``is_boolean``, ``is_ideal`` and ``is_congruence`` use it
here, and ``algebra.build`` and ``algebra.subalgebra_check`` use it for the
deontic conditions and for operation preservation.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, partial

import numpy as np


class Lattice:
    """Finite bounded lattice with explicit join/meet tables."""

    def __init__(self, join_table, meet_table, names, bot: int, top: int):
        self._join = np.asarray(join_table, dtype=np.int32)
        self._meet = np.asarray(meet_table, dtype=np.int32)
        self.size = int(self._join.shape[0])
        self.names = tuple(names)
        self.bot = int(bot)
        self.top = int(top)
        if self._join.shape != (self.size, self.size) or self._meet.shape != (self.size, self.size):
            raise ValueError("operation tables must be square and same-sized")
        if len(self.names) != self.size:
            raise ValueError("need one name per element")

    # -- operations ----------------------------------------------------------

    def join(self, a: int, b: int) -> int:
        return int(self._join[a, b])

    def meet(self, a: int, b: int) -> int:
        return int(self._meet[a, b])

    def vjoin(self, x, y):
        return self._join[x, y]

    def vmeet(self, x, y):
        return self._meet[x, y]

    def leq(self, a: int, b: int) -> bool:
        return self.join(a, b) == b

    def element_name(self, i: int) -> str:
        return self.names[i]

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no element named {name!r}") from None

    def elements(self):
        return range(self.size)

    def __repr__(self):
        return f"<{type(self).__name__} size={self.size}>"

    # -- derived structure ----------------------------------------------------

    def leq_matrix(self):
        """Boolean size x size matrix of the lattice order."""
        idx = np.arange(self.size)
        return self.vjoin(idx[:, None], idx[None, :]) == idx[None, :]

    def covers(self):
        """Pairs (a, b) such that b covers a."""
        leq = self.leq_matrix()
        lt = leq & ~np.eye(self.size, dtype=bool)
        between = lt @ lt  # a < z < b for some z
        return [(int(a), int(b)) for a, b in zip(*np.nonzero(lt & ~between))]

    def atoms(self) -> list[int]:
        leq = self.leq_matrix()
        out = []
        for x in range(self.size):
            if x == self.bot:
                continue
            below = [y for y in range(self.size) if leq[y, x] and y != x]
            if below == [self.bot]:
                out.append(x)
        return out

    def join_irreducibles(self) -> list[int]:
        """Elements with exactly one lower cover (excludes bot)."""
        lower = {a: [] for a in range(self.size)}
        for a, b in self.covers():
            lower[b].append(a)
        return [x for x in range(self.size) if x != self.bot and len(lower[x]) == 1]


class HeytingAlgebra(Lattice):
    """Lattice with a relative pseudocomplement table."""

    def __init__(self, join_table, meet_table, impl_table, names, bot, top):
        super().__init__(join_table, meet_table, names, bot, top)
        self._impl = np.asarray(impl_table, dtype=np.int32)
        if self._impl.shape != (self.size, self.size):
            raise ValueError("impl table must match lattice size")

    def impl(self, a: int, b: int) -> int:
        return int(self._impl[a, b])

    def vimpl(self, x, y):
        return self._impl[x, y]

    def compl(self, a: int) -> int:
        return self.impl(a, self.bot)

    def vcompl(self, x):
        return self._impl[x, self.bot]


class BooleanAlgebra(HeytingAlgebra):
    """Heyting algebra whose complement is Boolean (LEM holds)."""


class PowersetAlgebra(BooleanAlgebra):
    """Powerset of a finite atom set; element index == subset bitmask."""

    def __init__(self, atom_names):
        self.atom_names = tuple(atom_names)
        n = len(self.atom_names)
        if n > 16:
            raise ValueError("powerset algebras support at most 16 atoms")
        self.size = 1 << n
        self.bot = 0
        self.top = self.size - 1
        # tables are never materialized; all ops are bitwise on indices

    def join(self, a, b):
        return a | b

    def meet(self, a, b):
        return a & b

    def impl(self, a, b):
        return (self.top & ~a) | b

    def compl(self, a):
        return self.top & ~a

    vjoin = join
    vmeet = meet
    vimpl = impl
    vcompl = compl

    def element_name(self, i: int) -> str:
        members = [nm for k, nm in enumerate(self.atom_names) if i >> k & 1]
        return "{" + " ".join(members) + "}"

    @property
    def names(self):
        return tuple(self.element_name(i) for i in range(self.size))

    @names.setter
    def names(self, value):  # Lattice.__init__ is bypassed; nothing to set
        raise AttributeError("powerset element names are derived from atoms")

    def index_of(self, name: str) -> int:
        if not (name.startswith("{") and name.endswith("}")):
            raise KeyError(f"no element named {name!r}")
        members = name[1:-1].split()
        mask = 0
        for m in members:
            try:
                mask |= 1 << self.atom_names.index(m)
            except ValueError:
                raise KeyError(f"unknown atom {m!r} in element name") from None
        return mask

    def member_set(self, i: int) -> frozenset:
        return frozenset(nm for k, nm in enumerate(self.atom_names) if i >> k & 1)

    def atoms(self):
        return [1 << k for k in range(len(self.atom_names))]

    def join_irreducibles(self):
        return self.atoms()

    def __repr__(self):
        return f"<PowersetAlgebra atoms={list(self.atom_names)}>"


class SetFamilyAlgebra(BooleanAlgebra):
    """Field of sets: a Boolean algebra of subsets of a finite universe.

    Elements are dense indices; ``member_set(i)`` returns the carrier set.
    The family must be closed under union, intersection and complement
    relative to the universe (the constructor checks this).
    """

    def __init__(self, universe, family):
        self.universe = frozenset(universe)
        sets = sorted({frozenset(s) for s in family}, key=lambda s: (len(s), sorted(s)))
        if frozenset() not in sets:
            sets.insert(0, frozenset())
        if self.universe not in sets:
            sets.append(self.universe)
            sets.sort(key=lambda s: (len(s), sorted(s)))
        index = {s: i for i, s in enumerate(sets)}
        n = len(sets)
        join = np.empty((n, n), dtype=np.int32)
        meet = np.empty((n, n), dtype=np.int32)
        impl = np.empty((n, n), dtype=np.int32)
        for i, a in enumerate(sets):
            for j, b in enumerate(sets):
                try:
                    join[i, j] = index[a | b]
                    meet[i, j] = index[a & b]
                    impl[i, j] = index[(self.universe - a) | b]
                except KeyError:
                    raise ValueError("family is not closed under the set operations") from None
        names = tuple("{" + " ".join(sorted(s)) + "}" for s in sets)
        super().__init__(join, meet, impl, names, index[frozenset()], index[self.universe])
        self._sets = tuple(sets)
        self._set_index = index

    def member_set(self, i: int) -> frozenset:
        return self._sets[i]

    def index_of_set(self, s) -> int:
        return self._set_index[frozenset(s)]


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def powerset_algebra(atom_names) -> PowersetAlgebra:
    return PowersetAlgebra(atom_names)


def free_boolean(generator_names):
    """Free Boolean algebra on at most 4 generators.

    Returns (algebra, gens) where gens maps each generator name to the
    element joining the atoms whose coordinate for that generator is
    positive.  Atoms are the sign patterns over the generators.
    """
    gens = tuple(generator_names)
    if len(gens) > 4:
        raise ValueError("free Boolean algebras support at most 4 generators")
    n_atoms = 1 << len(gens)
    atom_names = []
    for m in range(n_atoms):
        parts = [g if m >> i & 1 else "~" + g for i, g in enumerate(gens)]
        atom_names.append("&".join(parts) if parts else "e")
    alg = PowersetAlgebra(atom_names)
    gen_map = {}
    for i, g in enumerate(gens):
        gen_map[g] = sum(1 << m for m in range(n_atoms) if m >> i & 1)
    return alg, gen_map


def chain(n: int) -> HeytingAlgebra:
    """Linear Heyting algebra c0 < c1 < ... < c(n-1); chain(2) is Boolean."""
    if n < 1:
        raise ValueError("a chain needs at least one element")
    idx = np.arange(n)
    join = np.maximum(idx[:, None], idx[None, :])
    meet = np.minimum(idx[:, None], idx[None, :])
    impl = np.where(idx[:, None] <= idx[None, :], n - 1, idx[None, :] * np.ones((n, n), dtype=int))
    names = tuple(f"c{i}" for i in range(n))
    cls = BooleanAlgebra if n <= 2 else HeytingAlgebra
    return cls(join, meet, impl, names, 0, n - 1)


def two() -> BooleanAlgebra:
    """The two-element Boolean algebra."""
    return chain(2)


class Poset:
    """Finite strict partial order over named points."""

    def __init__(self, point_names, lt):
        self.point_names = tuple(point_names)
        self.n = len(self.point_names)
        self.lt = np.asarray(lt, dtype=bool)
        if self.lt.shape != (self.n, self.n):
            raise ValueError("relation must be n x n")
        if self.lt.diagonal().any():
            raise ValueError("relation must be irreflexive")
        closed = self.lt | (self.lt @ self.lt)
        if (closed != self.lt).any():
            raise ValueError("relation must be transitively closed")
        if (self.lt & self.lt.T).any():
            raise ValueError("relation must be antisymmetric")

    @classmethod
    def from_edges(cls, point_names, edges):
        """Build from covering/ordering pairs (lo, hi); closure is computed."""
        names = list(point_names)
        lt = np.zeros((len(names), len(names)), dtype=bool)
        for lo, hi in edges:
            lt[names.index(lo), names.index(hi)] = True
        for _ in range(len(names)):
            new = lt | (lt @ lt)
            if (new == lt).all():
                break
            lt = new
        return cls(names, lt)

    def downset_masks(self) -> list[int]:
        down = []
        for m in range(1 << self.n):
            ok = True
            for i in range(self.n):
                if m >> i & 1:
                    for j in range(self.n):
                        if self.lt[j, i] and not m >> j & 1:
                            ok = False
                            break
                if not ok:
                    break
            if ok:
                down.append(m)
        return down


def downset_algebra(poset: Poset) -> HeytingAlgebra:
    """Heyting algebra of downward-closed subsets of a poset."""
    masks = sorted(poset.downset_masks())
    index = {m: i for i, m in enumerate(masks)}
    n = len(masks)
    pts = range(poset.n)
    downcone = [sum(1 << j for j in pts if poset.lt[j, i]) | (1 << i) for i in pts]
    join = np.empty((n, n), dtype=np.int32)
    meet = np.empty((n, n), dtype=np.int32)
    impl = np.empty((n, n), dtype=np.int32)
    for i, a in enumerate(masks):
        for j, b in enumerate(masks):
            join[i, j] = index[a | b]
            meet[i, j] = index[a & b]
            # x is in a ~> b iff the downcone of x meets a only inside b
            rpc = 0
            for x in pts:
                if downcone[x] & a & ~b == 0:
                    rpc |= 1 << x
            impl[i, j] = index[rpc]
    names = tuple(
        "{" + " ".join(poset.point_names[i] for i in pts if m >> i & 1) + "}" for m in masks
    )
    alg = HeytingAlgebra(join, meet, impl, names, index[0], index[(1 << poset.n) - 1])
    alg.poset = poset
    alg.downset_masks = tuple(masks)
    return alg


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

_CHUNK = 1 << 22


def _first_failure(size: int, arity: int, fn):
    """The first index tuple over range(size)**arity, in row-major order, at
    which a law fails; None if it holds everywhere.

    fn(*grids) returns (lhs, rhs) for index grids that broadcast over the
    tuples, and the law fails where lhs != rhs.  The first index is chunked
    to about _CHUNK cells per chunk, at least one value of it per chunk.
    """
    idx = np.arange(size)
    step = max(1, _CHUNK // (size ** (arity - 1) or 1))
    for x0 in range(0, size, step):
        x = np.arange(x0, min(size, x0 + step))
        grids = [g.reshape([-1 if j == k else 1 for j in range(arity)])
                 for k, g in enumerate([x] + [idx] * (arity - 1))]
        lhs, rhs = fn(*grids)
        shape = (len(x),) + (size,) * (arity - 1)
        bad = np.broadcast_to(lhs != rhs, shape)
        if bad.any():
            first = np.unravel_index(int(bad.argmax()), shape)
            return (x0 + int(first[0]),) + tuple(int(i) for i in first[1:])
    return None


_BDL_LAWS = [
    ("L1", 3, lambda l, x, y, z: (l.vjoin(x, l.vjoin(y, z)), l.vjoin(l.vjoin(x, y), z))),
    ("L2", 2, lambda l, x, y: (l.vjoin(x, y), l.vjoin(y, x))),
    ("L3", 1, lambda l, x: (l.vjoin(x, x), x)),
    ("L4", 2, lambda l, x, y: (l.vjoin(x, l.vmeet(x, y)), x)),
    ("L5", 3, lambda l, x, y, z: (l.vjoin(x, l.vmeet(y, z)), l.vmeet(l.vjoin(x, y), l.vjoin(x, z)))),
    ("L6", 1, lambda l, x: (l.vjoin(x, l.top), l.top)),
    ("L7", 3, lambda l, x, y, z: (l.vmeet(x, l.vmeet(y, z)), l.vmeet(l.vmeet(x, y), z))),
    ("L8", 2, lambda l, x, y: (l.vmeet(x, y), l.vmeet(y, x))),
    ("L9", 1, lambda l, x: (l.vmeet(x, x), x)),
    ("L10", 2, lambda l, x, y: (l.vmeet(x, l.vjoin(x, y)), x)),
    ("L11", 3, lambda l, x, y, z: (l.vmeet(x, l.vjoin(y, z)), l.vjoin(l.vmeet(x, y), l.vmeet(x, z)))),
    ("L12", 1, lambda l, x: (l.vmeet(x, l.bot), l.bot)),
]

_HEYTING_LAWS = [
    ("H2", 3, lambda l, x, y, z: (l.vmeet(l.vimpl(l.vmeet(x, y), x), z), z)),
    ("H3", 3, lambda l, x, y, z: (l.vmeet(x, l.vimpl(y, z)), l.vmeet(x, l.vimpl(l.vmeet(x, y), l.vmeet(x, z))))),
    ("H1m", 2, lambda l, x, y: (l.vmeet(x, l.vimpl(x, y)), l.vmeet(x, y))),
    ("residuation", 3, lambda l, x, y, z: (l.vjoin(l.vmeet(x, z), y) == y,
                                           l.vjoin(z, l.vimpl(x, y)) == l.vimpl(x, y))),
]

_BOOLEAN_LAWS = [
    ("LEM", 1, lambda l, x: (l.vjoin(x, l.vcompl(x)), l.top)),
]


def validate(l: Lattice, kind: str | None = None) -> list[str]:
    """Exhaustively check the defining equations; return violation reports,
    one per failing law, naming its first counterexample.

    kind is 'bdl', 'heyting' or 'boolean'; defaults to the strongest kind the
    instance claims.  The check is cubic in the lattice size.
    """
    if kind is None:
        kind = ("boolean" if isinstance(l, BooleanAlgebra)
                else "heyting" if isinstance(l, HeytingAlgebra) else "bdl")
    if kind not in ("bdl", "heyting", "boolean"):
        raise ValueError(f"unknown lattice kind {kind!r}")
    laws = list(_BDL_LAWS)
    if kind in ("heyting", "boolean"):
        if not isinstance(l, HeytingAlgebra):
            return [f"{kind} validation needs an implication operation"]
        laws += _HEYTING_LAWS
    if kind == "boolean":
        laws += _BOOLEAN_LAWS
    report: list[str] = []
    for law_id, arity, fn in laws:
        witness = _first_failure(l.size, arity, partial(fn, l))
        if witness is not None:
            names = ", ".join(l.element_name(w) for w in witness)
            report.append(f"{law_id} fails at ({names})")
    return report


def is_boolean(l: Lattice) -> bool:
    """True iff l carries an implication and LEM holds for its complement."""
    return isinstance(l, HeytingAlgebra) and all(
        _first_failure(l.size, arity, partial(fn, l)) is None for _, arity, fn in _BOOLEAN_LAWS)


# ---------------------------------------------------------------------------
# Ideals
# ---------------------------------------------------------------------------

def is_ideal(l: Lattice, members) -> bool:
    """Closed under join, absorbs meets, contains bot.  A set with a member
    outside the carrier is not an ideal."""
    s = set(members)
    if l.bot not in s or not s <= set(range(l.size)):
        return False
    inside = np.zeros(l.size, dtype=bool)
    inside[list(s)] = True
    # for x in the set and every y: x * y is in it, and so is x + y if y is
    return _first_failure(l.size, 2, lambda x, y: (
        inside[x] & ~(inside[l.vmeet(x, y)] & (inside[l.vjoin(x, y)] | ~inside[y])),
        False)) is None


def principal_ideal(l: Lattice, a: int) -> frozenset:
    return frozenset(x for x in range(l.size) if l.leq(x, a))


def all_ideals(l: Lattice) -> list[frozenset]:
    """Every ideal of a finite lattice is principal; one per element."""
    return [principal_ideal(l, a) for a in range(l.size)]


# ---------------------------------------------------------------------------
# Congruences, quotients, sublattices
# ---------------------------------------------------------------------------

def _class_map(l, partition):
    cls = [-1] * l.size
    for k, block in enumerate(partition):
        for x in block:
            if not 0 <= x < l.size or cls[x] != -1:
                raise ValueError("not a partition of the carrier")
            cls[x] = k
    if -1 in cls:
        raise ValueError("partition does not cover the carrier")
    return cls


def _op_names(l):
    return ("join", "meet", "impl") if isinstance(l, HeytingAlgebra) else ("join", "meet")


def is_congruence(l: Lattice, partition) -> bool:
    """Partition compatible with join/meet (and impl when present): no
    operation changes class when either argument moves to the first member
    of its own class."""
    cls = np.array(_class_map(l, partition))
    first = {}
    rep = np.array([first.setdefault(k, x) for x, k in enumerate(cls)])
    for name in _op_names(l):
        op = getattr(l, "v" + name)
        if _first_failure(l.size, 2, lambda x, y: (
                cls[op(x, y)],
                np.where(cls[op(rep[x], y)] == cls[op(x, rep[y])], cls[op(rep[x], y)], -1))) is not None:
            return False
    return True


def congruence_closure(l: Lattice, pairs) -> list[list[int]]:
    """Smallest congruence identifying the given element pairs."""
    parent = list(range(l.size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
            return True
        return False

    for a, b in pairs:
        union(a, b)
    ops = [getattr(l, name) for name in _op_names(l)]
    changed = True
    while changed:
        changed = False
        groups = {}
        for x in range(l.size):
            groups.setdefault(find(x), []).append(x)
        for block in groups.values():
            rep = block[0]
            for x in block[1:]:
                for op in ops:
                    for z in range(l.size):
                        changed |= union(op(rep, z), op(x, z))
                        changed |= union(op(z, rep), op(z, x))
    groups = {}
    for x in range(l.size):
        groups.setdefault(find(x), []).append(x)
    return [sorted(b) for b in sorted(groups.values())]


def quotient(l: Lattice, partition):
    """Quotient lattice and the projection list (element -> class index).

    The partition must be a congruence; classes are ordered by their smallest
    member and named by joining member names with '|'.
    """
    if not is_congruence(l, partition):
        raise ValueError("partition is not a congruence")
    blocks = [sorted(b) for b in partition]
    blocks.sort(key=lambda b: b[0])
    cls = _class_map(l, blocks)
    n = len(blocks)
    reps = [b[0] for b in blocks]
    join = np.array([[cls[l.join(a, b)] for b in reps] for a in reps], dtype=np.int32)
    meet = np.array([[cls[l.meet(a, b)] for b in reps] for a in reps], dtype=np.int32)
    names = tuple("|".join(l.element_name(x) for x in b) for b in blocks)
    bot, top = cls[l.bot], cls[l.top]
    if isinstance(l, HeytingAlgebra):
        impl = np.array([[cls[l.impl(a, b)] for b in reps] for a in reps], dtype=np.int32)
        out_cls = BooleanAlgebra if isinstance(l, BooleanAlgebra) else HeytingAlgebra
        q = out_cls(join, meet, impl, names, bot, top)
    else:
        q = Lattice(join, meet, names, bot, top)
    return q, cls


def generated_sublattice(l: Lattice, generators, kind: str = "bdl") -> frozenset:
    """Elements of the smallest sub-(lattice/Heyting/Boolean) algebra
    containing the generators, as a frozenset of carrier indices."""
    current = {l.bot, l.top} | set(int(g) for g in generators)
    ops = [l.join, l.meet]
    if kind == "heyting":
        ops.append(l.impl)
    elif kind == "boolean":
        ops.append(lambda a, b: l.compl(a))
    elif kind != "bdl":
        raise ValueError(f"unknown lattice kind {kind!r}")
    while True:
        new = set(current)
        for a in current:
            for b in current:
                for op in ops:
                    new.add(int(op(a, b)))
        if new == current:
            break
        current = new
    return frozenset(current)


def sublattice_on(l: Lattice, members, kind: str = "bdl"):
    """Build the induced subalgebra on a closed element set.

    Returns (sublattice, embedding) where embedding[i] is the carrier index
    of sub-element i.  The set must contain bot and top and be closed under
    the operations of `kind` (as produced by generated_sublattice).
    """
    emb = sorted(int(x) for x in members)
    pos = {x: i for i, x in enumerate(emb)}
    if l.bot not in pos or l.top not in pos:
        raise ValueError("member set must contain bot and top")

    def idx(x, a, b):
        try:
            return pos[x]
        except KeyError:
            raise ValueError(
                f"member set is not closed: operation on "
                f"{l.element_name(a)}, {l.element_name(b)} leaves it") from None

    join = np.array([[idx(l.join(a, b), a, b) for b in emb] for a in emb],
                    dtype=np.int32)
    meet = np.array([[idx(l.meet(a, b), a, b) for b in emb] for a in emb],
                    dtype=np.int32)
    names = tuple(l.element_name(x) for x in emb)
    bot, top = pos[l.bot], pos[l.top]
    if kind == "bdl":
        return Lattice(join, meet, names, bot, top), emb
    impl = np.array([[idx(l.impl(a, b), a, b) for b in emb] for a in emb],
                    dtype=np.int32)
    cls = BooleanAlgebra if kind == "boolean" else HeytingAlgebra
    return cls(join, meet, impl, names, bot, top), emb


# ---------------------------------------------------------------------------
# Poset enumeration and the Heyting catalog
# ---------------------------------------------------------------------------

def _relation_mask(lt, n):
    mask = 0
    for i in range(n):
        for j in range(n):
            if lt[i][j]:
                mask |= 1 << (i * n + j)
    return mask


@lru_cache(maxsize=None)
def all_posets(n: int) -> tuple:
    """All strict partial orders on n points, one per isomorphism class.

    Returned as relation bitmasks (bit i*n+j set iff point i < point j),
    canonical (minimal over point permutations), sorted ascending.

    Every n-poset has a maximal point, so each class arises from an
    (n-1)-poset by adding a last point above one of its downsets
    (canonical augmentation, McKay 1998); only those candidates are
    canonicalised.
    """
    if n == 0:
        return (0,)
    m = n - 1
    perms = list(itertools.permutations(range(n)))
    seen = set()
    for base in all_posets(m):
        lt0 = [[bool(base >> (i * m + j) & 1) for j in range(m)] for i in range(m)]
        for down in range(1 << m):
            if any(lt0[i][j] and down >> j & 1 and not down >> i & 1
                   for i in range(m) for j in range(m)):
                continue  # not a downset
            lt = [row + [bool(down >> i & 1)] for i, row in enumerate(lt0)] + [[False] * n]
            seen.add(min(
                _relation_mask([[lt[p[i]][p[j]] for j in range(n)] for i in range(n)], n)
                for p in perms))
    return tuple(sorted(seen))


def _poset_from_mask(mask: int, n: int, names=None) -> Poset:
    lt = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            if mask >> (i * n + j) & 1:
                lt[i, j] = True
    if names is None:
        names = [f"p{i}" for i in range(n)]
    return Poset(names, lt)


@lru_cache(maxsize=None)
def heyting_catalog(max_poset_points: int) -> tuple:
    """Downset algebras of all posets with 1..max_poset_points points.

    Deduplicated up to lattice isomorphism (distinct posets already give
    non-isomorphic downset lattices) and sorted by size, then by the
    lexicographic order of the operation tables.
    """
    if not 1 <= max_poset_points <= 5:
        raise ValueError("catalog supports 1..5 poset points")
    algs = []
    for n in range(1, max_poset_points + 1):
        for mask in all_posets(n):
            algs.append(downset_algebra(_poset_from_mask(mask, n)))

    def sort_key(a):
        return (a.size, a._join.tobytes(), a._meet.tobytes(), a._impl.tobytes())

    algs.sort(key=sort_key)
    return tuple(algs)


def find_isomorphism(l1: Lattice, l2: Lattice):
    """A lattice isomorphism l1 -> l2 as an index list, or None.

    Backtracking over the order, with an explicit stack rather than
    recursion, so the depth of the search is not bounded by Python's.
    """
    if l1.size != l2.size:
        return None
    leq1, leq2 = l1.leq_matrix(), l2.leq_matrix()
    # invariant: degree profile in the order
    prof1 = [(int(leq1[i].sum()), int(leq1[:, i].sum())) for i in range(l1.size)]
    prof2 = [(int(leq2[i].sum()), int(leq2[:, i].sum())) for i in range(l2.size)]
    if sorted(prof1) != sorted(prof2):
        return None
    order = np.array(sorted(range(l1.size), key=lambda i: prof1[i]), dtype=np.intp)
    cands = {}
    for j, p in enumerate(prof2):
        cands.setdefault(p, []).append(j)
    cands = {p: np.array(js, dtype=np.intp) for p, js in cands.items()}
    image = np.full(l1.size, -1, dtype=np.intp)
    used = np.zeros(l2.size, dtype=bool)
    # depth-first search on an explicit stack: nxt[k] is the position in its
    # candidate list of the next image to try for order[k]
    nxt = [0]
    while nxt and len(nxt) <= len(order):
        k = len(nxt) - 1
        i, done = order[k], order[:k]
        if image[i] != -1:  # back from a dead end: undo this point's choice
            used[image[i]] = False
            image[i] = -1
        mapped, options = image[done], cands[prof1[i]][nxt[k]:]
        fits = np.flatnonzero(
            ~used[options]
            & (leq2[options[:, None], mapped] == leq1[i, done]).all(axis=1)
            & (leq2[mapped[:, None], options] == leq1[done, i][:, None]).all(axis=0))
        if len(fits):
            image[i] = options[fits[0]]
            used[image[i]] = True
            nxt[k] += int(fits[0]) + 1
            nxt.append(0)
        else:
            nxt.pop()
    # a bijection preserving the order both ways is a lattice isomorphism
    return image.tolist() if nxt else None
