"""Finite bounded distributive lattices, Heyting algebras, Boolean algebras.

Elements are dense indices 0..size-1.  Table-backed lattices store their
operation tables as tuples of row tuples of Python ints; powerset algebras
use bitmask indices and compute their operations bitwise, so they scale to
2^16 elements without materializing tables.  This module does not import
numpy; ``algebra`` and ``decide`` copy the tables into numpy arrays where
they evaluate over arrays of elements.

Every operation takes, for each argument, an element or a row of
elements: a tuple, or a range for the whole carrier.  With a row it
returns the row of results, gathered at C speed by an ``operator.itemgetter``
or mapped with an ``operator`` function; a whole-carrier row of a table is
the table's own row or column, so it costs nothing.  Scalar evaluation
passes elements; the law checker passes rows.

Defining equations checked by ``validate``:

    bounded distributive lattice: L1..L12
    Heyting: residuation plus H2, H3 and the meet form of modus ponens
        x * (x ~> y) = x * y   (id "H1m")
    Boolean: additionally LEM  x + ~x = 1

Every check that a law holds for all elements goes through one checker,
``_first_failure``: it evaluates the law one row of the last index at a
time and returns the first counterexample in row-major order.  The lattice
laws above, ``is_boolean``, ``is_ideal`` and ``is_congruence`` use it here,
and ``algebra.build`` and ``algebra.subalgebra_check`` use it for the
deontic conditions and for operation preservation.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache, partial, reduce
from operator import and_, eq, getitem, itemgetter, le, or_, xor


_ROWS = (tuple, range)


def _pointwise(f, a, b):
    """f(a, b), mapped over whichever of a and b is a row."""
    if a.__class__ in _ROWS:
        return tuple(map(f, a, b if b.__class__ in _ROWS else itertools.repeat(b)))
    if b.__class__ in _ROWS:
        return tuple(map(f, itertools.repeat(a), b))
    return f(a, b)


class _Table(tuple):
    """An operation table, as the tuple of its row tuples of ints; a numpy
    array converts through its ``tolist``.  ``cols`` are its columns.  A
    one-row table is a map from elements."""

    def __new__(cls, rows):
        return super().__new__(cls, (tuple(map(int, r)) for r in getattr(rows, "tolist", lambda: rows)()))

    @cached_property
    def cols(self):
        return tuple(zip(*self))


def _take(seq, row):
    """The tuple of seq[i] for i in the row: a slice for a range, else
    gathered by an itemgetter."""
    if row.__class__ is range:
        return seq[row.start:row.stop:row.step]
    return itemgetter(*row)(seq) if len(row) > 1 else tuple(seq[i] for i in row)


def _lookup(t, a, b):
    """t[a][b], mapped over whichever of a and b is a row."""
    if a.__class__ in _ROWS:
        if b.__class__ in _ROWS:
            return tuple(map(getitem, map(t.__getitem__, a), b))
        return _take(t.cols[b], a)
    if b.__class__ in _ROWS:
        return _take(t[a], b)
    return t[a][b]


def _gather(values, a):
    """values[a], mapped over a row; values is a one-row _Table."""
    return _lookup(values, 0, a)


def _mask(flags):
    """The bitmask with bit i set where flags[i] is true."""
    return int("".join(map("01".__getitem__, reversed(flags))) or "0", 2)


def _bits(mask):
    """The positions of the set bits of mask, ascending."""
    flags = bin(mask)[:1:-1]   # bit 0 first
    return list(itertools.compress(range(len(flags)), map("1".__eq__, flags)))


class Lattice:
    """Finite bounded lattice with explicit join/meet tables."""

    def __init__(self, join_table, meet_table, names, bot: int, top: int):
        self._join = _Table(join_table)
        self._meet = _Table(meet_table)
        self.size = len(self._join)
        self.names = tuple(names)
        self.bot = int(bot)
        self.top = int(top)
        if any(len(t) != self.size or any(len(row) != self.size for row in t)
               for t in (self._join, self._meet)):
            raise ValueError("operation tables must be square and same-sized")
        if len(self.names) != self.size:
            raise ValueError("need one name per element")

    # -- operations ----------------------------------------------------------

    def join(self, a, b):
        return _lookup(self._join, a, b)

    def meet(self, a, b):
        return _lookup(self._meet, a, b)

    def leq(self, a: int, b: int) -> bool:
        return self.join(a, b) == b

    def element_name(self, i: int) -> str:
        return self.names[i]

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no element named {name!r}") from None

    def __repr__(self):
        return f"<{type(self).__name__} size={self.size}>"

    # -- derived structure ----------------------------------------------------

    def leq_matrix(self):
        """The order as a tuple of row tuples: ``[a][b]`` is a <= b."""
        idx = tuple(range(self.size))
        return tuple(tuple(map(eq, self.join(a, idx), idx)) for a in idx)

    @cached_property
    def _order(self):
        """(up, down): per element x, the bitmasks of the elements y with
        x <= y and with y <= x."""
        leq = self.leq_matrix()
        return tuple(map(_mask, leq)), tuple(map(_mask, zip(*leq)))

    def covers(self):
        """Pairs (a, b) such that b covers a, in row-major order."""
        strict = [u & ~(1 << a) for a, u in enumerate(self._order[0])]
        out = []
        for a, above in enumerate(strict):
            beyond = 0   # elements above something strictly above a
            for z in _bits(above):
                beyond |= strict[z]
            out += [(a, b) for b in _bits(above & ~beyond)]
        return out

    def atoms(self) -> list[int]:
        return [x for x, d in enumerate(self._order[1])
                if x != self.bot and d & ~(1 << x) == 1 << self.bot]

    def join_irreducibles(self) -> list[int]:
        """Elements with exactly one lower cover (excludes bot)."""
        lower = [0] * self.size
        for _, b in self.covers():
            lower[b] += 1
        return [x for x in range(self.size) if x != self.bot and lower[x] == 1]


class HeytingAlgebra(Lattice):
    """Lattice with a relative pseudocomplement table."""

    def __init__(self, join_table, meet_table, impl_table, names, bot, top):
        super().__init__(join_table, meet_table, names, bot, top)
        self._impl = _Table(impl_table)
        if len(self._impl) != self.size or any(len(row) != self.size for row in self._impl):
            raise ValueError("impl table must match lattice size")

    def impl(self, a, b):
        return _lookup(self._impl, a, b)

    def compl(self, a):
        return _lookup(self._impl, a, self.bot)


class BooleanAlgebra(HeytingAlgebra):
    """Heyting algebra whose complement is Boolean (LEM holds)."""


class PowersetAlgebra(BooleanAlgebra):
    """Powerset of a finite atom set; element index == subset bitmask.

    The operations are bitwise, so they also apply elementwise to numpy
    arrays of indices."""

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
        return _pointwise(or_, a, b)

    def meet(self, a, b):
        return _pointwise(and_, a, b)

    def impl(self, a, b):
        return _pointwise(or_, self.compl(a), b)

    def compl(self, a):
        return _pointwise(xor, a, self.top)

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
        try:
            join = [[index[a | b] for b in sets] for a in sets]
            meet = [[index[a & b] for b in sets] for a in sets]
            impl = [[index[(self.universe - a) | b] for b in sets] for a in sets]
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
    idx = tuple(range(n))   # the rows share these int objects
    join = [(idx[i],) * i + idx[i:] for i in idx]
    meet = [idx[:i] + (idx[i],) * (n - i) for i in idx]
    impl = [idx[:i] + (idx[-1],) * (n - i) for i in idx]   # top where i <= j, else j
    names = tuple(f"c{i}" for i in range(n))
    cls = BooleanAlgebra if n <= 2 else HeytingAlgebra
    return cls(join, meet, impl, names, 0, n - 1)


def two() -> BooleanAlgebra:
    """The two-element Boolean algebra."""
    return chain(2)


class Poset:
    """Finite strict partial order over named points; ``lt[i][j]`` is True
    iff point i < point j."""

    def __init__(self, point_names, lt):
        self.point_names = tuple(point_names)
        self.n = len(self.point_names)
        self.lt = tuple(tuple(map(bool, row)) for row in lt)
        if len(self.lt) != self.n or any(len(row) != self.n for row in self.lt):
            raise ValueError("relation must be n x n")
        above = [_mask(row) for row in self.lt]
        if any(a >> i & 1 for i, a in enumerate(above)):
            raise ValueError("relation must be irreflexive")
        # transitive and irreflexive, the relation is also antisymmetric
        if any(above[j] & ~a for a in above for j in _bits(a)):
            raise ValueError("relation must be transitively closed")

    @classmethod
    def from_edges(cls, point_names, edges):
        """Build from covering/ordering pairs (lo, hi); closure is computed."""
        names = list(point_names)
        n = len(names)
        above = [0] * n
        for lo, hi in edges:
            above[names.index(lo)] |= 1 << names.index(hi)
        for k in range(n):   # Warshall's closure
            for i in range(n):
                if above[i] >> k & 1:
                    above[i] |= above[k]
        return cls(names, [[a >> j & 1 for j in range(n)] for a in above])

    def downset_masks(self, limit: int | None = None) -> list[int]:
        """The downsets as bitmasks over the points, ascending.  With a
        limit, the enumeration stops as soon as it has more than ``limit``
        of them, so a caller can bound the count without listing all."""
        below = [_mask(col) for col in zip(*self.lt)]
        down = [0]
        # add the points in a linear extension; each downset of the points
        # so far extends by the new one if it holds all points below it
        for i in sorted(range(self.n), key=lambda i: below[i].bit_count()):
            down += [d | 1 << i for d in down if below[i] & ~d == 0]
            if limit is not None and len(down) > limit:
                break
        return sorted(down)


def downset_algebra(poset: Poset) -> HeytingAlgebra:
    """Heyting algebra of downward-closed subsets of a poset."""
    masks = poset.downset_masks()
    index = {m: i for i, m in enumerate(masks)}
    pts = range(poset.n)
    upcone = [_mask(row) | 1 << i for i, row in enumerate(poset.lt)]
    join = [[index[a | b] for b in masks] for a in masks]
    meet = [[index[a & b] for b in masks] for a in masks]
    # x is in a ~> b iff nothing of a outside b lies below x: a ~> b is the
    # complement of the upset of a & ~b, kept per a & ~b
    above = {}

    def upset(d):
        if d not in above:
            above[d] = reduce(or_, map(upcone.__getitem__, _bits(d)), 0)
        return above[d]

    full = (1 << poset.n) - 1
    impl = [[index[full & ~upset(a & ~b)] for b in masks] for a in masks]
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

def _first_failure(size: int, arity: int, fn):
    """The first index tuple over range(size)**arity, in row-major order, at
    which a law fails; None if it holds everywhere.

    fn(*outer, row) returns (lhs, rhs) with the first arity - 1 indices fixed
    to elements and the last one the row of all elements, 0 to size - 1;
    each side is an element or a row, and the law fails where they differ.
    """
    row = range(size)
    for outer in itertools.product(range(size), repeat=arity - 1):
        lhs, rhs = fn(*outer, row)
        if lhs.__class__ is not rhs.__class__ or lhs != rhs:
            lhs, rhs = (tuple(v) if v.__class__ in _ROWS else (v,) * size for v in (lhs, rhs))
            if lhs != rhs:
                return outer + (next(i for i in range(size) if lhs[i] != rhs[i]),)
    return None


_BDL_LAWS = [
    ("L1", 3, lambda l, x, y, z: (l.join(x, l.join(y, z)), l.join(l.join(x, y), z))),
    ("L2", 2, lambda l, x, y: (l.join(x, y), l.join(y, x))),
    ("L3", 1, lambda l, x: (l.join(x, x), x)),
    ("L4", 2, lambda l, x, y: (l.join(x, l.meet(x, y)), x)),
    ("L5", 3, lambda l, x, y, z: (l.join(x, l.meet(y, z)), l.meet(l.join(x, y), l.join(x, z)))),
    ("L6", 1, lambda l, x: (l.join(x, l.top), l.top)),
    ("L7", 3, lambda l, x, y, z: (l.meet(x, l.meet(y, z)), l.meet(l.meet(x, y), z))),
    ("L8", 2, lambda l, x, y: (l.meet(x, y), l.meet(y, x))),
    ("L9", 1, lambda l, x: (l.meet(x, x), x)),
    ("L10", 2, lambda l, x, y: (l.meet(x, l.join(x, y)), x)),
    ("L11", 3, lambda l, x, y, z: (l.meet(x, l.join(y, z)), l.join(l.meet(x, y), l.meet(x, z)))),
    ("L12", 1, lambda l, x: (l.meet(x, l.bot), l.bot)),
]

_HEYTING_LAWS = [
    ("H2", 3, lambda l, x, y, z: (l.meet(l.impl(l.meet(x, y), x), z), z)),
    ("H3", 3, lambda l, x, y, z: (l.meet(x, l.impl(y, z)), l.meet(x, l.impl(l.meet(x, y), l.meet(x, z))))),
    ("H1m", 2, lambda l, x, y: (l.meet(x, l.impl(x, y)), l.meet(x, y))),
    ("residuation", 3, lambda l, x, y, z: (_pointwise(eq, l.join(l.meet(x, z), y), y),
                                           _pointwise(eq, l.join(z, l.impl(x, y)), l.impl(x, y)))),
]

_BOOLEAN_LAWS = [
    ("LEM", 1, lambda l, x: (l.join(x, l.compl(x)), l.top)),
]


def validate(l: Lattice, kind: str | None = None) -> list[str]:
    """Exhaustively check the defining equations; return violation reports,
    one per failing law, naming its first counterexample.

    kind is 'bdl', 'heyting' or 'boolean'; defaults to the strongest kind the
    instance claims.  The check is cubic in the lattice size: size**2 rows
    of size cells for each law of arity 3, each row gathered by an
    itemgetter.  In process it is slower than the numpy broadcast it
    replaced; on chains, best of 3 on a 2-core container, over two runs:
    5-8 against 0.5-0.8 ms at 16 elements, 21-35 against 2-4 ms at 32,
    0.12-0.18 against 0.02-0.03 s at 64 and 0.67-0.75 against 0.14-0.21 s
    at 128.  A process that validates no longer imports numpy (~0.1 s), so
    it breaks even near 64 elements.  ``check-algebra`` on ``chain 256``,
    the largest carrier the file reader builds tables for, takes ~6 s
    against ~2 s.
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
    inside = [x in s for x in range(l.size)]
    member = _Table([inside])

    def law(x, y):   # for x in the set: x * y is in it, and so is x + y if y is
        if not inside[x]:
            return True, True
        return _pointwise(and_, _gather(member, l.meet(x, y)),
                          _pointwise(le, _gather(member, y), _gather(member, l.join(x, y)))), True

    return _first_failure(l.size, 2, law) is None


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
    cls = _class_map(l, partition)
    first = {}
    rep = [first.setdefault(k, x) for x, k in enumerate(cls)]
    cls, reps = _Table([cls]), _Table([rep])
    for name in _op_names(l):
        op = getattr(l, name)
        moved = (lambda x, y: (_gather(cls, op(x, y)), _gather(cls, op(rep[x], y))),
                 lambda x, y: (_gather(cls, op(x, y)), _gather(cls, op(x, _gather(reps, y)))))
        if any(_first_failure(l.size, 2, law) is not None for law in moved):
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
    join = [[cls[l.join(a, b)] for b in reps] for a in reps]
    meet = [[cls[l.meet(a, b)] for b in reps] for a in reps]
    names = tuple("|".join(l.element_name(x) for x in b) for b in blocks)
    bot, top = cls[l.bot], cls[l.top]
    if isinstance(l, HeytingAlgebra):
        impl = [[cls[l.impl(a, b)] for b in reps] for a in reps]
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

    join = [[idx(l.join(a, b), a, b) for b in emb] for a in emb]
    meet = [[idx(l.meet(a, b), a, b) for b in emb] for a in emb]
    names = tuple(l.element_name(x) for x in emb)
    bot, top = pos[l.bot], pos[l.top]
    if kind == "bdl":
        return Lattice(join, meet, names, bot, top), emb
    impl = [[idx(l.impl(a, b), a, b) for b in emb] for a in emb]
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
    lt = [[bool(mask >> (i * n + j) & 1) for j in range(n)] for i in range(n)]
    if names is None:
        names = [f"p{i}" for i in range(n)]
    return Poset(names, lt)


@lru_cache(maxsize=None)
def heyting_catalog(max_poset_points: int) -> tuple:
    """Downset algebras of all posets with 1..max_poset_points points.

    Deduplicated up to lattice isomorphism (distinct posets already give
    non-isomorphic downset lattices) and sorted by size, then by the
    lexicographic order of the operation tables, row by row.
    """
    if not 1 <= max_poset_points <= 5:
        raise ValueError("catalog supports 1..5 poset points")
    algs = []
    for n in range(1, max_poset_points + 1):
        for mask in all_posets(n):
            algs.append(downset_algebra(_poset_from_mask(mask, n)))

    algs.sort(key=lambda a: (a.size, a._join, a._meet, a._impl))
    return tuple(algs)


def find_isomorphism(l1: Lattice, l2: Lattice):
    """A lattice isomorphism l1 -> l2 as an index list, or None.

    Backtracking over the order, with an explicit stack rather than
    recursion, so the depth of the search is not bounded by Python's.
    """
    if l1.size != l2.size:
        return None
    (up1, down1), (up2, down2) = l1._order, l2._order
    # invariant: degree profile in the order
    prof1 = [(u.bit_count(), d.bit_count()) for u, d in zip(up1, down1)]
    prof2 = [(u.bit_count(), d.bit_count()) for u, d in zip(up2, down2)]
    if sorted(prof1) != sorted(prof2):
        return None
    order = sorted(range(l1.size), key=prof1.__getitem__)
    cands = {}
    for j, p in enumerate(prof2):
        cands.setdefault(p, []).append(j)
    image, placed, imaged = [-1] * l1.size, 0, 0   # placed points, their images: bitmasks
    # depth-first search on an explicit stack: nxt[k] is the position in its
    # candidate list of the next image to try for order[k]
    nxt = [0]
    while nxt and len(nxt) <= len(order):
        k = len(nxt) - 1
        i = order[k]
        if image[i] != -1:  # back from a dead end: undo this point's choice
            placed, imaged, image[i] = placed ^ 1 << i, imaged ^ 1 << image[i], -1
        # j fits i iff the images above and below it are those of the placed
        # points above and below i
        want = [sum(1 << image[p] for p in _bits(m & placed)) for m in (up1[i], down1[i])]
        options = cands[prof1[i]]
        p = next((p for p in range(nxt[k], len(options)) if not imaged >> options[p] & 1
                  and [up2[options[p]] & imaged, down2[options[p]] & imaged] == want), None)
        if p is None:
            nxt.pop()
            continue
        image[i], placed, imaged = options[p], placed | 1 << i, imaged | 1 << options[p]
        nxt[k] = p + 1
        nxt.append(0)
    # a bijection preserving the order both ways is a lattice isomorphism
    return image if nxt else None
