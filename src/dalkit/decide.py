"""Validity decisions.

The classical variants (DAL, DAL_PROP, NDAL1-5) are decided exactly by
``models.decide_classical``, on bit-sliced Python ints and without numpy;
this module re-exports it with its result types and status constants.

The Heyting variants (DAL_IPL, DAL_IAL, DAL_INT) get a refutation-only
search over catalog algebra pairs with all valid crisp-equality P/F maps;
it returns a countermodel or Unknown, never Valid.  The catalog pairs are
built once per process, and so is the stack of valid P/F maps of each pair
whose whole P x F product fits one ``algebra._COND_CHUNK`` block of the
condition-3 filter: it is built the first time a search reaches the pair
and then kept.  A larger pair is streamed block by block on every search
and never stored.

The search runs the compiled formula over rows, a chunk of them at a time,
with the op set of ``algebra`` over a stand-in for the algebra.  Each
catalog lays the algebras of each sort side by side in one table, and a
run lays the P/F maps of its pairs side by side, so an operation on a
chunk is one flat take.  A pair gets one row per distinct reading of the
maps the formula reads: a P map if it reads only ``perm``, an F map if
only ``forb``, one row if neither, and a (P, F) candidate if both.  The
rows are in the order of the first candidate making each reading, so the
first failing row gives the first failing candidate.  The action subterms
are evaluated once per pair and interpretation, on a grid.

What depends only on the catalog is kept in its ``_Layout``: for the
longest prefix of pairs whose stacks are kept, the rows of each read set
with their map tables, and the grids of each number of actions and
propositions.  A search cuts the prefix's rows to its budgets and runs
them; the prefix is laid out again, all at once, only when searches have
built more stacks, so a cold search lays out nothing.  Past the prefix,
the pairs not built yet and the streamed ones are gathered pair by pair.
"""

from __future__ import annotations

import functools

import numpy as np

from . import syntax as S
from .algebra import (BudgetExceeded, DeonticAlgebra, Interpretation, _pf_one_block,
                      _pf_stacks, _run_table, _Sort, evaluate)
from .lattice import heyting_catalog, powerset_algebra, two
from .models import (EMPTY, FORBIDDEN, NEUTRAL, PERMITTED, AtomAssignment,
                     Countermodel, Valid, decide_classical)
from .syntax import LogicVariant as V


class Unknown(S.Record):
    reason: str


# ---------------------------------------------------------------------------
# Heyting-variant countermodel search
# ---------------------------------------------------------------------------

def _boolean_catalog(max_atoms=2):
    return [powerset_algebra([f"t{i}" for i in range(k)])
            for k in range(1, max_atoms + 1)]


@functools.lru_cache(maxsize=None)
def _catalog_pairs(variant, max_points):
    """The (action, formula) algebra pairs searched, built once per process,
    so the same pair objects key _pair_stack and _layout."""
    heyt = heyting_catalog(max_points)
    if variant is V.DAL_IPL:
        return tuple((a, f) for a in _boolean_catalog() for f in heyt)
    if variant is V.DAL_IAL:
        return tuple((a, two()) for a in heyt)
    if variant is V.DAL_INT:
        return tuple((a, f) for a in heyt for f in heyt)
    raise ValueError(f"{variant.value} is not a Heyting-search variant")


@functools.lru_cache(maxsize=None)
def _fence_pairs():
    """fence_scenario_search's pairs, built once so they key _pair_stack."""
    return tuple((action, two()) for action in (two(), powerset_algebra(["t0", "t1"])))


@functools.lru_cache(maxsize=None)
def _pair_stack(A, Fm):
    """The _pf_stacks blocks of a pair that fits one ``_COND_CHUNK`` block,
    kept for the life of the process, since the valid P/F maps depend only on
    the pair; None for a larger pair, which every search streams anew.  The
    index arrays are kept in the smallest integer type that holds them."""
    if not _pf_one_block(A, Fm):
        return None
    return tuple((Ps, Fs, pi.astype(np.min_scalar_type(len(Ps))), fi.astype(np.min_scalar_type(len(Fs))))
                 for Ps, Fs, pi, fi in _pf_stacks(A, Fm))


class _Unit:
    """A block's first m candidates, those the budget admits: the maps
    (Ps[pi[j]], Fs[fi[j]]) of catalog pair k, candidate base + j of the
    search."""
    __slots__ = "k", "Ps", "Fs", "pi", "fi", "m", "base"

    def __init__(self, k, Ps, Fs, pi, fi, m, base):
        self.k, self.Ps, self.Fs, self.pi, self.fi, self.m, self.base = k, Ps, Fs, pi, fi, m, base


def _rows(pi, fi, m, nF, reads_p, reads_f):
    """(prow, frow, first) for a block's first m candidates: one row per
    distinct reading of the maps the formula reads, in the order of the
    first candidate making it, ``first``; prow/frow give each row's P/F map,
    None for a map the formula does not read.  Every P map of a block pairs
    with the F map that is bot off 0, and pi is sorted, so the candidates
    read the P maps pi[0]..pi[m-1], first in that order."""
    if reads_p and reads_f:
        return pi[:m], fi[:m], np.arange(m)
    if reads_p:
        prow = np.arange(pi[0], pi[m - 1] + 1)
        return prow, None, np.searchsorted(pi[:m], prow)
    if not reads_f:
        return None, None, np.zeros(1, np.int64)
    if m >= nF and pi[nF - 1] == pi[0]:   # the first P map pairs with every F map, in order
        return None, np.arange(nF), np.arange(nF)
    keys, first = np.unique(fi[:m], return_index=True)
    order = np.argsort(first)
    return None, keys[order], first[order]


def _read(tables, rows, ks, at, asort, fsort):
    """(maps, shift) for the P or F maps read by rows of the pairs ``at``,
    the rows of each of the pairs ``ks`` indexing its table of maps: the
    tables side by side in formula ids, and per row the shift that takes an
    action id to the entry of the row's map."""
    sizes = np.array([t.size for t in tables])
    shift = np.concatenate(rows) * asort.size[at] \
        + (np.cumsum(sizes) - sizes).repeat([len(r) for r in rows]) - asort.off[at]
    maps = np.concatenate([t.ravel() for t in tables]) + fsort.off[ks].repeat(sizes)
    return maps, shift.astype(np.int32)[:, None]


class _Rows:
    """The rows of units of consecutive pairs side by side: per unit its
    pair ``ks`` and the end of its rows ``end``; per row its pair ``at``
    and the search's index ``first`` of the first candidate making it, and
    ``pshift``/``fshift``, which take an action id to the entry of the
    row's own map in the map tables ``P``/``F`` (None for a map the formula
    does not read).  ``parts`` are (unit, _rows of the unit).  The index
    arrays are kept in the smallest integer type that holds them."""

    def __init__(self, parts, reads, asort, fsort):
        self.units = [u for u, _ in parts]
        counts = [len(first) for _, (_, _, first) in parts]
        self.end = np.cumsum(counts)
        self.ks = np.array([u.k for u in self.units], np.min_scalar_type(self.units[-1].k))
        self.at = self.ks.repeat(counts)
        first = np.concatenate([first + u.base for u, (_, _, first) in parts])
        self.first = first.astype(np.min_scalar_type(first[-1]))   # ascending
        self.P = self.pshift = self.F = self.fshift = None
        if reads[0]:
            self.P, self.pshift = _read([u.Ps for u in self.units], [p for _, (p, _, _) in parts],
                                        self.ks, self.at, asort, fsort)
        if reads[1]:
            self.F, self.fshift = _read([u.Fs for u in self.units], [f for _, (_, f, _) in parts],
                                        self.ks, self.at, asort, fsort)


def _grid(asort, fsort, pairs, nacts, nprops):
    """The interpretation grid of the pairs (a slice): per name, the first
    most significant as in _assignment_grid, the id it takes, pairs x
    interpretations.  It is as wide as the largest interpretation count
    among the pairs; a pair's row runs on past its own count in the same
    digit order, which only repeats its interpretations, so the first hit
    in a row is never in that tail."""
    asize, fsize = asort.size[pairs], fsort.size[pairs]
    period = asize.astype(np.int64) ** nacts * fsize.astype(np.int64) ** nprops
    col = np.arange(int(period.max()), dtype=np.int32)   # int32 like the tables; a wider grid raises here
    period = period.astype(np.int32)
    digits = []
    for size, off, count in ((asize, asort.off[pairs], nacts), (fsize, fsort.off[pairs], nprops)):
        for _ in range(count):
            period = period // size
            digits.append(col // period[:, None] % size[:, None] + off[:, None])
    return digits


class _Layout:
    """What the searches of one catalog share, kept for the process.

    The action and the formula _Sort of the pairs; ``held``, the length of
    the longest prefix of pairs whose stacks _pair_stack is known to keep;
    for the first ``len(units)`` of those pairs (the prefix), one unit per
    pair with all its candidates, and the prefix's _Rows of each read set
    (perm, forb) searched since the prefix was last laid out; and per
    (action count, proposition count) the interpretation counts of the
    pairs and the grid of the leading pairs whose grid fits _CAND_CHUNK
    cells."""

    def __init__(self, pairs):
        self.pairs = pairs
        self.asort, self.fsort = (_Sort(side) for side in zip(*pairs))
        self.held, self.units, self.rows, self.shapes = 0, [], {}, {}

    def prefix(self, reads):
        """The prefix's _Rows for the read set, or None for no prefix.  The
        prefix is laid out anew, all at once, when searches have built
        stacks past it: at most once per search."""
        if self.held > len(self.units):
            units, base = [], 0
            for k, (A, Fm) in enumerate(self.pairs[:self.held]):
                (Ps, Fs, pi, fi), = _pair_stack(A, Fm)
                units.append(_Unit(k, Ps, Fs, pi, fi, len(pi), base))
                base += len(pi)
            self.units, self.rows = units, {}
        units, rows = self.units, self.rows
        if units and reads not in rows:
            rows[reads] = _Rows([(u, _rows(u.pi, u.fi, u.m, len(u.Fs), *reads)) for u in units],
                                reads, self.asort, self.fsort)
        return rows.get(reads)

    def shape(self, nacts, nprops):
        """(interps, cells, g, grid): per pair its interpretation count, and
        that count as a numpy array capped just past _CAND_CHUNK; the grid
        of the first g pairs, the most whose grid fits _CAND_CHUNK cells."""
        if (nacts, nprops) not in self.shapes:
            interps = [A.size ** nacts * Fm.size ** nprops for A, Fm in self.pairs]
            g, width = 0, 1
            while g < len(interps) and (g + 1) * max(width, interps[g]) <= _CAND_CHUNK:
                width, g = max(width, interps[g]), g + 1
            self.shapes[nacts, nprops] = (
                interps, np.array([min(n, _CAND_CHUNK + 1) for n in interps]), g,
                _grid(self.asort, self.fsort, slice(0, g), nacts, nprops) if g else None)
        return self.shapes[nacts, nprops]


@functools.lru_cache(maxsize=None)
def _layout(pairs):
    """The _Layout of a catalog, one per catalog."""
    return _Layout(pairs)


class _Chunk:
    """Stands in for a DeonticAlgebra in _TABLE_OPS over a chunk of rows.
    Action values live on the chunk's pairs x interpretations grid,
    formula values on its rows x interpretations grid; ``pair_row`` gives
    the pairs-grid row of each row, and ``pshift``/``fshift`` take an action
    id there to the entry of the row's own map in P/F."""

    def __init__(self, action, formula, pair_row, P, pshift, F, fshift):
        self.action, self.formula, self.pair_row = action, formula, pair_row
        self.P, self.pshift, self.F, self.fshift = P, pshift, F, fshift

    def E(self, x, y):
        return np.where((x == y).take(self.pair_row, axis=0), self.formula.top, self.formula.bot)

    def perm(self, x):
        return self.P.take(x.take(self.pair_row, axis=0) + self.pshift)

    def forb(self, x):
        return self.F.take(x.take(self.pair_row, axis=0) + self.fshift)


def _run_chunk(lay, rows, r0, r1, assign, table, props, holds):
    """Run the table once over rows r0..r1-1, whose pairs' grid is
    ``assign``, and return (row, interpretation) at the first hit, or
    None."""
    at = rows.at[r0:r1]
    k0 = int(at[0])
    formula = lay.fsort.bounded(at)
    pshift, fshift = (None if s is None else s[r0:r1] for s in (rows.pshift, rows.fshift))
    D = _Chunk(lay.asort.bounded(slice(k0, int(at[-1]) + 1)), formula, at - k0,
               rows.P, pshift, rows.F, fshift)
    value = _run_table(D, assign, {q: assign[q].take(D.pair_row, axis=0) for q in props}, table)
    bad = value == formula.top if holds else value != formula.top
    r, i = divmod(int(bad.argmax()), bad.shape[1])
    return (r0 + r, i) if bad[r, i] else None


_CAND_CHUNK = 1 << 20


def _first_hit(lay, rows, hi, table, acts, props, holds):
    """(algebra, interpretation, candidates tried) at the first hit among
    rows[:hi], or None.  The rows run in chunks of as many rows as fit
    _CAND_CHUNK cells at the chunk's largest interpretation count, or of
    one row."""
    interps, cells, g, grid = lay.shape(len(acts), len(props))
    u1 = int(rows.end.searchsorted(hi - 1, "right"))   # the unit of the last row
    r0 = 0
    while r0 < hi:
        u0 = int(rows.end.searchsorted(r0, "right"))
        width = np.maximum.accumulate(cells.take(rows.ks[u0:u1 + 1]))   # a chunk's if it ended with each unit
        if (hi - r0) * int(width[-1]) <= _CAND_CHUNK:
            r1 = hi
        else:
            rows_to = np.minimum(rows.end[u0:u1 + 1], hi) - r0   # and its rows
            p = int((rows_to * width > _CAND_CHUNK).searchsorted(True))   # the units that fit whole
            r1 = r0 + max(1, rows_to[p - 1] if p else 0, _CAND_CHUNK // int(width[p]))
        k0, k1 = int(rows.at[r0]), int(rows.at[r1 - 1])
        digits = ([d[k0:k1 + 1, :max(interps[k0:k1 + 1])] for d in grid] if k1 < g
                  else _grid(lay.asort, lay.fsort, slice(k0, k1 + 1), len(acts), len(props)))
        assign = dict(zip(acts + props, digits))
        hit = _run_chunk(lay, rows, r0, r1, assign, table, props, holds)
        if hit:
            r, i = hit
            u = rows.units[int(rows.end.searchsorted(r, "right"))]
            j = int(rows.first[r]) - u.base   # the unit's first candidate making row r
            h = Interpretation(act={a: int(assign[a][u.k - k0, i] - lay.asort.off[u.k]) for a in acts},
                               prop={q: int(assign[q][u.k - k0, i] - lay.fsort.off[u.k]) for q in props})
            return DeonticAlgebra(*lay.pairs[u.k], u.Ps[u.pi[j]], u.Fs[u.fi[j]]), h, u.base + j + 1
        r0 = r1
    return None


def _search(pairs, table, holds, max_candidates, max_interps):
    """(algebra, interpretation, candidates tried) at the first cell, in
    countermodel_heyting's order, where the formula compiled in ``table``
    holds (is top) or fails, as ``holds`` says; no algebra if the pairs or
    max_candidates run out.

    The prefix of the catalog's _Layout is cut to the rows whose first
    candidate the budget admits, and before the first pair with more
    interpretations than max_interps, and run.  Past the prefix the pairs
    are gathered one by one into chunks, each run when it fills, before
    the search streams a pair's maps and right after it builds or streams
    them, so a search stopped early builds at most one stack past the pair
    it stops in."""
    if max_candidates < 0 or max_interps < 0:
        raise ValueError("budgets must be non-negative")
    acts, props = S.table_names(table, S.Basic), S.table_names(table, S.Prop)
    classes = {row[0] for row in table}
    reads = S.Perm in classes, S.Forb in classes
    lay = _layout(pairs)
    interps = lay.shape(len(acts), len(props))[0]
    rows, tried = lay.prefix(reads), 0
    units = rows.units if rows else []   # its own, whatever another thread lays out meanwhile
    if units:
        over = next((u.k for u in units if interps[u.k] > max_interps and u.base < max_candidates), None)
        hi = int(rows.first.searchsorted(max_candidates) if over is None else rows.end[over - 1] if over else 0)
        if found := _first_hit(lay, rows, hi, table, acts, props, holds):
            return found
        if over is not None:
            raise BudgetExceeded(f"{interps[over]} interpretations exceed the budget of {max_interps}")
        tried = units[-1].base + units[-1].m
        if tried > max_candidates:   # the count up to the end of the pair the budget ran out in
            return None, None, next(u.base + u.m for u in units if u.base + u.m > max_candidates)
    parts, height, width = [], 0, 1

    def flush():
        nonlocal parts, height, width
        rows = _Rows(parts, reads, lay.asort, lay.fsort) if parts else None
        parts, height, width = [], 0, 1
        return rows and _first_hit(lay, rows, len(rows.first), table, acts, props, holds)

    misses = _pair_stack.cache_info().misses
    for k in range(len(units), len(pairs)):
        A, Fm = pairs[k]
        blocks = _pair_stack(A, Fm)
        built = misses != (misses := _pair_stack.cache_info().misses)
        if blocks is None:
            if found := flush():
                return found
        elif k == lay.held:
            lay.held = k + 1   # not += 1: a lost update may shorten the prefix, never lengthen it
        for Ps, Fs, pi, fi in _pf_stacks(A, Fm) if blocks is None else blocks:
            m = min(len(pi), max_candidates - tried)
            if m > 0:
                if interps[k] > max_interps:
                    if found := flush():
                        return found
                    raise BudgetExceeded(f"{interps[k]} interpretations exceed the budget of {max_interps}")
                parts.append((_Unit(k, Ps, Fs, pi, fi, m, tried), _rows(pi, fi, m, len(Fs), *reads)))
                height, width = height + len(parts[-1][1][2]), max(width, interps[k])
                if height * width >= _CAND_CHUNK and (found := flush()):
                    return found
            tried += len(pi)
            if tried > max_candidates:
                return flush() or (None, None, tried)
        if (built or blocks is None) and (found := flush()):
            return found
    return flush() or (None, None, tried)


def countermodel_heyting(phi: S.FormulaTerm, variant: V,
                         max_candidates: int = 5000,
                         max_interps: int = 65536,
                         max_points: int = 2):
    """Search catalog algebra pairs for a falsifying interpretation.

    Refutation only: the result is a Countermodel carrying the algebra and
    interpretation, or Unknown (budget exhausted or catalog exhausted).
    The pairs are fixed per variant (``_catalog_pairs``): DAL_IPL searches
    only the Boolean action algebras of 1 and 2 atoms, whatever
    ``max_points``, so it never sees three pairwise disjoint nonzero
    actions.  ``!(a*b == 0 & a*c == 0 & b*c == 0 & !(a == 0) & !(b == 0) &
    !(c == 0))`` is never refuted there, though ``decide_classical`` refutes
    it under DAL.  The
    countermodel is the first in catalog pair order, then P-major/F-minor
    over join-irreducible values, then interpretation grid order, and is
    re-verified by the scalar evaluator.  Consecutive pairs are evaluated
    together, in chunks of at most ``_CAND_CHUNK`` row-interpretation cells,
    with one row per distinct reading of the P and F maps the formula reads
    (see the module docstring).  The valid P/F maps of a pair that fits one
    ``_COND_CHUNK`` block are built once per process, when a search first
    reaches the pair, and reused by every later search; larger pairs are
    rebuilt, block by block, each time.  A search that builds or streams
    pairs evaluates what it has gathered before it streams a pair and
    after it builds or streams one, so on a cold cache it goes pair by pair
    and builds nothing past the pair it stops in.  The next search lays the
    kept pairs out, once, and it and every later search cut that layout to
    their budgets and run it: on a warm cache a whole catalog that fits is
    one chunk.  Negative budgets raise ValueError.
    """
    table = S.compile_term(phi)   # kept on phi for evaluate's re-verification
    try:
        D, h, tried = _search(_catalog_pairs(variant, max_points), table, False,
                              max_candidates, max_interps)
    except BudgetExceeded as e:
        return Unknown(str(e))
    if D is None:
        return Unknown(f"candidate budget of {max_candidates} algebras exhausted"
                       if tried > max_candidates else f"no countermodel among {tried} catalog algebras")
    if evaluate(D, h, phi) == D.formula.top:
        raise AssertionError("countermodel failed to re-verify")
    return Countermodel(algebra=D, interp=h)


def fence_scenario_search(max_candidates: int = 200):
    """A nontrivial algebra + interpretation satisfying the four fence
    prescriptions at once; raises if none shows up within the budget."""
    texts = ("obl(~isfenced)",
             "isfenced == 1 -> obl(ispaintedwhite)",
             "isfenced == 1",
             "ispaintedwhite + isfenced == isfenced")
    conj = functools.reduce(S.And, (S.parse_formula(t, V.DAL_PROP) for t in texts))
    D, h, _ = _search(_fence_pairs(), S.compile_term(conj), True, max_candidates, 1 << 16)
    if D is None:
        raise BudgetExceeded(f"no fence witness within {max_candidates} candidates")
    return D, h
