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

The search runs the compiled formula once per chunk of consecutive pairs,
with the op set of ``algebra`` over a stand-in for the algebra.  Each
catalog lays the algebras of each sort side by side in one table, so an
operation on a chunk is one flat take.  The pairs' interpretations form a
pairs x interpretations grid, on which the action subterms are evaluated
once.  Below it, a pair gets one row per distinct reading of the maps the
formula reads: a P map if it reads only ``perm``, an F map if only
``forb``, one row if neither, and a (P, F) candidate if both.  The rows
are in the order of the first candidate making each reading, so the first
failing row gives the first failing candidate.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

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
    so the same pair objects key _pair_stack."""
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


@functools.lru_cache(maxsize=None)
def _layout(pairs):
    """The action and the formula _Sort of a catalog, built once per catalog."""
    return tuple(_Sort(side) for side in zip(*pairs))


class _Chunk:
    """Stands in for a DeonticAlgebra in _TABLE_OPS over a chunk of catalog
    pairs.  Action values live on the chunk's pairs x interpretations grid,
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


class _Unit(NamedTuple):
    """A block's first m candidates, those the budget admits, and the rows
    that stand for them: per row the index of its P map and of its F map,
    None for a map the formula does not read."""
    k: int              # the pair's position in the catalog
    Ps: np.ndarray
    Fs: np.ndarray
    pi: np.ndarray
    fi: np.ndarray
    m: int
    base: int           # candidates tried before the block
    prow: np.ndarray | None
    frow: np.ndarray | None
    nrows: int


def _rows(pi, fi, m, nF, reads_p, reads_f):
    """(prow, frow, rows) for a block's first m candidates: one row per
    distinct reading of the maps the formula reads, in the order of the
    first candidate making it.  Every P map of a block pairs with the F map
    that is bot off 0, and pi is sorted, so the candidates read the P maps
    pi[0]..pi[m-1], first in that order."""
    if reads_p and reads_f:
        return pi[:m], fi[:m], m
    if reads_p:
        prow = np.arange(pi[0], pi[m - 1] + 1)
        return prow, None, len(prow)
    if not reads_f:
        return None, None, 1
    if m >= nF and pi[nF - 1] == pi[0]:   # the first P map pairs with every F map, in order
        frow = np.arange(nF)
    else:
        keys, first = np.unique(fi[:m], return_index=True)
        frow = keys[np.argsort(first)]
    return None, frow, len(frow)


def _read(pieces, side, ks, at, asort, fsort):
    """(maps, shift) for the P (side 0) or F (side 1) maps of a chunk whose
    pieces are of the pairs ``ks`` and whose rows are of the pairs ``at``:
    the maps of the pieces side by side in formula ids, and per row the
    shift that takes an action id to the entry of the row's map."""
    rows = [(u.prow, u.frow)[side][r0:r1] for u, r0, r1 in pieces]
    tables = [(u.Ps, u.Fs)[side] for u, _, _ in pieces]
    sizes = np.array([t.size for t in tables])
    shift = np.concatenate(rows) * asort.size[at] \
        + (np.cumsum(sizes) - sizes).repeat([len(r) for r in rows]) - asort.off[at]
    maps = np.concatenate([t.ravel() for t in tables]) + fsort.off[ks].repeat(sizes)
    return maps, shift.astype(np.int32)[:, None]


def _run_chunk(pieces, asort, fsort, table, acts, props, holds):
    """Run the table once over the pieces (unit, r0, r1), rows r0..r1-1 of
    each unit, and return (unit, candidate, interpretation) at the first
    hit, or None.  The grids are as wide as the largest interpretation count
    among the pairs; a pair's grid row runs on past its own count in the
    same digit order, which only repeats its interpretations, so the first
    hit in a row is never in that tail."""
    k0 = pieces[0][0].k
    pairs = slice(k0, pieces[-1][0].k + 1)   # consecutive: every pair has a candidate
    period = (asort.size[pairs].astype(np.int64) ** len(acts)
              * fsort.size[pairs].astype(np.int64) ** len(props))
    col = np.arange(int(period.max()), dtype=np.int32)   # int32 like the tables; a wider grid raises here
    period = period.astype(np.int32)
    assign = {}
    for names, sort in ((acts, asort), (props, fsort)):
        size = sort.size[pairs]
        for name in names:   # the first name most significant, as in _assignment_grid
            period = period // size
            assign[name] = col // period[:, None] % size[:, None] + sort.off[pairs, None]
    ks = np.array([u.k for u, _, _ in pieces])
    at = ks.repeat([r1 - r0 for _, r0, r1 in pieces])   # the catalog pair of each row
    formula = fsort.bounded(at)
    u = pieces[0][0]
    P, pshift = (None, None) if u.prow is None else _read(pieces, 0, ks, at, asort, fsort)
    F, fshift = (None, None) if u.frow is None else _read(pieces, 1, ks, at, asort, fsort)
    D = _Chunk(asort.bounded(pairs), formula, at - k0, P, pshift, F, fshift)
    value = _run_table(D, assign, {q: assign[q].take(D.pair_row, axis=0) for q in props}, table)
    bad = value == formula.top if holds else value != formula.top
    c = int(bad.argmax())
    r, i = divmod(c, bad.shape[1])
    if not bad[r, i]:
        return None
    for u, r0, r1 in pieces:   # the piece holding row r
        if r < r1 - r0:
            break
        r -= r1 - r0
    row = r0 + r
    if u.prow is not None and u.frow is not None:   # the first candidate making the row
        j = row
    elif u.prow is not None:
        j = int(np.searchsorted(u.pi[:u.m], u.prow[row]))
    elif u.frow is not None:
        j = int(np.argmax(u.fi[:u.m] == u.frow[row]))
    else:
        j = 0
    g = u.k - k0
    h = Interpretation(act={a: int(assign[a][g, i] - asort.off[u.k]) for a in acts},
                       prop={q: int(assign[q][g, i] - fsort.off[u.k]) for q in props})
    return u, j, h


_CAND_CHUNK = 1 << 20


def _search(pairs, table, holds, max_candidates, max_interps):
    """(algebra, interpretation, candidates tried) at the first cell, in
    countermodel_heyting's order, where the formula compiled in ``table``
    holds (is top) or fails, as ``holds`` says; no algebra if the pairs or
    max_candidates run out.  Consecutive blocks are packed into chunks of at
    most _CAND_CHUNK rows x interpretations cells, each one run of the
    table.  A chunk is run before the search streams a pair's maps and
    right after it builds or streams them, so a search stopped early builds
    at most one stack past the pair it stops in; on a warm cache a whole
    catalog that fits is one chunk."""
    if max_candidates < 0 or max_interps < 0:
        raise ValueError("budgets must be non-negative")
    acts, props = S.table_names(table, S.Basic), S.table_names(table, S.Prop)
    classes = {row[0] for row in table}
    reads = S.Perm in classes, S.Forb in classes
    asort, fsort = _layout(pairs)
    pieces, height, width, tried = [], 0, 1, 0

    def flush():
        nonlocal pieces, height, width
        found = _run_chunk(pieces, asort, fsort, table, acts, props, holds) if pieces else None
        pieces, height, width = [], 0, 1
        if found:
            u, j, h = found
            return DeonticAlgebra(*pairs[u.k], u.Ps[u.pi[j]], u.Fs[u.fi[j]]), h, u.base + j + 1
        return None

    misses = _pair_stack.cache_info().misses
    for k, (A, Fm) in enumerate(pairs):
        interps = A.size ** len(acts) * Fm.size ** len(props)
        blocks = _pair_stack(A, Fm)
        built = misses != (misses := _pair_stack.cache_info().misses)
        if blocks is None and (found := flush()):
            return found
        for Ps, Fs, pi, fi in _pf_stacks(A, Fm) if blocks is None else blocks:
            m = min(len(pi), max_candidates - tried)
            if m > 0:
                if interps > max_interps:
                    if found := flush():
                        return found
                    raise BudgetExceeded(f"{interps} interpretations exceed the budget of {max_interps}")
                unit = _Unit(k, Ps, Fs, pi, fi, m, tried, *_rows(pi, fi, m, len(Fs), *reads))
                r0 = 0
                while r0 < unit.nrows:
                    room = _CAND_CHUNK // max(width, interps) - height
                    if room < 1 and pieces:
                        if found := flush():
                            return found
                        continue
                    r1 = min(unit.nrows, r0 + max(1, room))
                    pieces.append((unit, r0, r1))
                    height, width = height + r1 - r0, max(width, interps)
                    r0 = r1
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
    rebuilt, block by block, each time.  A search evaluates what it has
    gathered before it streams a pair and after it builds or streams one,
    so on a cold cache it goes pair by pair and on a warm one a whole
    catalog can be one chunk.  Negative budgets raise ValueError.
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
