"""Spans recorded around dalkit's public functions, from outside dalkit.

``Tracer.install`` replaces each public name listed in ``TARGETS`` with a
timing wrapper, in its defining module and in every other loaded dalkit
module that bound the same object (``from .algebra import evaluate``).
A listed name that a later version deletes is skipped, so its layer
reports count 0 instead of breaking the run.  Spans (name, start, end,
parent) are kept in compact arrays and written out by ``dump``.
"""

from __future__ import annotations

import gzip
import math
import sys
import time
from array import array
from collections import Counter

# (module, attribute, span name, kind).  kind "gen" wraps a generator
# function and times each step; "init" wraps a class's __init__.
TARGETS = (
    ("dalkit.syntax", "parse_formula", "syntax.parse", "call"),
    ("dalkit.syntax", "parse_action", "syntax.parse", "call"),
    ("dalkit.models", "sat", "models.sat", "call"),
    ("dalkit.decide", "decide_classical", "decide.classical", "call"),
    ("dalkit.decide", "countermodel_heyting", "decide.heyting", "call"),
    ("dalkit.algebra", "enumerate_pf_maps", "algebra.pf_enum", "gen"),
    ("dalkit.algebra", "DeonticAlgebra", "algebra.construct", "init"),
    ("dalkit.algebra", "evaluate_batch", "algebra.eval_batch", "call"),
    ("dalkit.algebra", "evaluate", "algebra.eval", "call"),
    ("dalkit.lattice", "heyting_catalog", "lattice.catalog", "call"),
    ("dalkit.lattice", "all_posets", "lattice.all_posets", "call"),
    ("dalkit.proof", "check_proof", "proof.check", "call"),
    ("dalkit.formats", "read_model", "formats.read", "call"),
    ("dalkit.formats", "read_algebra", "formats.read", "call"),
    ("dalkit.formats", "read_proof", "formats.read", "call"),
    ("dalkit.duality", "to_algebra", "duality.convert", "call"),
    ("dalkit.duality", "to_model", "duality.convert", "call"),
    ("dalkit.duality", "stoneify", "duality.convert", "call"),
    ("dalkit.cli", "main", "cli.main", "call"),
)


def _pf_pairs(action, formula):
    """Pairs enumerate_pf_maps generates before filtering: |F|^(2|J(A)|)."""
    return formula.size ** (2 * len(action.join_irreducibles()))


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self._patches: list[tuple] = []
        self._pair_memo: dict = {}

    # -- spans ---------------------------------------------------------------

    def open(self, label: str) -> int:
        lid = self._label_ids.get(label)
        if lid is None:
            lid = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        idx = len(self.start)
        self.name.append(lid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(math.nan)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    # -- wrappers ------------------------------------------------------------

    def _wrap_call(self, fn, label):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(label)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        traced.__wrapped__ = fn
        return traced

    def _wrap_gen(self, fn, label):
        """Time each step of the generator; count what it yields and, for
        generators run to the end, the pairs generated before filtering."""
        tracer = self

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            kept = 0
            while True:
                idx = tracer.open(label)
                try:
                    item = next(gen)
                except StopIteration:
                    tracer.close(idx)
                    break
                except BaseException:
                    tracer.close(idx)
                    raise
                tracer.close(idx)
                kept += 1
                tracer.counters["algebra.pf_candidates"] += 1
                yield item
            key = tuple(id(a) for a in args)
            if key not in tracer._pair_memo:
                tracer._pair_memo[key] = (args, _pf_pairs(*args[:2]))
            tracer.counters["pf_pairs_kept"] += kept
            tracer.counters["pf_pairs_generated"] += tracer._pair_memo[key][1]

        traced.__wrapped__ = fn
        return traced

    def install(self, targets=TARGETS) -> list[str]:
        """Patch every target whose module is loaded; return the targets
        whose module is loaded but lacks the name."""
        missing = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "dalkit" or n.startswith("dalkit."))]
        for modname, attr, label, kind in targets:
            home = sys.modules.get(modname)
            if home is None:
                continue
            original = getattr(home, attr, None)
            if original is None:
                missing.append(f"{modname}.{attr}")
                continue
            if kind == "init":
                init = original.__init__
                self._patches.append((original, "__init__", init))
                original.__init__ = self._wrap_call(init, label)
                continue
            wrapper = (self._wrap_gen if kind == "gen" else self._wrap_call)(original, label)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, name, original))
                        setattr(mod, name, wrapper)
        return missing

    def uninstall(self) -> None:
        for obj, name, original in reversed(self._patches):
            setattr(obj, name, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Inclusive time counts only outermost spans of a name, so recursion
        is not counted twice; self time is a span minus its direct children.
        """
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {label: {"calls": 0, "s": 0.0, "self_s": 0.0} for label in self.labels}
        for i in range(n):
            row = out[self.labels[self.name[i]]]
            row["calls"] += 1
            row["self_s"] += dur[i] - child[i]
            p = self.parent[i]
            while p >= 0 and self.name[p] != self.name[i]:
                p = self.parent[p]
            if p < 0:
                row["s"] += dur[i]
        return out

    def rows(self):
        """(name, start, end, parent) for every recorded span."""
        for i in range(len(self.start)):
            yield self.labels[self.name[i]], self.start[i], self.end[i], self.parent[i]


def dump(path, rows) -> None:
    """Write spans as gzip'd CSV: op, name, start_s, end_s, parent index."""
    with gzip.open(path, "wt") as fh:
        fh.write("op,name,start_s,end_s,parent\n")
        for op, name, start, end, parent in rows:
            fh.write(f"{op},{name},{start:.9f},{end:.9f},{parent}\n")


def parse_importtime(stderr: str) -> tuple[dict, str]:
    """Cumulative seconds per module from ``-X importtime`` output, and the
    rest of stderr."""
    times, rest = {}, []
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            parts = line[len("import time:"):].split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                times.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
            continue
        rest.append(line)
    return times, "\n".join(rest)
