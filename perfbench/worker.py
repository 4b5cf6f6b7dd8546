"""Run one workload in a fresh interpreter and report it as JSON.

    python3 perfbench/worker.py --workload W --seed N --seconds T \
        --mode setup|run|trace --spawned-at MONOTONIC

``run.py`` starts it from the checkout root with the checkout's ``src/``
first on PYTHONPATH.  Modes:

  setup  import dalkit, build the first pass and warm caches, then stop at
         the first timed op; reports set-up time only
  run    untraced closed loop, one caller, in whole passes until about
         ``--seconds`` of op time and at least 100 ops (cli: two passes);
         reports latency, throughput, peak RSS and the verdict checks
  trace  a fixed number of passes with spans around dalkit's public names,
         the same ops again untraced for the tracing overhead, and the
         baseline probe rows

Lines before the last are progress (failed ops, probe rows); the last line
is one JSON object.
"""

import time

T0 = time.monotonic()

import argparse  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import corpus  # noqa: E402
import reference  # noqa: E402
from tracer import Tracer, dump, parse_importtime  # noqa: E402

ROOT = Path.cwd()
OUT = ROOT / ".perfbench"
MIN_OPS = 100
TRACE_PASSES = {"classical": 2, "heyting": 2, "cli": 1}
MAX_CANDIDATES = 10**7  # above every catalog searched, so no op stops on it
# candidates per theorem: the catalog is exhausted, so the count is fixed
PF_PER_THEOREM = {"ipl-theorem": 1406, "int-theorem": 333}
CHILD_TIMEOUT_S = 120
# The host's own speed drifts by up to 2x over minutes, which no 30 s run
# can average out, so end-to-end times are scaled to a host of fixed speed:
# a fixed calibration task (each workload's ``kernel_s``) is timed between
# ops, at least once per ``kernel_every_s`` of op time, and each pass's times
# are multiplied by the task's nominal time over its mean time in that pass.
# Unscaled figures are printed.
SETUP_KERNEL_S = 0.2    # calibration time spent after each set-up


def loop_s():
    """Seconds a fixed pure-Python loop takes right now."""
    t = time.perf_counter()
    d, x = {}, 0
    for j in range(20000):
        x += j * j % 7
        d[j & 255] = x
    return time.perf_counter() - t


def import_dalkit():
    t = time.perf_counter()
    import dalkit
    return dalkit, time.perf_counter() - t


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class InProcess:
    """A workload that calls dalkit in the worker's own interpreter."""

    passes = None   # run passes until about --seconds of op time
    kernel_ref_s = 0.0025
    kernel_every_s = 0.05

    def __init__(self, dk):
        self.dk = dk

    def kernel_s(self):
        return loop_s()

    def setup(self):
        pass

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Classical(InProcess):
    """parse_formula then decide_classical."""

    def make_pass(self, seed, k):
        return corpus.classical_pass(seed, k)

    def run(self, op):
        S = self.dk.syntax
        v = S.LogicVariant(op.variant)
        phi = S.parse_formula(op.text, v)
        alphabet = op.alphabet if op.variant.startswith("ndal") else None
        return phi, self.dk.decide.decide_classical(phi, v, alphabet)

    def check(self, op, out):
        phi, verdict = out
        D = self.dk.decide
        valid = isinstance(verdict, D.Valid)
        if not valid and not isinstance(verdict, D.Countermodel):
            return f"unexpected verdict {verdict!r}"
        if valid != (op.expect == "valid"):
            return f"expected {op.expect}, got {type(verdict).__name__}"
        if not valid:
            M, v = verdict.model, verdict.valuation
            args = (M.elements, M.permitted, M.forbidden, v.map)
            if reference.model_value(op.tree, *args, verdict.prop_val or {}):
                return "countermodel satisfies the formula under the reference"
            if not reference.ndal_admissible(op.variant, op.alphabet, *args):
                return f"countermodel is not {op.variant}-admissible"
        # the oracle is complete for DAL over <= 2 letters (<= 4 elements)
        if op.variant in ("dal", "dal_prop") and len(op.alphabet) <= 2:
            if self.dk.models.taut_oracle(phi) != valid:
                return "verdict disagrees with taut_oracle"
        return None

    def probes(self):
        S, D = self.dk.syntax, self.dk.decide
        short = "perm(a + b) & !forb(~a)"
        n = 500
        t = time.perf_counter()
        for _ in range(n):
            S.parse_formula(short)
        yield "syntax.parse_formula.short_us", (time.perf_counter() - t) / n * 1e6, "us", "84 us"
        for letters, reps, unit, base in ((2, 9, "ms", "3.3 ms"), (3, 3, "s", "0.63 s")):
            names = ["a", "b", "c"][:letters]
            phi = S.parse_formula(f"perm({' + '.join(names)}) <-> "
                                  + " & ".join(f"perm({x})" for x in names))
            times = []
            for _ in range(reps):
                t = time.perf_counter()
                D.decide_classical(phi, S.LogicVariant.DAL)
                times.append(time.perf_counter() - t)
            scale = 1e3 if unit == "ms" else 1.0
            yield (f"decide.classical.dal_{letters}_letters_{unit}",
                   statistics.median(times) * scale, unit, base)


class Heyting(InProcess):
    """parse_formula then countermodel_heyting."""

    def setup(self):
        for points in sorted({corpus.IPL_POINTS, corpus.INT_POINTS}):
            self.dk.lattice.heyting_catalog(points)

    def make_pass(self, seed, k):
        return corpus.heyting_pass(seed, k)

    def run(self, op):
        S = self.dk.syntax
        v = S.LogicVariant(op.variant)
        phi = S.parse_formula(op.text, v)
        return self.dk.decide.countermodel_heyting(
            phi, v, max_candidates=MAX_CANDIDATES, max_points=op.max_points)

    def check(self, op, verdict):
        D = self.dk.decide
        if op.expect == "unknown":
            if not isinstance(verdict, D.Unknown):
                return f"theorem refuted: {verdict!r}"
            reason = str(verdict.reason)
            if "budget" in reason or "catalog" not in reason:
                return f"stopped before exhausting the catalog: {reason}"
            counts = [int(w) for w in reason.split() if w.isdigit()]
            expected = PF_PER_THEOREM[op.cls]
            if counts and counts != [expected]:
                return f"searched {counts[0]} candidates, expected {expected}"
            return None
        if not isinstance(verdict, D.Countermodel):
            return f"refutable formula not refuted: {verdict!r}"
        A, h = verdict.algebra, verdict.interp
        n = A.action.size
        E = None if A.crisp_equality else [[A.E(a, b) for b in range(n)] for a in range(n)]
        try:
            self.dk.build(A.action, A.formula, A.P, A.F, E)
        except ValueError as e:
            return f"countermodel algebra fails build: {e}"
        value = reference.algebra_value(op.tree, A.action, A.formula, A.P, A.F, A.E,
                                        h.act, h.prop)
        if value == A.formula.top:
            return "countermodel gives top under the reference"
        return None

    def probes(self):
        S, D, V = self.dk.syntax, self.dk.decide, self.dk.syntax.LogicVariant
        text = corpus.theorems("theorems_ipl.txt")[0]
        phi = S.parse_formula(text, V.DAL_IPL)
        self.dk.lattice.heyting_catalog(4)
        t = time.perf_counter()
        verdict = D.countermodel_heyting(phi, V.DAL_IPL, max_candidates=MAX_CANDIDATES,
                                         max_points=4)
        wall = time.perf_counter() - t
        probe = Tracer()
        probe.install()
        try:
            D.countermodel_heyting(phi, V.DAL_IPL, max_candidates=MAX_CANDIDATES, max_points=4)
        finally:
            probe.uninstall()
        s = probe.summary()
        cands = probe.counters["algebra.pf_candidates"]
        yield "decide.heyting.ipl_theorem_mp4_s", wall, "s", "3.9 s"
        yield "decide.heyting.ipl_theorem_mp4_verdict", str(verdict), "", "Unknown"
        yield "algebra.ipl_theorem_mp4_candidates", cands, "count", "15928"
        if cands:
            yield "decide.heyting.per_candidate_us", wall / cands * 1e6, "us", "~190 us"
        total = s.get("decide.heyting", {}).get("s", 0.0)
        for label, base in (("algebra.pf_enum", "54%"), ("algebra.construct", "15%"),
                            ("algebra.eval_batch", "14%")):
            share = s.get(label, {}).get("s", 0.0) / total if total else 0.0
            yield f"{label}.share_of_candidate_time", 100 * share, "%", base
        yield ("decide.heyting.int_theorem_mp3_s", "skipped", "",
               "77 s: 449,285 candidates would take the run past its 180 s limit once traced")


class Cli:
    """One `python -m dalkit.cli ...` child at a time."""

    # a pass lasts 12-18 s and pass 0 holds the run's one catalog op, so a
    # time-based stop would change the op mix with the host's speed; two
    # passes are 101 processes, 25-40 s
    passes = 2
    # process start-up follows a child importing numpy far better than a
    # Python loop or a bare interpreter start
    kernel_ref_s = 0.2
    kernel_every_s = 1.0

    def __init__(self):
        self.traced = False
        self.procs = []     # per traced child: interp start, import, numpy
        self.child_summaries = []
        self.child_rows = []

    def setup(self):
        out = self._spawn(["parse", "a == a"], traced=False)
        if out[0] != 0:
            raise RuntimeError(f"warm-up child failed: {out[2]}")

    def make_pass(self, seed, k):
        return corpus.cli_pass(seed, k)

    def _spawn(self, argv, traced):
        env = dict(os.environ)
        if traced:
            spans = OUT / "child-spans.json"
            env["PERFBENCH_SPANS"] = str(spans)
            spans.unlink(missing_ok=True)
            cmd = [sys.executable, "-X", "importtime",
                   str(Path(__file__).with_name("cli_shim.py")), *argv]
        else:
            cmd = [sys.executable, "-m", "dalkit.cli", *argv]
        spawned = time.monotonic()
        try:
            p = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                               timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            if traced:
                self._no_spans()
            raise
        stderr = p.stderr
        if traced:
            times, stderr = parse_importtime(p.stderr)
            if not spans.exists():  # the child died before writing
                self._no_spans()
                return p.returncode, p.stdout, stderr
            data = json.loads(spans.read_text())
            spans.unlink()
            self.procs.append({"interp_start_s": data["t0"] - spawned,
                               "import_s": data["import_s"],
                               "import_numpy_s": times.get("numpy", 0.0),
                               "numpy_loaded": data["numpy_loaded"],
                               "main_s": data["summary"].get("cli.main", {}).get("s", 0.0)})
            self.child_summaries.append((data["summary"], data["counters"]))
            self.child_rows.append(data["spans"])
        return p.returncode, p.stdout, stderr

    def kernel_s(self):
        """Seconds a child takes to start, import numpy and exit right now."""
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, capture_output=True,
                       timeout=CHILD_TIMEOUT_S, check=True)
        return time.perf_counter() - t

    def _no_spans(self):
        """Keep one entry per traced op, so spans stay with their op."""
        self.child_summaries.append(({}, {}))
        self.child_rows.append([])

    def run(self, op):
        return self._spawn(list(op.argv), self.traced)

    def check(self, op, out):
        rc, stdout, stderr = out
        c = op.check
        if rc != c["exit"]:
            return f"exit {rc}, expected {c['exit']}: {stderr.strip()[-200:]}"
        for needle in c.get("stdout", ()):
            if needle not in stdout:
                return f"output lacks {needle!r}"
        if "nodes" in c and stdout.count("label=") != c["nodes"]:
            return f"{stdout.count('label=')} nodes, expected {c['nodes']}"
        if "catalog" in c:
            points = Counter(int(line.split("poset_points=")[1].split()[0])
                             for line in stdout.splitlines() if "poset_points=" in line)
            if dict(points) != c["catalog"]:
                return f"catalog entries by poset points {dict(points)}, expected {c['catalog']}"
        if c.get("to_algebra"):
            return _check_to_algebra(stdout)
        if c.get("to_model"):
            return _check_to_model(stdout)
        if "tree" in c and rc == 1:
            M = _read_model(stdout.split("countermodel:", 1)[1])
            args = (M["elements"], M["permitted"], M["forbidden"], M["val"])
            if reference.model_value(c["tree"], *args, M["props"]):
                return "countermodel satisfies the formula under the reference"
            if not reference.ndal_admissible(c["variant"], c["alphabet"], *args):
                return f"countermodel is not {c['variant']}-admissible"
        return None

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def probes(self, traced, plain):
        for i, (op, *_) in enumerate(traced):
            if op.cls == "catalog":
                s = self.child_summaries[i][0].get("lattice.all_posets", {}).get("s", 0.0)
                yield "lattice.all_posets5_cold_s", s, "s", "4.3 s"
        for cls, base in (("parse", "343 ms"), ("decide", "409 ms")):
            times = [r[1] for r in plain if r[0].cls == cls]
            yield f"cli.{cls}_process_ms", statistics.median(times) * 1e3, "ms", base


def _read_model(text):
    """Elements, P, F, valuation and propositions of a .dam text."""
    M = {"elements": [], "permitted": set(), "forbidden": set(), "val": {}, "props": {}}
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("# prop "):
            name, _, value = line[len("# prop "):].partition("=")
            M["props"][name.strip()] = value.strip() == "true"
            continue
        key, sep, rest = line.split("#", 1)[0].partition(":")
        if not sep:
            continue
        key, items = key.strip(), rest.split()
        if key == "elements":
            M["elements"] = items
        elif key in ("permitted", "forbidden"):
            M[key] = set(items)
        elif key.startswith("val "):
            M["val"][key[4:].strip()] = set(items)
    return M


def _daa_tops(text, key):
    """Element names a .daa text maps to top under P or F (default bot)."""
    tops = set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith(f"{key} default") and not line.endswith("= bot"):
            raise ValueError(f"{key} default is not bot")
        if line.startswith(f"{key} {{") and line.endswith("= top"):
            tops.add(frozenset(line[line.index("{") + 1:line.index("}")].split()))
    return tops


def _check_to_algebra(stdout):
    """The weekend model as a powerset algebra: P is top exactly on the
    subsets of the permitted outcomes, F on those of the forbidden ones."""
    W = corpus.WEEKEND
    subsets = [frozenset(c) for r in range(len(W["elements"]) + 1)
               for c in itertools.combinations(W["elements"], r)]
    for key, zone in (("P", W["permitted"]), ("F", W["forbidden"])):
        got, want = _daa_tops(stdout, key), {s for s in subsets if s <= zone}
        if got != want:
            return f"{key} is top on {sorted(map(sorted, got))}, not on the subsets of {zone}"
    for name, ext in W["val"].items():
        line = f"# interp {name} = {{{' '.join(sorted(ext))}}}"
        if line not in stdout:
            return f"missing {line!r}"
    return None


def _check_to_model(stdout):
    """drinking.daa as a model: one outcome per atom, P and F the atoms
    under their top elements, each letter the atoms where it is positive."""
    text = (corpus.DATA / "drinking.daa").read_text()
    M = _read_model(stdout)
    for key, zone in (("P", "permitted"), ("F", "forbidden")):
        want = set().union(*_daa_tops(text, key))
        if M[zone] != want:
            return f"{zone} {sorted(M[zone])}, expected {sorted(want)}"
    for name in ("a", "b"):
        want = {e for e in M["elements"] if name in e.split("&")}
        if M["val"].get(name) != want:
            return f"val {name} {sorted(M['val'].get(name, ()))}, expected {sorted(want)}"
    return None


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def execute(wl, ops, tracer=None, kernels=None):
    """Run ops back to back; (op, seconds, outcome, error, pf candidates).
    With ``kernels``, time the calibration loop between ops into it."""
    records = []
    since = wl.kernel_every_s
    for op in ops:
        if kernels is not None and since >= wl.kernel_every_s:
            kernels.append(wl.kernel_s())
            since = 0.0
        idx = tracer.open("op") if tracer else None
        before = tracer.counters["algebra.pf_candidates"] if tracer else 0
        t = time.perf_counter()
        try:
            out, err = wl.run(op), None
        except Exception as e:  # an uncaught exception is a failed op
            out, err = None, f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t
        if tracer:
            tracer.close(idx)
        after = tracer.counters["algebra.pf_candidates"] if tracer else 0
        records.append((op, dt, out, err, after - before))
        since += dt
    return records


def judge(wl, records, count_pf=False):
    failed = 0
    for op, _, out, err, pf in records:
        reason = err or wl.check(op, out)
        expected = PF_PER_THEOREM.get(op.cls)
        # a candidate count of 0 means the enumerator is gone or unused,
        # which a later engine may do; only a wrong count is a failure
        if reason is None and count_pf and expected and pf and pf != expected:
            reason = f"{pf} P/F candidates, expected {expected}"
        if reason:
            failed += 1
            print(f"FAIL {op.id} [{op.cls} {op.variant}] {reason}", flush=True)
    return failed


def speed_factor(wl, samples):
    return wl.kernel_ref_s / statistics.fmean(samples)


def setup_times(wl, args):
    """Set-up time so far, unscaled and scaled."""
    raw = time.monotonic() - args.spawned_at
    samples = [wl.kernel_s()]
    while sum(samples) < SETUP_KERNEL_S:
        samples.append(wl.kernel_s())
    return raw, raw * speed_factor(wl, samples)


def percentiles(lat):
    """p50, p90 and the number of samples beyond p90."""
    lat = sorted(lat)
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
    return statistics.median(lat), p90, sum(1 for x in lat if x > p90)


def mode_setup(wl, args):
    wl.setup()
    wl.make_pass(args.seed, 0)
    raw, scaled = setup_times(wl, args)
    return {"setup_s": scaled, "setup_raw_s": raw}


def mode_run(wl, args):
    wl.setup()
    ops = wl.make_pass(args.seed, 0)
    setup_raw, setup_s = setup_times(wl, args)
    raw, lat, failed, peak, k = [], [], 0, None, 0
    while True:
        kernels = []
        batch = execute(wl, ops, kernels=kernels)
        factor = speed_factor(wl, kernels)
        raw += [r[1] for r in batch]
        lat += [r[1] * factor for r in batch]
        k += 1
        if k == 1:  # peak memory of set-up and a pass, before any check allocates
            peak = wl.peak_rss_mb()
        failed += judge(wl, batch)
        if wl.passes:
            done = k == wl.passes
        else:  # stop at the pass boundary nearest to the requested op time
            done = len(raw) >= MIN_OPS and sum(raw) * (1 + 0.5 / k) >= args.seconds
        if done:
            break
        ops = wl.make_pass(args.seed, k)
    ok = len(lat) - failed
    p50, p90, beyond = percentiles(lat)
    raw50, raw90, _ = percentiles(raw)
    print(f"{len(lat)} ops in {k} passes, {sum(raw):.2f} s of op time; "
          f"{beyond} samples beyond p90; unscaled: setup {setup_raw:.4f} s, "
          f"{ok / sum(raw):.4g} ops/s, p50 {raw50 * 1e3:.4g} ms, p90 {raw90 * 1e3:.4g} ms, "
          f"speed factor {sum(lat) / sum(raw):.4f}", flush=True)
    return {"attempted": len(lat), "failed": failed,
            "metrics": {"setup_s": setup_s,
                        "ops_per_s": ok / sum(lat),
                        "latency_p50_ms": p50 * 1e3,
                        "latency_p90_ms": p90 * 1e3,
                        "ok_share": ok / len(lat),
                        "peak_rss_mb": peak}}


def mode_trace(wl, args, import_s):
    OUT.mkdir(exist_ok=True)
    tracer = Tracer()
    if isinstance(wl, Cli):
        wl.traced = True    # the children trace themselves
    else:
        for name in tracer.install():
            print(f"note: {name} does not exist; its layer reports 0", flush=True)
    idx = tracer.open("setup")
    wl.setup()
    tracer.close(idx)
    ops = [op for k in range(TRACE_PASSES[args.workload]) for op in wl.make_pass(args.seed, k)]
    kernels = []
    traced = execute(wl, ops, tracer, kernels)
    traced_wall = sum(r[1] for r in traced) * speed_factor(wl, kernels)
    tracer.uninstall()
    wl.traced = False
    failed = judge(wl, traced, count_pf=True)
    # drop the verdicts so the untraced run starts with as little live data
    traced = [(op, dt, None, err, pf) for op, dt, _, err, pf in traced]
    gc.collect()
    kernels = []
    plain = execute(wl, ops, kernels=kernels)
    plain_wall = sum(r[1] for r in plain) * speed_factor(wl, kernels)

    summary, counters = tracer.summary(), Counter(tracer.counters)
    rows, op_spans = _span_rows(tracer, traced)
    if isinstance(wl, Cli):
        summary, procs = _merge_children(wl, counters), wl.procs
        for (op, *_), root, child in zip(traced, op_spans, wl.child_rows):
            base = len(rows)
            rows += [(op.id, n, s, e, base + p if p >= 0 else root) for n, s, e, p in child]
        probes = wl.probes(traced, plain)
    else:
        procs = [{"interp_start_s": T0 - args.spawned_at, "import_s": import_s,
                  "import_numpy_s": None, "numpy_loaded": "numpy" in sys.modules,
                  "main_s": 0.0}]
        probes = wl.probes()
    for name, value, unit, base in probes:
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"probe {name} = {shown} {unit}  (ROADMAP baseline: {base})", flush=True)
    dump(OUT / f"trace-{args.workload}.csv.gz", rows)

    def layer(label, key):
        return summary.get(label, {}).get(key, 0)

    m = {}
    for label, with_self in (("syntax.parse", False), ("decide.classical", True),
                             ("models.sat", False), ("decide.heyting", True),
                             ("algebra.construct", False), ("algebra.eval_batch", False),
                             ("algebra.eval", False), ("lattice.catalog", False),
                             ("proof.check", False), ("formats.read", False),
                             ("duality.convert", False)):
        m[f"{label}_calls"] = layer(label, "calls")
        m[f"{label}_s"] = layer(label, "s")
        if with_self:
            m[f"{label}_self_s"] = layer(label, "self_s")
    m["algebra.pf_candidates"] = counters["algebra.pf_candidates"]
    m["algebra.pf_enum_s"] = layer("algebra.pf_enum", "s")
    generated = counters["pf_pairs_generated"]
    m["algebra.pf_kept_ratio"] = counters["pf_pairs_kept"] / generated if generated else 0.0
    m["cli.interp_start_s"] = statistics.median(p["interp_start_s"] for p in procs)
    m["cli.import_s"] = statistics.median(p["import_s"] for p in procs)
    numpy_times = [p["import_numpy_s"] for p in procs if p["import_numpy_s"] is not None]
    m["cli.import_numpy_s"] = statistics.median(numpy_times) if numpy_times else None
    loaded = [p["numpy_loaded"] for p in procs]
    m["cli.numpy_loaded_ops"] = sum(loaded) if isinstance(wl, Cli) else len(ops) * loaded[0]
    m["cli.main_s"] = statistics.median(p["main_s"] for p in procs)
    m["trace.overhead_share"] = traced_wall / plain_wall - 1
    print(f"traced {len(ops)} ops in {traced_wall:.2f} s, untraced {plain_wall:.2f} s "
          "(op time, scaled)", flush=True)
    return {"attempted": len(traced), "failed": failed, "metrics": m}


def _span_rows(tracer, traced):
    """Span rows tagged with the id of the op they belong to ("setup" for
    the rest), and the span index of each op."""
    op_spans = [i for i, row in enumerate(tracer.rows()) if row[0] == "op"]
    owner = dict(zip(op_spans, (op.id for op, *_ in traced)))
    rows = []
    for i, row in enumerate(tracer.rows()):
        root = i
        while tracer.parent[root] >= 0:
            root = tracer.parent[root]
        rows.append((owner.get(root, "setup"), *row))
    return rows, op_spans


def _merge_children(wl, counters):
    summary = {}
    for child, child_counters in wl.child_summaries:
        counters.update(child_counters)
        for label, row in child.items():
            acc = summary.setdefault(label, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
    return summary


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("classical", "heyting", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args()
    if args.workload == "cli":
        wl, import_s = Cli(), 0.0
    else:
        dk, import_s = import_dalkit()
        wl = (Classical if args.workload == "classical" else Heyting)(dk)
    if args.mode == "setup":
        result = mode_setup(wl, args)
    elif args.mode == "run":
        result = mode_run(wl, args)
    else:
        result = mode_trace(wl, args, import_s)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
