"""dalkit benchmark: one workload, one JSON line of metrics.

    python3 perfbench/run.py --workload classical|heyting|cli --seed N \
        --seconds T --trace 0|1

Run from the root of a dalkit checkout.  Every measurement happens in a
fresh interpreter (perfbench/worker.py) with the checkout's own ``src/``
first on PYTHONPATH, so no installed copy and no cached catalog leaks in.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: set-up time
(the median of several fresh starts), throughput, p50/p90 latency, the
share of ops with a correct verdict and peak RSS.  --trace 1 makes a
separate traced run and reports the per-layer metrics, the tracing
overhead, and prints the ROADMAP baseline probe rows.  The last line of
standard output is the JSON result; the exit code is 0 only if it was
printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import parse_importtime  # noqa: E402

SETUP_SAMPLES = 5       # fresh starts per run whose set-up time is pooled
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def _env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # same set and dict orders, so the same work, every run
    return env


def _prepare(root: Path, env: dict) -> None:
    """Byte-compile dalkit once and check it is the checkout's copy."""
    p = subprocess.run([sys.executable, "-c", "import dalkit, dalkit.cli; print(dalkit.__file__)"],
                       cwd=root, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if p.returncode != 0:
        raise BenchError(f"cannot import dalkit from {root / 'src'}:\n{p.stderr}")
    where = Path(p.stdout.strip()).resolve()
    if not where.is_relative_to((root / "src").resolve()):
        raise BenchError(f"dalkit imported from {where}, not from the checkout")


def _worker(root, env, args, mode):
    cmd = [sys.executable]
    if mode == "trace":
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--mode", mode]
    spawned = time.monotonic()
    cmd += ["--spawned-at", repr(spawned)]
    try:
        p = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                           timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{mode} worker exceeded {WORKER_TIMEOUT_S} s") from e
    times, stderr = parse_importtime(p.stderr)
    if stderr.strip():
        print(stderr, file=sys.stderr)
    lines = p.stdout.splitlines()
    if p.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker failed with exit code {p.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    result["numpy_import_s"] = times.get("numpy")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "dalkit" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from the root of a dalkit checkout (src/dalkit and "
              "BENCHMARK.json not found)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = _env(root)
    try:
        _prepare(root, env)
        if args.trace:
            result = _worker(root, env, args, "trace")
            if result["metrics"]["cli.import_numpy_s"] is None:
                result["metrics"]["cli.import_numpy_s"] = result["numpy_import_s"] or 0.0
        else:
            samples = [_worker(root, env, args, "setup") for _ in range(SETUP_SAMPLES - 1)]
            result = _worker(root, env, args, "run")
            setups = [s["setup_s"] for s in samples] + [result["metrics"]["setup_s"]]
            result["metrics"]["setup_s"] = statistics.median(setups)
            print("setup_s samples, scaled: " + " ".join(f"{s:.4f}" for s in setups)
                  + "; unscaled: " + " ".join(f"{s['setup_raw_s']:.4f}" for s in samples))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    metrics = {}
    for m in wanted:
        value = result["metrics"].get(m["name"])
        if value is None:
            print(f"error: the worker did not report {m['name']}", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
