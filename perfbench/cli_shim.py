"""Traced stand-in for ``python -m dalkit.cli``, used by the traced cli run.

Usage: python -X importtime perfbench/cli_shim.py <dalkit arguments>
with PERFBENCH_SPANS naming the JSON file to write.  It behaves like the
real entry point (same stdout, stderr and exit code, plus the importtime
lines on stderr) and records its start, its import time and the spans of
the call to ``dalkit.cli.main``.
"""

import time

T0 = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    t = time.perf_counter()
    import dalkit.cli
    import_s = time.perf_counter() - t
    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = dalkit.cli.main(sys.argv[1:])
    except SystemExit as e:  # argparse usage errors
        code = e.code if isinstance(e.code, int) else 2
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(os.environ["PERFBENCH_SPANS"], "w") as fh:
            json.dump({"t0": T0, "import_s": import_s,
                       "numpy_loaded": "numpy" in sys.modules,
                       "summary": tracer.summary(),
                       "counters": dict(tracer.counters),
                       "spans": list(tracer.rows())}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
