"""Benchmark entry point.

    python3 bench/run.py --workload grid|cnf|chain --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` times the ``aomdd`` CLI
end to end as child processes, in ``--seconds // 10`` rounds (at least
one; a round takes about 10 s), and reports the end-to-end metrics;
``--trace 1`` does a fixed amount of traced in-process work instead and
reports the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def measure(make, seed, seconds, trace):
    """One benchmark run; returns the result object."""
    tally = harness.Tally()
    try:
        if trace:
            import tracing

            workload, files, _, ok = harness.setup(make, seed, harness.work_dir() / "setup")
            tally.add("ok" if ok else "crash", "setup")
            metrics = tracing.traced_run(workload, files, tally)
            units = tracing.PER_LAYER
        else:
            metrics = harness.end_to_end(make, seed, seconds, tally)
            units = harness.END_TO_END
    finally:
        harness.remove_work_dir()
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    harness.check_source()
    print("python %s, nproc %d" % (platform.python_version(), os.cpu_count()))
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
