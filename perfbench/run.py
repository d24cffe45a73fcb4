"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload trial-sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout (it imports ``repro`` from ``src/``).
Workloads: ``trial-sweep``, ``reconcile-100k`` and ``live-gossip-8``
(see ``perfbench/README.md``).  With ``--trace 0`` it prints the
end-to-end metrics, with ``--trace 1`` the per-layer ones; the spans of
a traced run go to ``.perfbench_out/``.

Output: a human-readable JSON report line (run configuration, the
workload's own named figures, any failed correctness check), then, as
the last line, ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 1 when a correctness check fails and 2 when the checkout
holds no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = {
    "trial-sweep": "wl_sweep",
    "reconcile-100k": "wl_reconcile",
    "live-gossip-8": "wl_live",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    began = time.perf_counter()
    module = importlib.import_module(WORKLOADS[args.workload])
    import_s = time.perf_counter() - began

    from bench_common import END_TO_END_UNITS, PER_LAYER_UNITS

    result = module.run(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        out_dir=os.path.join(ROOT, ".perfbench_out"),
        import_s=import_s,
    )
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    unknown = set(result.metrics) - set(units)
    if unknown:
        raise RuntimeError(f"workload reported unlisted metrics {sorted(unknown)}")
    if not args.trace and set(result.metrics) != set(units):
        raise RuntimeError(f"workload left out {sorted(set(units) - set(result.metrics))}")
    # A layer the workload does not exercise did no work: it reads 0.
    metrics = {name: result.metrics.get(name, 0.0) for name in units}
    problems = list(result.problems)
    for name, value in metrics.items():
        if not math.isfinite(value):
            problems.append(f"metric {name} is not finite")
    correct = result.correct and not problems
    emit({"report": result.report, "problems": problems})
    emit({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    })
    return 0 if correct else 1


def emit(line) -> None:
    sys.stdout.write(json.dumps(line, sort_keys=True) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
