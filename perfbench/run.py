"""Repository benchmark: ``train``, ``online`` and ``serve`` workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload train --seed 1 --seconds 18 --trace 0

It pins BLAS/OpenMP to one thread before numpy loads, unsets every
``REPRO_*`` variable, builds the workload's inputs from ``--seed``,
alternates three timed set-ups with three equal shares of ``--seconds`` of
whole units, checks the program's outputs, and prints a machine line and,
last, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs the same
workload with spans and op profiling and reports its per-layer metrics.
The exit code is 0 only when every check passed.  See
``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

import machine

WORKLOADS = ("train", "online", "serve")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {root}; run from a checkout's root",
              file=sys.stderr)
        return 2
    repro_env = machine.pin_environment()
    sys.path.insert(0, str(root / "src"))

    import harness
    import spans
    import work_online
    import work_serve
    import work_train

    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    tracer = spans.Tracer() if args.trace else spans.OFF
    workload = {"train": work_train, "online": work_online, "serve": work_serve}[args.workload]

    try:
        outcome = workload.run(args.seed, args.seconds, tracer)
    except Exception:
        traceback.print_exc()
        outcome = harness.Outcome(attempted=1, failed=1, problems=["workload raised"])
    outcome.metrics["ok_share"] = (
        (outcome.attempted - outcome.failed) / outcome.attempted if outcome.attempted else 0.0
    )
    outcome.metrics["peak_rss_mb"] = machine.peak_rss_mb()
    record = machine.machine_record(root, repro_env, harness.DTYPE, outcome.usage)
    outcome.check(record["blas_threads"] == 1, f"BLAS threads {record['blas_threads']} != 1")

    if args.trace and "docs_per_s" in outcome.metrics:
        outcome.layers["trace.docs_per_s"] = outcome.metrics["docs_per_s"]
        outcome.layers["trace.p50_ms"] = outcome.metrics["p50_ms"]
        wall = tracer.total(harness.PHASE)
        recorded = len([s for s in tracer.spans if s.has_ancestor(harness.PHASE)])
        overhead = recorded * spans.cost_per_span() / wall if wall > 0 else 0.0
        print("span self time (whole run; shares are of the timed segments' wall time):")
        print(spans.format_self_times(spans.self_times(tracer.spans), wall))
        print(f"tracing: {recorded} spans in the timed segments, estimated overhead "
              f"{overhead:.2%} of their wall time (op profiling not included)")
    for line in outcome.report:
        print(line)
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    print("MACHINE " + json.dumps(record, sort_keys=True))

    values = outcome.layers if args.trace else outcome.metrics
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    correct = not outcome.problems and outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
