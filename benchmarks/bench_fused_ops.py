"""Fused-kernel microbenchmark: the per-op half of the CI perf guard.

Runs the ``ops`` suite of :mod:`repro.experiments.suites` — forward and
backward of every kernel in ``PROFILED_FUSED_OPS`` on fixed seeded
shapes — and emits ``BENCH_ops.json``, which
``benchmarks/check_regression.py`` compares against the checked-in
baseline.  Unlike the end-to-end training benchmarks, this isolates each
kernel, so a regression points at the offending op directly.
"""

from benchmarks.conftest import BENCH_DTYPE, FAST, emit_suite, print_block
from repro.experiments.reporting import format_table
from repro.experiments.suites import SUITES
from repro.telemetry import profile_ops
from repro.telemetry.microbench import DEFAULT_REPEATS
from repro.tensor import PROFILED_FUSED_OPS


def test_fused_ops_microbench(benchmark, bench_registry):
    repeats = 5 if FAST else DEFAULT_REPEATS

    def run():
        # The suite's own profile_ops block nests inside this one, which
        # fans the rows into BENCH_suite.json too.
        with profile_ops(bench_registry):
            return SUITES["ops"].run(repeats=repeats, dtype=BENCH_DTYPE)

    report = emit_suite("ops", benchmark.pedantic(run, rounds=1, iterations=1), "ops")
    rows = {r["op"]: r for r in report["ops"]}
    table = []
    for op in PROFILED_FUSED_OPS:
        # Every fused kernel ran `repeats` times, forward and backward.
        assert rows[op]["calls"] >= repeats, op
        assert rows[op]["total_seconds"] > 0, op
        assert rows[op]["backward_seconds"] > 0, op
        table.append(
            [
                op,
                rows[op]["calls"],
                f"{1e6 * rows[op]['mean_seconds']:.1f}",
                f"{1e6 * rows[op]['backward_seconds'] / rows[op]['calls']:.1f}",
            ]
        )
    print_block(
        format_table(
            ["fused op", "calls", "fwd µs/call", "bwd µs/call"],
            table,
            title=f"fused kernel microbenchmark ({BENCH_DTYPE})",
        )
    )
