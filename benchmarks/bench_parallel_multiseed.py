"""Multi-seed evaluation wall-clock: serial vs process-parallel.

The §V.F protocol (several seeds per reported metric) is the repo's
biggest embarrassingly-parallel loop.  The ``multiseed`` suite of
:mod:`repro.experiments.suites` runs the *same* 5-seed ContraTopic
evaluation twice, after a warm-up — ``workers=1`` (the exact serial path)
and ``workers=N`` over :class:`repro.parallel.ParallelMap` — and fails
unless the merged metrics, per-seed statuses and stds are *identical*
(the fan-out must be a pure wall-clock optimisation).  On an
adequately-parallel machine (>= 4 cores, strict mode) this bench also
asserts the parallel run is at least 2x faster.

Both wall-clocks (and their ratio) land in the report totals as
``multiseed_serial_seconds`` / ``multiseed_parallel_seconds`` /
``multiseed_speedup``; ``BENCH_suite.json`` carries them too, and
``benchmarks/check_regression.py`` gates it against the checked-in
baseline.
"""

from __future__ import annotations

import os

from benchmarks.conftest import BENCH_DTYPE, STRICT, emit_suite, print_block
from repro.experiments.suites import SUITES
from repro.tensor import default_dtype

NUM_SEEDS = 5

#: Acceptance target on a 4-core runner; only asserted when the machine
#: can physically deliver it (and in strict mode — under fast/smoke
#: scale the per-seed work is too small to beat the fork overhead).
SPEEDUP_TARGET = 2.0


def test_multiseed_parallel_matches_serial_and_wins_wall_clock(settings_20ng):
    with default_dtype(BENCH_DTYPE):
        run = SUITES["multiseed"].run(
            settings_20ng, num_seeds=NUM_SEEDS, cluster_counts=(20,)
        )
    assert all(status == "ok" for status in run.result.seed_status.values())
    report = emit_suite("multiseed", run, "parallel_multiseed")
    totals, workers = report["totals"], report["meta"]["workers"]
    speedup = totals["multiseed_speedup"]
    print_block(
        f"multi-seed evaluation ({NUM_SEEDS} seeds, {os.cpu_count()} cores)\n"
        f"  serial (workers=1):      {totals['multiseed_serial_seconds']:8.2f}s\n"
        f"  parallel (workers={workers}):   "
        f"{totals['multiseed_parallel_seconds']:8.2f}s\n"
        f"  speedup:                 {speedup:8.2f}x\n"
        f"  metrics: identical (checked field by field)"
    )
    if STRICT and workers >= 4 and (os.cpu_count() or 1) >= 4:
        assert speedup >= SPEEDUP_TARGET, (
            f"{workers}-worker run only {speedup:.2f}x faster than serial "
            f"(target {SPEEDUP_TARGET}x on {os.cpu_count()} cores)"
        )
