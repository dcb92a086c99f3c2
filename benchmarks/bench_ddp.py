"""Data-parallel training scaling curve: 1 / 2 / 4 ranks on one run.

PR 4 parallelized *independent* runs (multi-seed fan-out); this
benchmark measures :mod:`repro.parallel.ddp` parallelizing a *single*
ContraTopic training run by sharding every batch across forked ranks
with shared-memory BOW/parameter/gradient buffers and size-weighted
gradient averaging.

The ``ddp`` suite of :mod:`repro.experiments.suites` warms the shared
caches, then trains the same profile from the same seed once per leg —
``workers=1`` (the exact serial trainer, through the identity exchange),
``workers=2`` and ``workers=4`` — and fails if a leg diverges.  This
bench adds:

* each DDP leg's final loss stays within a small relative band of the
  serial leg's (the averaged gradient equals the serial gradient up to
  the documented shard-randomness caveats, so trajectories stay
  statistically close);
* on an adequately-parallel machine (>= 4 cores, strict mode) the
  scaling targets hold: >= 1.6x at 2 ranks, >= 2.5x at 4 ranks.

Each leg lands in the report as ``ddp_wall_seconds_w<N>`` /
``ddp_docs_per_sec_w<N>`` / ``ddp_speedup_w<N>`` totals, which
``benchmarks/check_regression.py`` gates against
``benchmarks/baselines/BENCH_ddp.json``.
"""

from __future__ import annotations

import os

from benchmarks.conftest import BENCH_DTYPE, STRICT, emit_suite, print_block
from repro.experiments.suites import SUITES
from repro.tensor import default_dtype

LEGS = (1, 2, 4)

#: Acceptance targets on a 4-core runner; only asserted when the machine
#: can physically deliver them (and in strict mode — at smoke scale the
#: per-shard work is too small to beat the dispatch overhead).
SPEEDUP_TARGETS = {2: 1.6, 4: 2.5}

#: How far a DDP leg's final epoch loss may drift from the serial leg's.
#: Shard-level randomness (dropout, reparameterization noise, contrastive
#: sampling see shards, not the full batch) makes the runs statistically —
#: not bitwise — equivalent.
LOSS_REL_TOL = 0.15


def test_ddp_scaling_curve(settings_20ng):
    with default_dtype(BENCH_DTYPE):
        run = SUITES["ddp"].run(settings_20ng, ddp_legs=",".join(map(str, LEGS)))
    report = emit_suite("ddp", run, "ddp")
    totals, losses = report["totals"], report["meta"]["final_losses"]
    serial_loss = losses["1"]
    for workers in LEGS[1:]:
        drift = abs(losses[str(workers)] - serial_loss) / abs(serial_loss)
        assert drift <= LOSS_REL_TOL, (
            f"workers={workers} final loss {losses[str(workers)]:.4f} "
            f"drifted {drift:.1%} from serial {serial_loss:.4f}"
        )
    speedups = {w: totals[f"ddp_speedup_w{w}"] for w in LEGS[1:]}
    print_block(
        f"ddp scaling ({os.cpu_count()} cores, {BENCH_DTYPE})\n"
        + "\n".join(
            f"  workers={w}: {totals[f'ddp_wall_seconds_w{w}']:8.2f}s"
            f"  loss {losses[str(w)]:10.4f}"
            + (f"  speedup {speedups[w]:5.2f}x" if w in speedups else "")
            for w in LEGS
        )
    )
    if STRICT and (os.cpu_count() or 1) >= 4:
        for workers, target in SPEEDUP_TARGETS.items():
            assert speedups[workers] >= target, (
                f"{workers}-rank run only {speedups[workers]:.2f}x faster "
                f"than serial (target {target}x on {os.cpu_count()} cores)"
            )
