"""Sparse fast-path benchmark: the dense-vs-CSR half of the CI perf guard.

Runs the ``sparse`` suite of :mod:`repro.experiments.suites` — the
training hot path forward+backward on the same synthetic ≥99%-sparse
bow, once dense (the reference oracle) and once through the CSR fused
kernels, with the loss-gap and density checks — and emits
``BENCH_sparse.json``, which ``benchmarks/check_regression.py`` compares
against the checked-in baseline.

In STRICT mode the speedup itself is asserted to be an integer multiple
(≥2×): the fast path earning anything less on the ≥99%-sparse profile it
was built for is a regression, baseline or not.
"""

from benchmarks.conftest import BENCH_DTYPE, FAST, emit_suite, print_block
from repro.experiments.reporting import format_table
from repro.experiments.suites import SUITES
from repro.telemetry.microbench import (
    DEFAULT_SPARSE_REPEATS,
    SPARSE_PROFILE_DENSITY,
    SPARSE_VOCAB,
)

#: STRICT-mode floor for the fast path: an integer-multiple speedup.
MIN_SPEEDUP_STRICT = 2.0


def test_sparse_fast_path_bench(benchmark):
    repeats = 3 if FAST else DEFAULT_SPARSE_REPEATS

    def run():
        return SUITES["sparse"].run(repeats=repeats, dtype=BENCH_DTYPE)

    report = emit_suite(
        "sparse", benchmark.pedantic(run, rounds=1, iterations=1), "sparse"
    )
    totals, meta = report["totals"], report["meta"]
    speedup = totals["sparse_speedup"]
    if FAST:
        # Smoke scale: still require the fast path to actually be faster.
        assert speedup > 1.0, f"sparse path slower than dense ({speedup:.2f}x)"
    else:
        assert speedup >= MIN_SPEEDUP_STRICT, (
            f"sparse fast path must be an integer multiple faster on the "
            f"{1 - SPARSE_PROFILE_DENSITY:.1%}-sparse profile, got {speedup:.2f}x"
        )
    print_block(
        format_table(
            ["leg", "seconds", "docs/sec"],
            [
                ["dense (reference)", f"{totals['sparse_dense_seconds']:.3f}",
                 f"{totals['sparse_dense_docs_per_sec']:.0f}"],
                ["CSR fast path", f"{totals['sparse_sparse_seconds']:.3f}",
                 f"{totals['sparse_docs_per_sec']:.0f}"],
            ],
            title=(
                f"sparse fast path ({BENCH_DTYPE}, {repeats * meta['batch']} docs, "
                f"vocab {SPARSE_VOCAB}, density {meta['profile_density']:.4f}): "
                f"{speedup:.2f}x speedup, loss gap {meta['loss_gap']:.2e}"
            ),
        )
    )
