"""Incremental co-occurrence/NPMI engine vs per-slice full recount.

The online trainer (:mod:`repro.extensions.online`) maintains its
similarity kernel over a growing corpus.  Before PR 9 every slice paid a
from-scratch rebuild — recount document co-occurrence over *all* documents
seen so far, then a fresh O(V²) NPMI derivation with its temporaries.
:class:`repro.metrics.streaming.StreamingNpmiEngine` replaces that with an
exact delta update: O(nnz_new·V) counting on the new slice only plus one
allocation-free in-place rederivation.

The ``streaming`` suite of :mod:`repro.experiments.suites` replays one
20-slice synthetic drift profile (theme popularity drifts and a new theme
emerges mid-stream) through two legs — the incremental engine folding
each slice in, and the old per-slice recount with a cold NPMI
derivation — and fails unless the incremental counts equal the final
recount bitwise and the in-place NPMI matches a cold build to <= 1e-12.
This bench adds the speed floor: the incremental leg is >= 5x faster
over the 20-slice profile.  The ratio is algorithmic (recounting replays
every past document, the delta touches only new ones), so it holds at
smoke scale too.

The report carries ``streaming_update_seconds``, ``streaming_speedup``,
``streaming_docs_per_sec`` and the engine's own counters (updates,
delta_nnz, buffer reuses) as totals, which
``benchmarks/check_regression.py`` gates against
``benchmarks/baselines/BENCH_streaming.json``.
"""

from __future__ import annotations

from benchmarks.conftest import STRICT, emit_suite, print_block
from repro.experiments.suites import SUITES

NUM_SLICES = 20
DOCS_PER_SLICE = 250 if STRICT else 80

#: Minimum incremental-vs-recount speedup over the 20-slice profile.  The
#: counting work ratio alone is ~(S+1)/2 = 10.5x; 5x leaves headroom for
#: the per-slice rederivation both legs pay.
MIN_SPEEDUP = 5.0


def test_streaming_vs_recount():
    run = SUITES["streaming"].run(
        stream_slices=NUM_SLICES, stream_docs=DOCS_PER_SLICE, seed=7
    )
    report = emit_suite("streaming", run, "streaming")
    totals, meta = report["totals"], report["meta"]
    speedup = totals["streaming_speedup"]
    print_block(
        f"streaming kernel ({NUM_SLICES} slices x {DOCS_PER_SLICE} docs, "
        f"V={meta['vocab_size']})\n"
        f"  incremental: {totals['streaming_update_seconds']:8.3f}s  "
        f"({totals['streaming_docs_per_sec']:10.0f} docs/s)\n"
        f"  recount:     {totals['streaming_recount_seconds']:8.3f}s\n"
        f"  speedup:     {speedup:8.2f}x   npmi gap {meta['npmi_gap']:.1e}\n"
        f"  delta nnz:   {totals['streaming_delta_nnz']}  "
        f"buffer reuses: {totals['streaming_buffer_reuses']}"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"incremental engine only {speedup:.2f}x faster than per-slice "
        f"recount over {NUM_SLICES} slices (target {MIN_SPEEDUP}x)"
    )
