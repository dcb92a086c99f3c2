"""§V.E — computational analysis of the regularizer's overhead.

The paper reports: sampling adds O(M) time; the precomputed NPMI matrix
adds O(V²) space (14.6 GB on GPU at V = 34,330; 65.68 s/epoch on NYTimes).
Measured here: the kernel's actual memory footprint, the NPMI
precomputation time (paper: "a time equivalent to approximately 30
training epochs"), and the per-epoch wall-clock of ContraTopic relative to
its plain ETM backbone — the structural costs scale down with V² exactly
as the paper's analysis predicts.

Telemetry: the regularized run streams per-epoch telemetry (throughput,
ELBO-vs-contrastive loss split) and a short op-profiled run collects
per-op forward/backward timings; both are emitted as
``BENCH_computational_analysis.json`` — the report CI's perf-guard
(``benchmarks/check_regression.py``) compares against the checked-in
baseline in ``benchmarks/baselines/``.
"""

import time

from benchmarks.conftest import BENCH_DTYPE, STRICT, emit_suite, print_block
from repro.core import ContraTopicConfig, npmi_kernel
from repro.core.contratopic import ContraTopic
from repro.experiments.context import ExperimentContext
from repro.experiments.reporting import format_table
from repro.metrics import compute_npmi_matrix
from repro.experiments.suites import SuiteRun
from repro.telemetry import MetricsRegistry, TelemetryCallback
from repro.tensor import default_dtype

#: Epochs of the dedicated op-profiling run (kept short: the per-op shims
#: must not distort the headline plain-vs-regularized epoch comparison,
#: so profiling happens in its own small run).
PROFILE_EPOCHS = 2


def _regularized(context, settings, kernel) -> ContraTopic:
    return ContraTopic(
        context.build("etm", seed=0),
        kernel,
        ContraTopicConfig(
            lambda_weight=settings.resolved_lambda(),
            negative_weight=settings.negative_weight,
        ),
    )


def test_computational_analysis(benchmark, settings_nytimes, profile_into_suite):
    context = ExperimentContext(settings_nytimes)
    corpus = context.dataset.train
    registry = MetricsRegistry()
    telemetry = TelemetryCallback(registry=registry, run_name="contratopic")

    def run():
        t0 = time.perf_counter()
        npmi = compute_npmi_matrix(corpus)
        npmi_seconds = time.perf_counter() - t0
        kernel = npmi_kernel(npmi, temperature=settings_nytimes.kernel_temperature)
        kernel_bytes = kernel.matrix.nbytes + kernel.exp_matrix.nbytes

        # Training runs in the benchmark precision (float32 by default —
        # the fused hot path's intended fast configuration); NPMI/metrics
        # above stay float64.
        with default_dtype(BENCH_DTYPE):
            plain = context.build("etm", seed=0)
            t0 = time.perf_counter()
            plain.fit(corpus)
            plain_epoch = (time.perf_counter() - t0) / settings_nytimes.epochs

            regularized = _regularized(context, settings_nytimes, kernel)
            t0 = time.perf_counter()
            regularized.fit(corpus, callbacks=[telemetry])
            regularized_epoch = (time.perf_counter() - t0) / settings_nytimes.epochs

            # Dedicated short profiled run: per-op forward/backward wall
            # time and allocation volume of one regularized training step
            # stream (also fanned into the suite-wide ops table).
            profiled = _regularized(context, settings_nytimes, kernel)
            profiled.config.epochs = PROFILE_EPOCHS
            with profile_into_suite(registry):
                profiled.fit(corpus)
        return npmi_seconds, kernel_bytes, plain_epoch, regularized_epoch

    npmi_seconds, kernel_bytes, plain_epoch, regularized_epoch = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    vocab = corpus.vocab_size
    rows = [
        ["vocabulary size V", vocab, 34330],
        ["kernel memory (V^2 doubles)", f"{kernel_bytes / 1e6:.1f} MB", "8.7-14.6 GB"],
        ["NPMI precompute", f"{npmi_seconds:.2f} s", "~30 epochs' worth"],
        ["NPMI precompute / epoch ratio", f"{npmi_seconds / plain_epoch:.1f}", "~30"],
        ["plain backbone s/epoch", f"{plain_epoch:.2f}", "-"],
        ["ContraTopic s/epoch", f"{regularized_epoch:.2f}", "65.68 (GPU, V=34k)"],
        ["regularizer overhead", f"{regularized_epoch / plain_epoch:.2f}x", "modest"],
    ]
    print_block(
        format_table(
            ["quantity", "measured", "paper"],
            rows,
            title="§V.E computational analysis (NYTimes profile)",
        )
    )

    # A ``train``-suite report: it carries that suite's gates.
    run = SuiteRun(
        name="computational_analysis",
        registry=registry,
        epochs=telemetry.epochs,
        meta={
            "dataset": settings_nytimes.dataset,
            "dtype": BENCH_DTYPE,
            "vocab_size": vocab,
            "epochs": settings_nytimes.epochs,
            "profile_epochs": PROFILE_EPOCHS,
            "plain_epoch_seconds": plain_epoch,
            "regularized_epoch_seconds": regularized_epoch,
            "npmi_precompute_seconds": npmi_seconds,
            "kernel_bytes": kernel_bytes,
        },
    )
    report = emit_suite("train", run, "computational_analysis")

    # The emitted report must be a complete perf-guard input: per-op
    # timings, per-epoch throughput, and the ELBO-vs-contrastive split.
    assert report["ops"], "op profiling produced no op table"
    op_rows = {r["op"]: r for r in report["ops"]}
    matmul = op_rows["matmul"]
    assert matmul["calls"] > 0 and matmul["total_seconds"] > 0
    assert matmul["backward_seconds"] > 0 and matmul["bytes"] > 0
    # The hot path runs through the fused kernels: they must appear as
    # single rows (encoder linear, β softmax, fused reconstruction NLL).
    # On sparse corpora the auto-dispatch runs the reconstruction through
    # the matmul-free CSR mixture kernel instead of nll_from_probs.
    for fused_op in ("linear", "softmax"):
        assert op_rows[fused_op]["calls"] > 0, fused_op
        assert op_rows[fused_op]["backward_seconds"] > 0, fused_op
    nll_row = op_rows.get("nll_from_mixture_csr") or op_rows.get("nll_from_probs")
    assert nll_row is not None, "no fused reconstruction NLL in the op table"
    assert nll_row["calls"] > 0 and nll_row["backward_seconds"] > 0
    assert len(report["epochs"]) == settings_nytimes.epochs
    first_epoch = report["epochs"][0]
    assert first_epoch["docs_per_sec"] > 0
    assert first_epoch["elbo"] != 0.0 and first_epoch["contrastive"] != 0.0
    assert report["totals"]["docs_per_sec"] > 0
    assert 0.0 < report["totals"]["contrastive_loss_share"] < 1.0

    # O(V^2) space: the kernel really is two dense V x V doubles.
    assert kernel_bytes == 2 * vocab * vocab * 8
    if STRICT:
        # The regularizer's overhead must remain modest (paper's claim) —
        # generous bound: under 4x the plain backbone per epoch.
        assert regularized_epoch < 4.0 * plain_epoch
