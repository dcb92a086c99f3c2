"""One registry of bench suites: ``repro bench --suite`` and the pytest benches.

Every suite is one :class:`BenchSuite` in :data:`SUITES`.  Its ``run``
function owns the whole workload — the warm-up, the timed legs, and the
correctness checks (streaming exactness, multi-seed serial == parallel,
the sparse loss gap) — and returns a :class:`SuiteRun` carrying the
registry, the suite's own totals and its metadata.  Its ``gates`` map each
gated total to the direction in which it is better (``"lower"`` for
wall-clocks, ``"higher"`` for rates); a key with a ``*`` gates every total
it matches, so the ddp suite gates exactly the legs it ran.

Three layers derive from the registry:

* ``repro bench --suite <name>`` — one generic handler in :mod:`repro.cli`
  passes the parsed flags that ``run`` names as parameters;
* ``benchmarks/bench_<suite>.py`` — calls the same ``run`` at the bench
  scale and adds only its strict-mode floors;
* reports — :meth:`BenchSuite.report` writes the gates into the report's
  ``gates`` field, which :func:`repro.telemetry.report.compare_reports`
  reads, so the perf guard needs no per-suite knowledge.

Adding a suite: write ``_run_<name>(...) -> SuiteRun`` (its parameters
are named like the ``bench`` flags it reads), add a :class:`BenchSuite`
entry with its gates, a ``benchmarks/bench_<name>.py`` that calls
``SUITES[name].run``, a checked-in baseline under
``benchmarks/baselines/`` and one row in the ``bench`` matrix of
``.github/workflows/ci.yml``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.errors import ConfigError, ReproError
from repro.telemetry.core import MetricsRegistry
from repro.telemetry.report import build_report


class SuiteCheckError(ReproError, RuntimeError):
    """A suite's correctness check failed (the timings mean nothing)."""


@dataclass
class SuiteRun:
    """What one suite run measured: report inputs plus the raw result."""

    name: str
    registry: MetricsRegistry
    totals: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    epochs: list = field(default_factory=list)
    #: Suite-specific result object (evaluation, leaderboard, ...).
    result: object = None
    #: Extra human-readable block printed before the report.
    text: str = ""


@dataclass(frozen=True)
class BenchSuite:
    """One bench suite: its workload and the totals the perf guard gates."""

    name: str
    run: Callable[..., SuiteRun]
    gates: Mapping[str, str]
    help: str

    def report(self, run: SuiteRun, name: str | None = None) -> dict:
        """The ``repro.telemetry.bench/v1`` report of ``run``, gates included."""
        return build_report(
            name or run.name,
            registry=run.registry,
            epochs=run.epochs,
            meta={"suite": self.name, **run.meta},
            totals=run.totals,
            gates=self.gates,
        )


def _dtype_name() -> str:
    from repro.tensor import get_default_dtype

    return str(get_default_dtype())


def _run_train(
    settings,
    model: str = "contratopic",
    seed: int = 0,
    profile_ops: bool = True,
    jsonl: str | None = None,
    guard: bool = False,
    checkpoint_dir: str | None = None,
    inject_nan: float = 0.0,
    inject_grad: float = 0.0,
    inject_interrupts: int = 0,
    faults_seed: int = 0,
    ddp_workers: int | None = None,
    objectives=None,
) -> SuiteRun:
    """One benchmarked training run through the production Trainer path."""
    import contextlib

    from repro.experiments.context import ExperimentContext
    from repro.models.base import NeuralTopicModel
    from repro.telemetry import TelemetryCallback
    from repro.telemetry import profile_ops as op_profiler
    from repro.training.trainer import CheckpointSpec, RunSpec, Trainer

    context = ExperimentContext(settings)
    topic_model = context.build(model, seed=seed)
    if not isinstance(topic_model, NeuralTopicModel):
        raise ConfigError("bench requires a neural model (with an epoch loop)")
    registry = MetricsRegistry()
    callback = TelemetryCallback(path=jsonl, registry=registry, run_name=model)
    guard_policy = None
    if guard:
        from repro.training.resilience import GuardPolicy

        guard_policy = GuardPolicy()
    faults = None
    if inject_nan or inject_grad or inject_interrupts:
        from repro.training.faults import FaultPlan

        if inject_interrupts and not checkpoint_dir:
            raise ConfigError("--inject-interrupts requires --checkpoint-dir")
        faults = FaultPlan(
            nan_loss_rate=inject_nan,
            exploding_grad_rate=inject_grad,
            interrupt_saves=tuple(range(inject_interrupts)),
            seed=faults_seed,
        )
    spec = RunSpec(
        model=topic_model.config,
        guard=guard_policy,
        checkpoint=CheckpointSpec(checkpoint_dir) if checkpoint_dir else None,
        faults=faults,
        ddp_workers=ddp_workers,
        objectives=objectives,
    )
    profiler = op_profiler(registry) if profile_ops else contextlib.nullcontext()
    with profiler, registry.timer("bench/fit"):
        Trainer(spec, callbacks=[callback]).fit(topic_model, context.dataset.train)
    return SuiteRun(
        name=f"{model}_{settings.dataset}",
        registry=registry,
        epochs=callback.epochs,
        meta={
            "dataset": settings.dataset,
            "model": model,
            "scale": settings.scale,
            "num_topics": settings.num_topics,
            "epochs": settings.epochs,
            "seed": seed,
            "dtype": _dtype_name(),
            "profile_ops": bool(profile_ops),
            "guard": bool(guard),
            "inject_nan": inject_nan,
            "inject_grad": inject_grad,
            "inject_interrupts": inject_interrupts,
        },
    )


def _run_ops(repeats: int = 20, dtype: str | None = None, seed: int = 0) -> SuiteRun:
    """Forward+backward of every fused kernel on fixed seeded shapes."""
    from repro.telemetry.microbench import run_ops_microbench

    registry = run_ops_microbench(repeats=repeats, dtype=dtype, seed=seed)
    return SuiteRun(
        name="ops_microbench",
        registry=registry,
        meta={"dtype": dtype or _dtype_name(), "repeats": repeats, "seed": seed},
    )


#: |dense loss − sparse loss| ceiling per dtype: the two legs reduce the
#: same terms in different orders, so the gap is pure float associativity.
SPARSE_LOSS_GAP_CEILING = {"float32": 1e-2, "float64": 1e-6}


def _run_sparse(repeats: int = 20, dtype: str | None = None, seed: int = 0) -> SuiteRun:
    """The training hot path dense vs CSR on one ≥99%-sparse bow."""
    from repro.telemetry.microbench import (
        SPARSE_BATCH,
        SPARSE_PROFILE_DENSITY,
        SPARSE_VOCAB,
        run_sparse_microbench,
    )

    dtype = dtype or _dtype_name()
    registry = run_sparse_microbench(repeats=repeats, dtype=dtype, seed=seed)
    gap = registry.counters["sparse/loss_gap"].value
    if gap > SPARSE_LOSS_GAP_CEILING[dtype]:
        raise SuiteCheckError(
            f"dense-vs-sparse loss gap {gap} exceeds the {dtype} ceiling"
        )
    density = registry.counters["sparse/profile_density"].value
    if density >= 0.01:
        raise SuiteCheckError(f"sparse profile is not ≥99% sparse: {density}")
    dense = registry.timers["sparse/dense"].total_seconds
    sparse = registry.timers["sparse/sparse"].total_seconds
    docs = registry.counters["sparse/docs"].value
    return SuiteRun(
        name="sparse_fast_path",
        registry=registry,
        totals={
            "sparse_dense_seconds": dense,
            "sparse_sparse_seconds": sparse,
            "sparse_speedup": dense / sparse,
            "sparse_docs_per_sec": docs / sparse,
            "sparse_dense_docs_per_sec": docs / dense,
        },
        meta={
            "dtype": dtype,
            "repeats": repeats,
            "seed": seed,
            "batch": SPARSE_BATCH,
            "vocab": SPARSE_VOCAB,
            "density": SPARSE_PROFILE_DENSITY,
            "loss_gap": gap,
            "profile_density": density,
        },
    )


_EVALUATION_FIELDS = (
    "coherence",
    "diversity",
    "km_purity",
    "km_nmi",
    "coherence_std",
    "diversity_std",
    "km_purity_std",
)


def _evaluation_mismatch(a, b) -> str | None:
    """First difference between two EvaluationResults (NaN equals NaN)."""
    if a.seed_status != b.seed_status or a.diverged != b.diverged:
        return f"seed statuses {a.seed_status} vs {b.seed_status}"
    for name in _EVALUATION_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        if x.keys() != y.keys():
            return f"{name} keys {sorted(x)} vs {sorted(y)}"
        for key in x:
            fx, fy = float(x[key]), float(y[key])
            if not (fx == fy or (fx != fx and fy != fy)):
                return f"{name}[{key}]: {fx} vs {fy}"
    return None


def _run_multiseed(
    settings,
    model: str = "contratopic",
    num_seeds: int = 5,
    workers: int | None = None,
    profile_ops: bool = False,
    cluster_counts: tuple[int, ...] | None = None,
) -> SuiteRun:
    """The §V.F multi-seed evaluation serial and fanned out; must agree."""
    from repro.experiments.context import ExperimentContext
    from repro.parallel import resolve_workers
    from repro.training.protocol import CLUSTER_COUNTS, multi_seed_evaluation

    workers = resolve_workers(workers)
    context = ExperimentContext(settings)
    factory = context.factory(model)
    registry = MetricsRegistry()

    def evaluate(n: int, seeds) -> object:
        return multi_seed_evaluation(
            factory,
            context.dataset.train,
            context.dataset.test,
            context.npmi_test,
            seeds=seeds,
            model_name=model,
            cluster_counts=cluster_counts or CLUSTER_COUNTS,
            workers=n,
            registry=registry,
            profile=profile_ops,
        )

    # Warm the shared caches (corpus, NPMI, embeddings) outside the timed
    # legs, so the serial leg does not pay one-time costs the parallel
    # leg then inherits for free.
    evaluate(1, (0,))
    seeds = tuple(range(num_seeds))
    legs = {}
    for label, n in (("serial", 1), ("parallel", workers)):
        start = time.perf_counter()
        legs[label] = evaluate(n, seeds)
        registry.record_seconds(
            f"multiseed/{label}", time.perf_counter() - start, absolute=True
        )
    mismatch = _evaluation_mismatch(legs["serial"], legs["parallel"])
    if mismatch is not None:
        raise SuiteCheckError(
            f"multi-seed metrics differ between workers=1 and workers={workers}: "
            f"{mismatch}"
        )
    serial = registry.timers["multiseed/serial"].total_seconds
    parallel = registry.timers["multiseed/parallel"].total_seconds
    return SuiteRun(
        name=f"multiseed_{model}_{settings.dataset}",
        registry=registry,
        totals={
            "multiseed_serial_seconds": serial,
            "multiseed_parallel_seconds": parallel,
            "multiseed_speedup": serial / parallel,
        },
        meta={
            "dataset": settings.dataset,
            "model": model,
            "scale": settings.scale,
            "num_topics": settings.num_topics,
            "epochs": settings.epochs,
            "num_seeds": num_seeds,
            "workers": workers,
            "cpu_count": os.cpu_count(),
            "dtype": _dtype_name(),
            "profile_ops": bool(profile_ops),
            "metrics": legs["parallel"].summary(),
        },
        result=legs["parallel"],
    )


def _run_ddp(
    settings, model: str = "contratopic", seed: int = 0, ddp_legs: str = "1,2,4"
) -> SuiteRun:
    """Train one profile once per worker count: the data-parallel curve."""
    import math

    from repro.experiments.context import ExperimentContext
    from repro.models.base import NeuralTopicModel
    from repro.tensor import get_default_dtype
    from repro.training.trainer import RunSpec, Trainer

    try:
        legs = tuple(int(part) for part in ddp_legs.split(","))
    except ValueError:
        raise ConfigError(
            f"--ddp-legs must be comma-separated worker counts, got {ddp_legs!r}"
        ) from None
    context = ExperimentContext(settings)
    train = context.dataset.train
    registry = MetricsRegistry()
    # Warm the shared caches (corpus, NPMI, embeddings, BOW cast) outside
    # the timed legs, so the first leg pays no one-time costs.
    context.build(model, seed=seed)
    train.bow_matrix(get_default_dtype())
    final_losses: dict[str, float] = {}
    for workers in legs:
        topic_model = context.build(model, seed=seed)
        if not isinstance(topic_model, NeuralTopicModel):
            raise ConfigError("bench --suite ddp requires a neural model")
        spec = RunSpec(model=topic_model.config, ddp_workers=workers)
        with registry.timer(f"ddp/wall_w{workers}"):
            Trainer(spec).fit(topic_model, train)
        exchange = topic_model._trainer.exchange
        if getattr(exchange, "metrics", None) is not None:
            registry.merge(exchange.metrics)
        loss = float(topic_model.history[-1]["total"])
        if not math.isfinite(loss):
            raise SuiteCheckError(f"workers={workers} leg diverged: {loss}")
        final_losses[str(workers)] = loss
    train.record_cast_stats(registry)
    # Every leg trains the same documents: docs/sec from one leg's work.
    docs = len(train) * settings.epochs
    walls = {n: registry.timers[f"ddp/wall_w{n}"].total_seconds for n in legs}
    totals = {}
    for n, wall in walls.items():
        totals[f"ddp_wall_seconds_w{n}"] = wall
        totals[f"ddp_docs_per_sec_w{n}"] = docs / wall
        if n != 1 and 1 in walls:
            totals[f"ddp_speedup_w{n}"] = walls[1] / wall
    return SuiteRun(
        name=f"ddp_{model}_{settings.dataset}",
        registry=registry,
        totals=totals,
        meta={
            "dataset": settings.dataset,
            "model": model,
            "scale": settings.scale,
            "num_topics": settings.num_topics,
            "epochs": settings.epochs,
            "seed": seed,
            "legs": list(legs),
            "cpu_count": os.cpu_count(),
            "dtype": _dtype_name(),
            "final_losses": final_losses,
        },
    )


#: Exactness tolerance of the in-place NPMI against a cold build; both
#: paths share one derivation kernel, so the observed gap is 0.0.
STREAMING_NPMI_TOL = 1e-12


def _run_streaming(
    stream_slices: int = 20, stream_docs: int = 250, seed: int = 0
) -> SuiteRun:
    """A drifting stream through the incremental engine and a full recount."""
    import numpy as np

    from repro.extensions.online import DriftingStreamConfig, generate_drifting_stream
    from repro.metrics.cooccurrence import (
        DocumentCooccurrence,
        cooccurrence_cache_stats,
    )
    from repro.metrics.npmi import compute_npmi_matrix
    from repro.metrics.streaming import StreamingNpmiEngine

    slices, _, _ = generate_drifting_stream(
        DriftingStreamConfig(
            emerge_at=max(1, stream_slices // 2),
            num_slices=stream_slices,
            docs_per_slice=stream_docs,
            average_length=40.0,
            seed=seed,
        )
    )
    vocab_size = slices[0].vocab_size
    registry = MetricsRegistry()
    # Warm each slice's binary-incidence cache outside the timed legs: the
    # recount leg replays cached slices, so without this the incremental
    # leg (which runs first) would pay every conversion.
    for slice_corpus in slices:
        slice_corpus.binary_doc_word()

    engine = StreamingNpmiEngine(vocab_size)
    for slice_corpus in slices:
        with registry.timer("streaming/update"):
            engine.update(slice_corpus)
    # The reference: per slice, recount every document seen so far from
    # scratch and derive NPMI cold (fresh temporaries).
    for upto in range(1, len(slices) + 1):
        with registry.timer("streaming/recount"):
            recount = DocumentCooccurrence.empty(vocab_size)
            for past in slices[:upto]:
                recount.update(past)
            cold = compute_npmi_matrix(recount)
    engine.check_against(recount)
    npmi_gap = float(np.max(np.abs(engine.npmi.matrix - cold.matrix)))
    if npmi_gap > STREAMING_NPMI_TOL:
        raise SuiteCheckError(
            f"incremental NPMI diverged from cold build by {npmi_gap:.3e}"
        )
    update = registry.timers["streaming/update"].total_seconds
    recount_seconds = registry.timers["streaming/recount"].total_seconds
    total_docs = sum(len(s) for s in slices)
    return SuiteRun(
        name="streaming_engine",
        registry=registry,
        totals={
            "streaming_update_seconds": update,
            "streaming_recount_seconds": recount_seconds,
            "streaming_speedup": recount_seconds / update,
            "streaming_docs_per_sec": total_docs / update,
            **{f"streaming_{k}": int(v) for k, v in engine.stats.items()},
            **{
                f"npmi_cache_{k}": int(v)
                for k, v in cooccurrence_cache_stats().items()
            },
        },
        meta={
            "num_slices": stream_slices,
            "docs_per_slice": stream_docs,
            "vocab_size": vocab_size,
            "total_docs": total_docs,
            "seed": seed,
            "npmi_gap": npmi_gap,
        },
    )


def _run_regularizers(
    settings, num_seeds: int = 5, workers: int | None = None, backbone: str = "etm"
) -> SuiteRun:
    """The objective-zoo leaderboard: ELBO control + every registry term."""
    from repro.experiments.context import ExperimentContext
    from repro.experiments.regularizers import (
        format_leaderboard,
        regularizer_leaderboard,
    )

    context = ExperimentContext(settings)
    seeds = tuple(range(num_seeds))
    registry = MetricsRegistry()
    with registry.timer("regularizers/wall"):
        result = regularizer_leaderboard(
            context, seeds=seeds, workers=workers, registry=registry, backbone=backbone
        )
    return SuiteRun(
        name="regularizers",
        registry=registry,
        totals={
            "regularizers_wall_seconds": registry.timers[
                "regularizers/wall"
            ].total_seconds
        },
        meta={
            "dataset": settings.dataset,
            "backbone": backbone,
            "scale": settings.scale,
            "num_topics": settings.num_topics,
            "epochs": settings.epochs,
            "seeds": list(seeds),
            "workers": workers,
            "leaderboard": [
                {"objective": row.name, "weight": row.weight, **row.summary()}
                for row in result.rows
            ],
            "best": result.best().name,
            "failures": {
                label: {str(seed): status for seed, status in statuses.items()}
                for label, statuses in result.failures.items()
            },
        },
        result=result,
        text=format_leaderboard(result, settings.dataset),
    )


_OP_GATES = {"op_seconds": "lower", "op_backward_seconds": "lower"}

#: Every ``repro bench --suite`` value, in ``--help`` order.
SUITES: dict[str, BenchSuite] = {
    suite.name: suite
    for suite in (
        BenchSuite(
            "train",
            _run_train,
            {
                **_OP_GATES,
                "epoch_seconds": "lower",
                "epoch_seconds_mean": "lower",
                "docs_per_sec": "higher",
            },
            "benchmark an end-to-end training run",
        ),
        BenchSuite(
            "ops",
            _run_ops,
            _OP_GATES,
            "microbenchmark every fused kernel on fixed shapes",
        ),
        BenchSuite(
            "sparse",
            _run_sparse,
            {
                "sparse_sparse_seconds": "lower",
                "sparse_speedup": "higher",
                "sparse_docs_per_sec": "higher",
            },
            "dense-vs-CSR fast-path hot-path comparison",
        ),
        BenchSuite(
            "multiseed",
            _run_multiseed,
            {
                "multiseed_serial_seconds": "lower",
                "multiseed_parallel_seconds": "lower",
                "multiseed_speedup": "higher",
            },
            "serial-vs-parallel §V.F multi-seed evaluation with a "
            "metric-equality check",
        ),
        BenchSuite(
            "ddp",
            _run_ddp,
            {
                "ddp_wall_seconds_w*": "lower",
                "ddp_docs_per_sec_w*": "higher",
                "ddp_speedup_w*": "higher",
            },
            "data-parallel scaling curve over --ddp-legs worker counts",
        ),
        BenchSuite(
            "streaming",
            _run_streaming,
            {
                "streaming_update_seconds": "lower",
                "streaming_speedup": "higher",
                "streaming_docs_per_sec": "higher",
                "streaming_buffer_reuses": "higher",
            },
            "incremental NPMI engine vs per-slice full recount on a "
            "synthetic drifting stream",
        ),
        BenchSuite(
            "regularizers",
            _run_regularizers,
            {"regularizers_wall_seconds": "lower"},
            "objective-zoo leaderboard (ELBO control + every "
            "repro.objectives entry) on one backbone",
        ),
    )
}
