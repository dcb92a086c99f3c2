"""``serve``: the inference service over a ContraTopic checkpoint.

This is the no-grad path plus queueing and micro-batching; hot reloads
write to the model registry while requests read it.  Load comes from one
process on the service's own event loop with the default ``LoadProfile``
mix (80% transform, 15% top_words, 5% coherence), in two phases:

* open-loop Poisson steps ``low``/``mid``/``high``; latency is timed from
  each request's scheduled send.  At the mid rate the model is mostly
  idle, so latency there follows the batching policy;
* a closed-loop ``capacity`` phase through ``run_load`` with 64 requests
  in flight and checkpoint hot-reloads spread across it; its throughput
  follows the compute path.

Each timed segment runs the low and the high step once, then alternates
mid windows with capacity chunks on its set-up's service.  A unit is
one request.  The model is trained once before the set-ups and saved as a
checkpoint; a checkpoint only loads into a model over its own vocabulary,
so every set-up regenerates the checkpoint's corpus from the same seed,
with the content caches emptied first.
"""

from __future__ import annotations

import asyncio
import gc
import random
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

import repro.metrics.coherence as coherence_module
from repro.core.contratopic import ContraTopic
from repro.core.similarity import npmi_kernel
from repro.data.corpus import Corpus
from repro.data.datasets import load_dataset
from repro.embeddings.store import build_embeddings
from repro.io import save_checkpoint
from repro.metrics.npmi import compute_npmi_matrix
from repro.serving import InferenceService, ModelRegistry
from repro.serving.loadgen import LoadProfile, build_requests, run_load
from repro.serving.service import COHERENCE, OK, STATUSES, TOP_WORDS, TRANSFORM
from repro.tensor import default_dtype
from repro.training.trainer import Trainer

import harness
import spans
from openloop import open_loop, poisson_arrivals
from tails import median, percentile, tail

SCALE = 0.5
TOPICS = 50
BATCH = 200
EPOCHS = 10
LAMBDA = 300.0
EMBEDDING_DIM = 50
#: Open-loop steps: name and offered rate (req/s).
STEPS = (("low", 100.0), ("mid", 500.0), ("high", 800.0))
#: Share of each timed share the low and the high step take, once apiece.
EDGE_SHARE = 0.1
#: Requests per mid window, about 0.6 s at the mid rate.  For the rest of
#: each timed share, mid windows alternate with capacity chunks, and
#: ``p50_ms`` and ``tail_ms`` are medians over the windows: a burst of
#: steal time on a shared host then sets one window's figures, not the
#: run's.  Each window's tail is its p95 (15 samples beyond).
MID_WINDOW = 300
CONCURRENCY = 64
#: Capacity requests per ``run_load`` call.  The first call of each share
#: hot-reloads the checkpoint after its ``RELOAD_EVERY``-th completion, so
#: a run spreads three reloads across the capacity phase.
CHUNK = 1000
RELOAD_EVERY = 600
WARM_REQUESTS = 64
MODEL_SPANS = ("models.transform", "models.top_words", "models.coherence")


class _Checks:
    """Validates every answer as it arrives and keeps only the tallies."""

    def __init__(self, outcome: harness.Outcome, expected_scores: np.ndarray):
        self.outcome = outcome
        self.expected_scores = expected_scores
        self.loaded_versions: set[int] = set()
        self.statuses = dict.fromkeys(STATUSES, 0)
        self.batch_sizes: list[int] = []
        self.ok_transforms = 0
        self.coherence_answer: np.ndarray | None = None

    def reset_step(self) -> None:
        self.statuses = dict.fromkeys(STATUSES, 0)
        self.batch_sizes = []
        self.ok_transforms = 0

    def __call__(self, request, response) -> None:
        outcome = self.outcome
        outcome.attempted += 1
        if response.status not in self.statuses:
            outcome.problems.append(f"unknown status {response.status!r}")
            outcome.failed += 1
            return
        self.statuses[response.status] += 1
        if response.status != OK:
            outcome.failed += 1
            return
        self.batch_sizes.append(response.batch_size)
        good = outcome.check(
            response.model_version in self.loaded_versions,
            f"answer from model version {response.model_version}, "
            f"loaded {sorted(self.loaded_versions)}",
        )
        value = response.value
        if request.kind == TRANSFORM:
            theta = np.asarray(value, dtype=np.float64)
            good &= outcome.check(
                theta.shape == (TOPICS,)
                and bool(np.all(np.isfinite(theta)))
                and bool(np.all(theta >= 0.0))
                and abs(theta.sum() - 1.0) < 1e-4,
                f"transform answer is not a length-{TOPICS} distribution",
            )
            self.ok_transforms += good
        elif request.kind == TOP_WORDS:
            good &= outcome.check(
                len(value) == TOPICS and all(len(words) == request.payload for words in value),
                "top_words answer has the wrong shape",
            )
        elif request.kind == COHERENCE:
            good &= outcome.check(
                np.array_equal(value, self.expected_scores),
                "coherence answer differs from topic_npmi_scores",
            )
            if self.coherence_answer is None:
                self.coherence_answer = np.asarray(value)
        outcome.failed += not good


def _busy_share(tracer, windows) -> float:
    """Model time over wall time across ``(start, end)`` windows."""
    model = [s for name in MODEL_SPANS for s in tracer.named(name)]
    busy = sum(s.duration for a, b in windows for s in model if a <= s.start < b)
    return busy / sum(b - a for a, b in windows)


def _count_once(outcome, service, before: dict, sent: int, label: str) -> None:
    """Every request sent in a phase is counted once, under a single status."""
    counts = service.stats()
    delta_requests = counts["count_requests"] - before["count_requests"]
    delta_statuses = sum(counts[f"count_{s}"] - before[f"count_{s}"] for s in STATUSES)
    outcome.check(counts["unanswered"] == 0, f"{label}: {counts['unanswered']} unanswered")
    outcome.check(
        delta_requests == sent and delta_statuses == sent,
        f"{label}: sent {sent}, service counted {delta_requests} requests "
        f"and {delta_statuses} statuses",
    )


def run(seed: int, seconds: float, tracer) -> harness.Outcome:
    outcome = harness.Outcome()
    scratch = Path.cwd() / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="serve-", dir=scratch))
    try:
        with default_dtype(harness.DTYPE):
            return _run(seed, seconds, tracer, outcome, workdir / "model.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


def _inputs(seed: int, tracer):
    with tracer.span("data.generate"):
        dataset = load_dataset("nytimes", scale=SCALE, seed=harness.data_seed(seed, 0))
    with tracer.span("embeddings.build"):
        embeddings = build_embeddings(dataset.train, dim=EMBEDDING_DIM).vectors
    with tracer.span("metrics.npmi_build"):
        npmi_test = compute_npmi_matrix(dataset.test)
        npmi_train = compute_npmi_matrix(dataset.train)
    with tracer.span("core.kernel_build"):
        kernel = npmi_kernel(npmi_train, temperature=0.25)

    def factory() -> ContraTopic:
        return harness.contratopic(
            dataset.vocab_size, embeddings, kernel, topics=TOPICS, hidden=(64,),
            epochs=EPOCHS, batch=BATCH, lam=LAMBDA, seed=0,
        )

    return dataset, npmi_test, factory


def _run(seed, seconds, tracer, outcome, checkpoint: Path) -> harness.Outcome:
    dataset, _, factory = _inputs(seed, spans.OFF)
    trained = factory()
    Trainer().fit(trained, dataset.train)
    save_checkpoint(trained, checkpoint)
    del trained
    # Requests carry test documents; an empty one would be a malformed request.
    corpus = Corpus([doc for doc in dataset.test.documents if len(doc)], dataset.train.vocabulary)
    steps = {name: ([], [], dict.fromkeys(STATUSES, 0), []) for name, _ in STEPS}
    windows = {name: [] for name, _ in STEPS}
    mid_p50s: list[float] = []
    mid_tails = []
    capacity_rates: list[float] = []
    capacity_ok = capacity_seconds = 0.0
    capacity_latency: list[float] = []
    capacity_batches: list[int] = []
    capacity_windows = []
    reload_failures = 0
    rollbacks = 0
    coherence_answers = []
    arrivals_rng = random.Random(seed)
    request_seed = seed * 1000

    def setup(index: int):
        dataset, npmi_test, factory = _inputs(seed, tracer)
        registry = ModelRegistry(factory(), factory=factory)
        with tracer.span("serving.load"):
            loaded = registry.load(checkpoint)
        outcome.check(loaded, f"set-up {index}: checkpoint load failed: {registry.last_error}")
        service = InferenceService(registry, dataset.train.vocabulary, npmi_matrix=npmi_test)
        warm = service.serve(
            build_requests(corpus, LoadProfile(num_requests=WARM_REQUESTS, seed=seed)),
            concurrency=WARM_REQUESTS,
        )
        outcome.check(all(r.ok for r in warm), f"set-up {index}: warm batch not all ok")
        return registry, service, npmi_test

    def requests_for(count: int):
        nonlocal request_seed
        request_seed += 1
        return build_requests(corpus, LoadProfile(num_requests=count, seed=request_seed))

    def open_step(service, checks: _Checks, name: str, rate: float, count: int):
        requests = requests_for(count)
        arrivals = poisson_arrivals(rate, count, arrivals_rng)

        async def step():
            await service.start()
            try:
                return await open_loop(service.submit_request, requests, arrivals, checks)
            finally:
                await service.stop()

        gc.collect()
        checks.reset_step()
        before = service.stats()
        result = asyncio.run(step())
        _count_once(outcome, service, before, count, name)
        latency, lateness, statuses, batches = steps[name]
        latency.extend(result.latency_ms)
        lateness.extend(result.lateness_ms)
        for status, number in checks.statuses.items():
            statuses[status] += number
        batches.extend(checks.batch_sizes)
        windows[name].append((result.start, result.end))
        return result

    def capacity_chunk(service, checks: _Checks, reload_hook) -> None:
        nonlocal capacity_ok, capacity_seconds
        requests = requests_for(CHUNK)
        gc.collect()
        checks.reset_step()
        before = service.stats()
        start = time.perf_counter()
        report = run_load(
            service, requests, concurrency=CONCURRENCY,
            reload_every=RELOAD_EVERY if reload_hook else 0, reload_hook=reload_hook,
        )
        capacity_windows.append((start, time.perf_counter()))
        for request, response in zip(requests, report.responses):
            checks(request, response)
            capacity_latency.append(response.latency_ms)
        capacity_rates.append(checks.ok_transforms / report.wall_seconds)
        capacity_ok += checks.ok_transforms
        capacity_seconds += report.wall_seconds
        capacity_batches.extend(checks.batch_sizes)
        _count_once(outcome, service, before, len(requests), "capacity")

    def segment(inputs, deadline: float) -> None:
        nonlocal rollbacks
        registry, service, npmi_test = inputs
        expected = coherence_module.topic_npmi_scores(
            registry.model.topic_word_matrix(), npmi_test
        )
        checks = _Checks(outcome, expected)
        checks.loaded_versions.add(registry.version)

        def reload() -> None:
            nonlocal reload_failures
            with tracer.span("serving.reload"):
                loaded = registry.load(checkpoint)
            if loaded:
                checks.loaded_versions.add(registry.version)
            else:
                reload_failures += 1

        length = deadline - time.perf_counter()
        for name, rate in (STEPS[0], STEPS[2]):
            open_step(service, checks, name, rate, max(1, round(rate * EDGE_SHARE * length)))
        name, rate = STEPS[1]
        hook = reload
        while hook is not None or time.perf_counter() < deadline:
            result = open_step(service, checks, name, rate, MID_WINDOW)
            mid_p50s.append(median(result.latency_ms))
            mid_tails.append(tail(result.latency_ms))
            capacity_chunk(service, checks, hook)
            hook = None
        rollbacks += registry.rollbacks
        if checks.coherence_answer is not None:
            coherence_answers.append(checks.coherence_answer)

    targets = [
        (ContraTopic, "transform", "models.transform"),
        (ContraTopic, "top_words", "models.top_words"),
        (coherence_module, "topic_npmi_scores", "models.coherence"),
    ]
    with spans.patched(tracer, targets):
        setups = harness.interleaved(outcome, tracer, seconds, setup, segment)
    outcome.check(reload_failures == 0, f"{reload_failures} hot reloads failed")
    outcome.check(rollbacks == 0, f"registries rolled back {rollbacks} times")
    outcome.check(bool(coherence_answers), "no coherence answer")

    top = max(1, round(0.1 * TOPICS))
    answer = coherence_answers[-1] if coherence_answers else np.zeros(TOPICS)
    outcome.metrics = {
        "setup_s": median(setups),
        "docs_per_s": capacity_ok / capacity_seconds,
        "p50_ms": median(mid_p50s),
        "tail_ms": median([t.value for t in mid_tails]),
        "coherence": float(np.sort(answer)[::-1][:top].mean()),
    }
    window_tails = sorted({f"p{t.percentile:g}" for t in mid_tails})
    outcome.report.append(
        f"serve: V={dataset.vocab_size} K={TOPICS} mid: {len(mid_tails)} windows of "
        f"{MID_WINDOW}, tail {'/'.join(window_tails)} per window, per-window p50 "
        f"{[round(v, 2) for v in mid_p50s]} ms, tails {[round(t.value, 2) for t in mid_tails]} ms; "
        f"capacity {[round(r) for r in capacity_rates]} ok transforms/s per chunk over "
        f"{len(capacity_latency)} requests; set-ups {[round(s, 3) for s in setups]} s"
    )
    for name, rate in STEPS:
        latency, lateness, statuses, _ = steps[name]
        outcome.report.append(
            f"  {name:8s} {rate:5.0f} req/s n={len(latency)} p50={median(latency):.2f} ms "
            f"p99={percentile(latency, 99):.2f} ms lateness p99={percentile(lateness, 99):.2f} ms "
            f"statuses={statuses}"
        )
    if tracer.enabled:
        layers = outcome.layers
        layers.update(harness.setup_layers(tracer))
        layers["serving.load_s"] = harness.per_setup(tracer, "serving.load")
        for name, _ in STEPS:
            latency, lateness, statuses, batches = steps[name]
            layers[f"serving.{name}.p50_ms"] = median(latency)
            layers[f"serving.{name}.p99_ms"] = percentile(latency, 99)
            layers[f"serving.{name}.admit_delay_ms_p99"] = percentile(lateness, 99)
            layers[f"serving.{name}.batch_size_mean"] = float(np.mean(batches)) if batches else 0.0
            layers[f"serving.{name}.compute_busy_share"] = _busy_share(tracer, windows[name])
            layers[f"serving.{name}.not_ok"] = float(sum(statuses.values()) - statuses[OK])
        layers["serving.capacity.batch_size_mean"] = float(np.mean(capacity_batches))
        layers["serving.capacity.compute_busy_share"] = _busy_share(tracer, capacity_windows)
        layers["serving.capacity.p99_ms"] = percentile(capacity_latency, 99)
        reloads = tracer.named("serving.reload")
        layers["serving.reload_s"] = median([s.duration for s in reloads]) if reloads else 0.0
        layers["serving.reloads"] = float(len(reloads))
        layers["serving.reload_failures"] = float(reload_failures)
        transforms = tracer.named("models.transform", within=harness.PHASE)
        top_words = tracer.named("models.top_words", within=harness.PHASE)
        layers["models.transform_s"] = median([s.duration for s in transforms])
        layers["models.top_words_s"] = median([s.duration for s in top_words])
        layers.update(harness.tensor_layers(outcome.ops, len(transforms)))
    return outcome
