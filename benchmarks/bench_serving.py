"""Serving benchmark: the online-inference half of the CI perf guard.

Drives the resilient inference service (:mod:`repro.serving`) with the
deterministic load generator on a bundled-corpus model and emits
``BENCH_serving.json`` through :func:`repro.serving.loadgen.serving_report`
(the same function ``repro serve`` uses), which
``benchmarks/check_regression.py`` compares against the checked-in
baseline.  The gated totals are the end-to-end wall-clock, the
p50/p95/p99 request latencies, and the ``serving_requests_per_sec``
throughput.

A second (ungated) chaos test replays the same request stream under
injected NaN outputs, worker death, latency spikes and corrupt
checkpoint hot-loads, and asserts the serving invariants:

* **every** request receives a well-formed response (zero unanswered);
* the circuit breaker trips on consecutive NaN batches and recovers
  (later requests are served ``ok`` again);
* a corrupt hot-load rolls back to the serving model (a rollback is
  counted, no request fails because of it) and a later clean publication
  goes live.
"""

from __future__ import annotations

from functools import lru_cache

from benchmarks.conftest import FAST, print_block, write_bench
from repro.data import load_20ng
from repro.experiments.reporting import format_table
from repro.io import save_checkpoint
from repro.models import ProdLDA
from repro.models.base import NTMConfig
from repro.serving import (
    InferenceService,
    LoadProfile,
    ModelRegistry,
    OK,
    ServingConfig,
    build_requests,
    run_load,
    serving_report,
)
from repro.telemetry import MetricsRegistry
from repro.training.faults import FaultInjector, FaultPlan

#: Load volume: enough traffic for stable percentiles in STRICT mode,
#: a quick smoke in FAST mode.
NUM_REQUESTS = 120 if FAST else 600
CONCURRENCY = 24

#: Service shape used by both legs (small batches keep latency visible).
SERVE_CONFIG = ServingConfig(
    max_batch_size=16,
    max_wait_ms=2.0,
    breaker_threshold=3,
    breaker_cooldown_ms=50.0,
)


@lru_cache(maxsize=1)
def _fitted():
    """One small trained model + corpus shared by both benchmark legs."""
    corpus = load_20ng(scale=0.12).train
    config = NTMConfig(
        num_topics=8,
        hidden_sizes=(32,),
        epochs=2 if FAST else 4,
        batch_size=64,
        learning_rate=3e-3,
        dropout=0.1,
        seed=0,
    )
    model = ProdLDA(corpus.vocab_size, config)
    model.fit(corpus)
    model.eval()
    return corpus, model, config


def _service(corpus, model, *, metrics=None, faults=None, registry=None):
    return InferenceService(
        registry or ModelRegistry(model),
        corpus.vocabulary,
        config=SERVE_CONFIG,
        metrics=metrics,
        faults=faults,
    )


def test_serving_front_door_bench(benchmark):
    """Clean-path latency/throughput; emits the gated BENCH_serving.json."""
    corpus, model, _ = _fitted()
    metrics = MetricsRegistry()
    profile = LoadProfile(
        num_requests=NUM_REQUESTS,
        concurrency=CONCURRENCY,
        coherence_weight=0.0,
        seed=0,
    )
    requests = build_requests(corpus, profile)
    results = {}

    def run():
        service = _service(corpus, model, metrics=metrics)
        results["report"] = run_load(service, requests, concurrency=CONCURRENCY)

    benchmark.pedantic(run, rounds=1, iterations=1)
    report = results["report"]
    bench = serving_report(
        report,
        registry=metrics,
        meta={
            "requests": NUM_REQUESTS,
            "concurrency": CONCURRENCY,
            "status_counts": report.status_counts,
        },
    )
    write_bench(bench)
    totals = bench["totals"]

    print_block(
        format_table(
            ["metric", "value"],
            [[k, f"{v:.6g}"] for k, v in sorted(totals.items())
             if k.startswith("serving")],
        )
    )

    # The serving invariant, even on the clean path: nothing unanswered.
    assert report.unanswered == 0
    assert report.status_counts[OK] == NUM_REQUESTS
    assert totals["serving_requests"] == NUM_REQUESTS
    assert totals["serving_wall_seconds"] > 0
    assert totals["serving_p50_seconds"] > 0
    assert totals["serving_p95_seconds"] >= totals["serving_p50_seconds"]
    assert totals["serving_requests_per_sec"] > 0
    # Micro-batching must actually coalesce: far fewer batches than
    # requests (otherwise the front door is a per-request dispatcher).
    batches = report.stats["count_batches"]
    assert batches < NUM_REQUESTS / 2, (
        f"{batches} batches for {NUM_REQUESTS} requests — no coalescing"
    )


def test_serving_chaos_resilience(tmp_path):
    """Chaos leg: NaN + death + latency + corrupt reloads, zero dropped."""
    corpus, model, config = _fitted()
    # Deterministic plan: the first batch attempt dies (absorbed by the
    # retry, which hits a latency spike and then succeeds), followed by a
    # NaN window wide enough for three consecutive transform batches
    # (trips the breaker; open batches consume no steps), and the first
    # hot-load corrupted on disk (rolls back).
    faults = FaultInjector(
        FaultPlan(
            serve_death_steps=(0,),
            serve_latency_steps=(1,),
            serve_nan_steps=tuple(range(3, 12)),
            serve_latency_seconds=0.02,
            corrupt_checkpoint_loads=(0,),
            seed=0,
        )
    )
    factory = lambda: ProdLDA(corpus.vocab_size, config)  # noqa: E731
    registry = ModelRegistry(model, factory=factory, faults=faults)
    service = _service(corpus, model, faults=faults, registry=registry)

    ckpt = tmp_path / "published.npz"
    save_checkpoint(model, ckpt)

    def publish_and_reload():
        save_checkpoint(model, ckpt)
        registry.load(ckpt)

    requests = build_requests(
        corpus,
        LoadProfile(
            num_requests=NUM_REQUESTS,
            concurrency=CONCURRENCY,
            coherence_weight=0.0,
            seed=1,
        ),
    )
    report = run_load(
        service,
        requests,
        concurrency=CONCURRENCY,
        reload_every=max(10, NUM_REQUESTS // 6),
        reload_hook=publish_and_reload,
    )

    counts = report.status_counts
    print_block(
        format_table(
            ["status", "count"], [[k, str(v)] for k, v in counts.items()]
        )
    )

    # 1. Every request got a well-formed response.
    assert report.unanswered == 0
    assert sum(counts.values()) == NUM_REQUESTS
    assert counts["error"] == 0  # deaths are retried, NaN degrades
    # 2. The injected NaN run tripped the breaker, and the service
    #    recovered: the stream both degraded *and* kept serving ok.
    assert service.breaker.trips >= 1
    assert counts["degraded"] > 0
    assert counts[OK] > 0
    # 3. The worker death was absorbed by the retry path.
    assert faults.counts["serve_death"] >= 1
    assert report.stats["count_retries"] >= 1
    # 4. The corrupt hot-load rolled back; a later clean one went live.
    assert faults.counts["corrupted_loads"] == 1
    assert registry.rollbacks >= 1
    assert registry.reloads >= 1
    assert registry.version > 1
