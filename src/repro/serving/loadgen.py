"""Deterministic load generator for the inference service.

The chaos suite, the ``repro serve`` CLI and ``benchmarks/bench_serving``
all need the same thing: a *reproducible* stream of mixed requests driven
against an :class:`~repro.serving.service.InferenceService`, with the
resulting latencies folded into the telemetry report pipeline.  Two
pieces deliver that:

* :func:`build_requests` — seeds a ``numpy`` generator and samples
  ``num_requests`` requests from a corpus according to the
  :class:`LoadProfile` mix (the same seed always yields the same request
  stream, so chaos runs are bit-for-bit repeatable);
* :func:`run_load` — submits them with bounded concurrency, optionally
  hot-reloading a checkpoint every ``reload_every`` completions (the
  live-reload-under-traffic scenario), and returns a :class:`LoadReport`;
* :func:`serving_report` — turns a :class:`LoadReport` into the
  ``BENCH_serving`` report, with the serving totals and the gates
  (:data:`SERVING_GATES`) the CI perf-guard compares.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence, TYPE_CHECKING

import numpy as np

from repro.errors import ConfigError
from repro.serving.service import (
    COHERENCE,
    InferenceService,
    Request,
    Response,
    STATUSES,
    TOP_WORDS,
    TRANSFORM,
)
from repro.telemetry.report import build_report

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.data.corpus import Corpus
    from repro.telemetry.core import MetricsRegistry


@dataclass(frozen=True)
class LoadProfile:
    """Shape of a load run: volume, concurrency and the request mix."""

    num_requests: int = 200
    concurrency: int = 32
    #: Relative weights of the three request kinds (normalised internally).
    transform_weight: float = 0.8
    top_words_weight: float = 0.15
    coherence_weight: float = 0.05
    #: Per-request deadline override (None → service config default).
    deadline_ms: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_requests < 1:
            raise ConfigError("num_requests must be >= 1")
        if self.concurrency < 1:
            raise ConfigError("concurrency must be >= 1")
        weights = (
            self.transform_weight,
            self.top_words_weight,
            self.coherence_weight,
        )
        if min(weights) < 0 or sum(weights) <= 0:
            raise ConfigError(
                "request-mix weights must be >= 0 and not all zero"
            )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ConfigError("deadline_ms must be positive (or None)")


def build_requests(corpus: "Corpus", profile: LoadProfile) -> list[Request]:
    """Sample a reproducible request stream from a corpus.

    ``transform`` requests carry real documents drawn from ``corpus``;
    ``top_words`` requests draw ``n`` from [5, 15].  The stream depends
    only on ``profile`` and the corpus, never on wall-clock or global
    random state.
    """
    rng = np.random.default_rng(profile.seed)
    weights = np.asarray(
        [
            profile.transform_weight,
            profile.top_words_weight,
            profile.coherence_weight,
        ],
        dtype=float,
    )
    kinds = rng.choice(
        [TRANSFORM, TOP_WORDS, COHERENCE],
        size=profile.num_requests,
        p=weights / weights.sum(),
    )
    requests: list[Request] = []
    for kind in kinds:
        if kind == TRANSFORM:
            doc = corpus.documents[int(rng.integers(len(corpus)))]
            payload: object = [int(t) for t in doc]
        elif kind == TOP_WORDS:
            payload = int(rng.integers(5, 16))
        else:
            payload = None
        requests.append(
            Request(kind=str(kind), payload=payload, deadline_ms=profile.deadline_ms)
        )
    return requests


@dataclass
class LoadReport:
    """Outcome of one load run: responses, latencies, service stats."""

    responses: list[Response]
    wall_seconds: float
    stats: dict = field(default_factory=dict)

    @property
    def status_counts(self) -> dict[str, int]:
        """How many responses landed in each status bucket."""
        counts = {status: 0 for status in STATUSES}
        for response in self.responses:
            counts[response.status] = counts.get(response.status, 0) + 1
        return counts

    @property
    def unanswered(self) -> int:
        """Requests that never got a response — must always be zero."""
        return int(self.stats.get("unanswered", 0))

    def percentile_seconds(self, q: float) -> float:
        """Latency percentile (seconds) over every response."""
        latencies = [r.latency_ms / 1000.0 for r in self.responses]
        if not latencies:
            return 0.0
        return float(np.percentile(np.asarray(latencies), q))

    @property
    def requests_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return len(self.responses) / self.wall_seconds

    def summary(self) -> dict:
        """JSON-friendly scalar summary (used by the CLI and the bench)."""
        return {
            "requests": len(self.responses),
            "wall_seconds": self.wall_seconds,
            "requests_per_sec": self.requests_per_sec,
            "p50_seconds": self.percentile_seconds(50),
            "p95_seconds": self.percentile_seconds(95),
            "p99_seconds": self.percentile_seconds(99),
            "status_counts": self.status_counts,
            **{f"service_{k}": v for k, v in self.stats.items()},
        }


#: Serving totals the CI perf-guard gates, and the way each gets better.
SERVING_GATES = {
    "serving_wall_seconds": "lower",
    "serving_p50_seconds": "lower",
    "serving_p95_seconds": "lower",
    "serving_p99_seconds": "lower",
    "serving_requests_per_sec": "higher",
}


def serving_report(
    load: LoadReport,
    name: str = "serving",
    registry: "MetricsRegistry | None" = None,
    meta: dict | None = None,
) -> dict:
    """The ``BENCH_serving`` report of one load run, gates included.

    ``repro serve`` and ``benchmarks/bench_serving.py`` both build their
    report here, so the serving totals and gates exist once.
    """
    return build_report(
        name,
        registry=registry,
        meta={"suite": "serving", **(meta or {})},
        totals={
            "serving_wall_seconds": load.wall_seconds,
            "serving_p50_seconds": load.percentile_seconds(50),
            "serving_p95_seconds": load.percentile_seconds(95),
            "serving_p99_seconds": load.percentile_seconds(99),
            "serving_requests": len(load.responses),
            "serving_requests_per_sec": load.requests_per_sec,
        },
        gates=SERVING_GATES,
    )


def run_load(
    service: InferenceService,
    requests: Sequence[Request],
    *,
    concurrency: int = 32,
    reload_every: int = 0,
    reload_path: str | Path | None = None,
    reload_hook: Callable[[], object] | None = None,
) -> LoadReport:
    """Drive a request stream through the service; returns a LoadReport.

    Starts the service, submits every request with at most
    ``concurrency`` in flight, stops (draining the queue — every admitted
    request resolves), and collects responses in request order.  When
    ``reload_every`` > 0, after every ``reload_every`` completed requests
    the registry hot-loads ``reload_path`` — reload-under-traffic, the
    scenario the rollback path exists for.  ``reload_hook`` replaces the
    plain load with a caller-provided publication step (e.g. re-save a
    fresh checkpoint, then load it, as a live trainer would).
    """

    async def _main() -> list[Response]:
        await service.start()
        limit = asyncio.Semaphore(concurrency)
        reload_lock = asyncio.Lock()
        completed = 0

        async def one(request: Request) -> Response:
            nonlocal completed
            async with limit:
                response = await service.submit_request(request)
            completed += 1
            if reload_every > 0 and completed % reload_every == 0:
                # The reload reads, checksums and probe-validates a
                # checkpoint — blocking work that must not freeze the
                # batching worker (and burn in-flight deadlines), so it
                # runs in a thread while serving continues.  Reloads
                # still serialize with each other: concurrent publishes
                # of the same checkpoint path would race.
                async with reload_lock:
                    if reload_hook is not None:
                        await asyncio.to_thread(reload_hook)
                    elif reload_path is not None:
                        await asyncio.to_thread(
                            service.registry.load, reload_path
                        )
            return response

        try:
            return list(
                await asyncio.gather(*(one(r) for r in requests))
            )
        finally:
            await service.stop()

    started = time.perf_counter()
    responses = asyncio.run(_main())
    wall = time.perf_counter() - started
    return LoadReport(
        responses=responses, wall_seconds=wall, stats=service.stats()
    )
