"""Load generator: deterministic request mixes, reports, telemetry totals."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.serving import (
    InferenceService,
    LoadProfile,
    build_requests,
    run_load,
)
from repro.serving.loadgen import SERVING_GATES, serving_report
from repro.serving.service import TRANSFORM
from repro.telemetry import MetricsRegistry


class TestBuildRequests:
    def test_same_seed_same_mix(self, tiny_corpus):
        profile = LoadProfile(num_requests=50, seed=7)
        a = build_requests(tiny_corpus, profile)
        b = build_requests(tiny_corpus, profile)
        assert [r.kind for r in a] == [r.kind for r in b]
        assert [r.payload for r in a] == [r.payload for r in b]

    def test_different_seed_different_mix(self, tiny_corpus):
        a = build_requests(tiny_corpus, LoadProfile(num_requests=50, seed=0))
        b = build_requests(tiny_corpus, LoadProfile(num_requests=50, seed=1))
        assert [r.kind for r in a] != [r.kind for r in b] or [
            r.payload for r in a
        ] != [r.payload for r in b]

    def test_zero_weight_kind_never_appears(self, tiny_corpus):
        profile = LoadProfile(
            num_requests=60,
            transform_weight=1.0,
            top_words_weight=0.0,
            coherence_weight=0.0,
        )
        requests = build_requests(tiny_corpus, profile)
        assert {r.kind for r in requests} == {TRANSFORM}

    def test_transform_payloads_are_real_documents(self, tiny_corpus):
        requests = build_requests(
            tiny_corpus, LoadProfile(num_requests=30, coherence_weight=0.0)
        )
        docs = {tuple(int(t) for t in d) for d in tiny_corpus.documents}
        for request in requests:
            if request.kind == TRANSFORM:
                assert tuple(request.payload) in docs

    def test_deadline_propagates(self, tiny_corpus):
        requests = build_requests(
            tiny_corpus, LoadProfile(num_requests=10, deadline_ms=42.0)
        )
        assert all(r.deadline_ms == 42.0 for r in requests)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_requests": 0},
            {"concurrency": 0},
            {"transform_weight": -0.1},
            {
                "transform_weight": 0.0,
                "top_words_weight": 0.0,
                "coherence_weight": 0.0,
            },
            {"deadline_ms": 0.0},
        ],
    )
    def test_profile_validation(self, kwargs):
        with pytest.raises(ConfigError):
            LoadProfile(**kwargs)


class TestLoadReport:
    @pytest.fixture()
    def report(self, registry, tiny_corpus, fast_serving_config, tiny_npmi):
        service = InferenceService(
            registry,
            tiny_corpus.vocabulary,
            config=fast_serving_config,
            npmi_matrix=tiny_npmi,
        )
        requests = build_requests(
            tiny_corpus, LoadProfile(num_requests=30, seed=3)
        )
        return run_load(service, requests, concurrency=8)

    def test_every_request_answered(self, report):
        assert report.unanswered == 0
        assert report.status_counts["ok"] == 30
        assert report.wall_seconds > 0
        assert report.requests_per_sec > 0

    def test_percentiles_ordered(self, report):
        p50 = report.percentile_seconds(50)
        p95 = report.percentile_seconds(95)
        p99 = report.percentile_seconds(99)
        assert 0 < p50 <= p95 <= p99

    def test_summary_has_operator_facing_keys(self, report):
        summary = report.summary()
        for key in (
            "requests",
            "p50_seconds",
            "p95_seconds",
            "requests_per_sec",
            "status_counts",
        ):
            assert key in summary, summary

    def test_serving_report_carries_totals_and_gates(self, report):
        built = serving_report(report, "serve-test", registry=MetricsRegistry())
        assert built["meta"]["suite"] == "serving"
        assert built["gates"] == SERVING_GATES
        totals = built["totals"]
        assert totals["serving_requests"] == 30
        assert totals["serving_wall_seconds"] == pytest.approx(
            report.wall_seconds, rel=1e-6
        )
        assert (
            0
            < totals["serving_p50_seconds"]
            <= totals["serving_p95_seconds"]
            <= totals["serving_p99_seconds"]
        )
        assert totals["serving_requests_per_sec"] == pytest.approx(
            report.requests_per_sec, rel=1e-3
        )
