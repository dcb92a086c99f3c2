"""BENCH reports: build/serialise round-trip and the regression compare."""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.suites import SUITES
from repro.serving.loadgen import SERVING_GATES
from repro.telemetry import (
    SCHEMA,
    MetricsRegistry,
    build_report,
    compare_reports,
    epoch_rows_from_history,
    format_report,
    load_report,
    write_report,
)
from repro.telemetry.report import report_gates, resolve_gates

REPO = Path(__file__).resolve().parent.parent.parent
TRAIN_GATES = SUITES["train"].gates


def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    for _ in range(3):
        registry.record_seconds("op/matmul", 0.01, absolute=True)
        registry.count("op/matmul.calls", absolute=True)
        registry.count("op/matmul.bytes", 1024, absolute=True)
    registry.record_seconds("op/matmul.backward", 0.02, absolute=True)
    registry.record_seconds("op/exp", 0.002, absolute=True)
    registry.count("op/exp.calls", absolute=True)
    return registry


def _epochs() -> list[dict]:
    return [
        {
            "epoch": i,
            "epoch_seconds": 0.5,
            "docs_per_sec": 200.0,
            "elbo": 100.0 + i,
            "contrastive": 50.0,
        }
        for i in range(4)
    ]


class TestBuildReport:
    def test_ops_table(self):
        report = build_report("demo", registry=_populated_registry())
        assert report["schema"] == SCHEMA
        by_op = {row["op"]: row for row in report["ops"]}
        matmul = by_op["matmul"]
        assert matmul["calls"] == 3
        assert matmul["total_seconds"] == pytest.approx(0.03)
        assert matmul["mean_seconds"] == pytest.approx(0.01)
        assert matmul["backward_seconds"] == pytest.approx(0.02)
        assert matmul["bytes"] == 3 * 1024
        # sorted by descending forward time
        assert report["ops"][0]["op"] == "matmul"

    def test_totals_roll_up(self):
        report = build_report(
            "demo", registry=_populated_registry(), epochs=_epochs()
        )
        totals = report["totals"]
        assert totals["epochs"] == 4
        assert totals["epoch_seconds"] == pytest.approx(2.0)
        assert totals["docs_per_sec"] == pytest.approx(200.0)
        assert totals["op_seconds"] == pytest.approx(0.032)
        assert totals["op_backward_seconds"] == pytest.approx(0.02)
        assert totals["op_calls"] == 4
        assert 0 < totals["contrastive_loss_share"] < 1

    def test_epoch_rows_from_history(self):
        rows = epoch_rows_from_history(
            [{"rec": 10.0, "kl": 2.0, "extra": 5.0, "epoch": 0}]
        )
        assert rows[0]["elbo"] == pytest.approx(12.0)
        assert rows[0]["contrastive"] == pytest.approx(5.0)

    def test_format_report_mentions_key_sections(self):
        report = build_report(
            "demo", registry=_populated_registry(), epochs=_epochs()
        )
        text = format_report(report)
        assert "matmul" in text
        assert "docs/s" in text
        assert "totals" in text


class TestSerialisation:
    def test_write_load_round_trip(self, tmp_path):
        report = build_report(
            "demo", registry=_populated_registry(), epochs=_epochs(), meta={"k": 1}
        )
        path = write_report(report, tmp_path / "nested" / "BENCH_demo.json")
        loaded = load_report(path)
        assert loaded == json.loads(json.dumps(report))  # JSON-faithful

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(ValueError, match="schema"):
            load_report(path)


class TestCompareReports:
    @pytest.fixture
    def baseline(self):
        return build_report(
            "demo", registry=_populated_registry(), epochs=_epochs(), gates=TRAIN_GATES
        )

    def test_identical_reports_pass(self, baseline):
        failures, table = compare_reports(baseline, copy.deepcopy(baseline))
        assert failures == []
        assert "totals.epoch_seconds" in table

    def test_three_times_slower_fails(self, baseline):
        slow = copy.deepcopy(baseline)
        for key in ("op_seconds", "op_backward_seconds", "epoch_seconds",
                    "epoch_seconds_mean"):
            slow["totals"][key] *= 3.0
        slow["totals"]["docs_per_sec"] /= 3.0
        failures, table = compare_reports(baseline, slow, threshold=2.0)
        failed_keys = {f.split(":")[0] for f in failures}
        assert "totals.epoch_seconds" in failed_keys
        assert "totals.docs_per_sec" in failed_keys  # rates gate on slowdowns too
        assert "FAIL" in table

    def test_faster_current_passes(self, baseline):
        fast = copy.deepcopy(baseline)
        for key in ("op_seconds", "epoch_seconds", "epoch_seconds_mean"):
            fast["totals"][key] /= 3.0
        fast["totals"]["docs_per_sec"] *= 3.0
        failures, _ = compare_reports(baseline, fast)
        assert failures == []

    def test_noise_floor_suppresses_tiny_timings(self, baseline):
        base = copy.deepcopy(baseline)
        cur = copy.deepcopy(baseline)
        base["totals"]["op_seconds"] = 1e-5
        cur["totals"]["op_seconds"] = 1e-3  # 100x, but under the floor
        failures, table = compare_reports(base, cur)
        assert all("op_seconds" not in f for f in failures)
        assert "noise" in table

    def test_threshold_must_exceed_one(self, baseline):
        with pytest.raises(ValueError):
            compare_reports(baseline, baseline, threshold=1.0)

    def test_ungated_totals_are_not_compared(self, baseline):
        slow = copy.deepcopy(baseline)
        slow["totals"]["elbo_mean"] *= 10.0
        failures, table = compare_reports(baseline, slow)
        assert failures == []
        assert "elbo_mean" not in table

    def test_missing_gated_total_fails(self):
        """A gated total absent from the current report is a FAIL, not a skip."""
        baseline = load_report(REPO / "benchmarks" / "baselines" / "BENCH_sparse.json")
        current = copy.deepcopy(baseline)
        for key in ("sparse_speedup", "sparse_docs_per_sec", "sparse_sparse_seconds"):
            del current["totals"][key]
        failures, table = compare_reports(baseline, current, threshold=2.5)
        assert sorted(f.split(":")[0] for f in failures) == [
            "totals.sparse_docs_per_sec",
            "totals.sparse_sparse_seconds",
            "totals.sparse_speedup",
        ]
        assert table.count("FAIL") == 3

    def test_gate_of_the_current_report_alone_counts(self, baseline):
        ungated = copy.deepcopy(baseline)
        ungated["gates"] = {}
        current = copy.deepcopy(baseline)
        del current["totals"]["docs_per_sec"]
        failures, _ = compare_reports(ungated, current)
        assert [f.split(":")[0] for f in failures] == ["totals.docs_per_sec"]

    def test_total_new_in_the_current_report_is_informational(self, baseline):
        old = copy.deepcopy(baseline)
        del old["totals"]["docs_per_sec"]
        failures, table = compare_reports(old, baseline)
        assert failures == []
        assert "new" in table

    def test_conflicting_directions_are_rejected(self, baseline):
        flipped = copy.deepcopy(baseline)
        flipped["gates"]["docs_per_sec"] = "lower"
        with pytest.raises(ValueError, match="docs_per_sec"):
            report_gates(baseline, flipped)


class TestGates:
    def test_plain_keys_gate_even_when_absent(self):
        assert resolve_gates({"a_seconds": "lower"}, {}) == {"a_seconds": "lower"}

    def test_patterns_expand_over_present_totals(self):
        totals = {"leg_w1": 1.0, "leg_w3": 2.0, "other": 3.0}
        assert resolve_gates({"leg_w*": "lower"}, totals) == {
            "leg_w1": "lower",
            "leg_w3": "lower",
        }

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            resolve_gates({"x": "faster"}, {})

    def test_build_report_carries_gates(self):
        report = build_report(
            "demo", totals={"leg_w2": 1.0}, gates={"leg_w*": "higher", "y": "lower"}
        )
        assert report["gates"] == {"leg_w2": "higher", "y": "lower"}
        assert build_report("demo")["gates"] == {}


#: The (total, direction) pairs every checked-in baseline gates — the
#: pairs the perf guard gated before reports carried their own gates.
PINNED_GATES = {
    "BENCH_computational_analysis.json": {
        "docs_per_sec": "higher",
        "epoch_seconds": "lower",
        "epoch_seconds_mean": "lower",
        "op_backward_seconds": "lower",
        "op_seconds": "lower",
    },
    "BENCH_computational_analysis_prefusion.json": {
        "docs_per_sec": "higher",
        "epoch_seconds": "lower",
        "epoch_seconds_mean": "lower",
        "op_backward_seconds": "lower",
        "op_seconds": "lower",
    },
    "BENCH_ddp.json": {
        "ddp_docs_per_sec_w1": "higher",
        "ddp_docs_per_sec_w2": "higher",
        "ddp_docs_per_sec_w4": "higher",
        "ddp_speedup_w2": "higher",
        "ddp_speedup_w4": "higher",
        "ddp_wall_seconds_w1": "lower",
        "ddp_wall_seconds_w2": "lower",
        "ddp_wall_seconds_w4": "lower",
    },
    "BENCH_ops.json": {"op_backward_seconds": "lower", "op_seconds": "lower"},
    "BENCH_regularizers.json": {"regularizers_wall_seconds": "lower"},
    "BENCH_serving.json": {
        "serving_p50_seconds": "lower",
        "serving_p95_seconds": "lower",
        "serving_p99_seconds": "lower",
        "serving_requests_per_sec": "higher",
        "serving_wall_seconds": "lower",
    },
    "BENCH_sparse.json": {
        "sparse_docs_per_sec": "higher",
        "sparse_sparse_seconds": "lower",
        "sparse_speedup": "higher",
    },
    "BENCH_streaming.json": {
        "streaming_buffer_reuses": "higher",
        "streaming_docs_per_sec": "higher",
        "streaming_speedup": "higher",
        "streaming_update_seconds": "lower",
    },
    "BENCH_suite.json": {
        "multiseed_parallel_seconds": "lower",
        "multiseed_serial_seconds": "lower",
        "multiseed_speedup": "higher",
    },
}

#: Which gate declaration produces each baseline's gates.
BASELINE_PRODUCERS = {
    "BENCH_computational_analysis.json": SUITES["train"].gates,
    "BENCH_computational_analysis_prefusion.json": SUITES["train"].gates,
    "BENCH_ddp.json": SUITES["ddp"].gates,
    "BENCH_ops.json": SUITES["ops"].gates,
    "BENCH_regularizers.json": SUITES["regularizers"].gates,
    "BENCH_serving.json": SERVING_GATES,
    "BENCH_sparse.json": SUITES["sparse"].gates,
    "BENCH_streaming.json": SUITES["streaming"].gates,
    "BENCH_suite.json": SUITES["multiseed"].gates,
}


class TestBaselineGates:
    BASELINES = REPO / "benchmarks" / "baselines"

    def test_every_baseline_is_pinned(self):
        assert sorted(p.name for p in self.BASELINES.glob("*.json")) == sorted(
            PINNED_GATES
        )

    @pytest.mark.parametrize("name", sorted(PINNED_GATES))
    def test_baseline_gates_are_unchanged(self, name):
        baseline = load_report(self.BASELINES / name)
        assert baseline["gates"] == PINNED_GATES[name]
        assert set(baseline["gates"]) <= set(baseline["totals"])
        # The declaring suite gates exactly these pairs on these totals.
        assert (
            resolve_gates(BASELINE_PRODUCERS[name], baseline["totals"])
            == PINNED_GATES[name]
        )


class TestCheckRegressionScript:
    """benchmarks/check_regression.py end to end, as CI invokes it."""

    SCRIPT = REPO / "benchmarks" / "check_regression.py"

    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, str(self.SCRIPT), *argv],
            capture_output=True,
            text=True,
        )

    def _reports(self, tmp_path):
        baseline = build_report(
            "computational_analysis",
            registry=_populated_registry(),
            epochs=_epochs(),
            gates=TRAIN_GATES,
        )
        base_path = write_report(baseline, tmp_path / "baseline.json")
        return baseline, base_path

    def test_exit_zero_on_match(self, tmp_path):
        baseline, base_path = self._reports(tmp_path)
        cur_path = write_report(baseline, tmp_path / "current.json")
        result = self._run("--baseline", str(base_path), "--current", str(cur_path))
        assert result.returncode == 0, result.stdout + result.stderr
        assert "perf-guard OK" in result.stdout

    def test_exit_one_on_regression(self, tmp_path):
        baseline, base_path = self._reports(tmp_path)
        slow = copy.deepcopy(baseline)
        for key in ("epoch_seconds", "epoch_seconds_mean", "op_seconds"):
            slow["totals"][key] *= 3.0
        cur_path = write_report(slow, tmp_path / "current.json")
        result = self._run("--baseline", str(base_path), "--current", str(cur_path))
        assert result.returncode == 1
        assert "PERF REGRESSION" in result.stdout

    def test_exit_one_when_gated_totals_are_missing(self, tmp_path):
        base_path = REPO / "benchmarks" / "baselines" / "BENCH_sparse.json"
        current = load_report(base_path)
        for key in ("sparse_speedup", "sparse_docs_per_sec", "sparse_sparse_seconds"):
            del current["totals"][key]
        cur_path = write_report(current, tmp_path / "current.json")
        result = self._run(
            "--threshold", "2.5", "--baseline", str(base_path), "--current", str(cur_path)
        )
        assert result.returncode == 1
        assert "PERF REGRESSION (3 failing total(s))" in result.stdout

    def test_exit_two_on_conflicting_gates(self, tmp_path):
        baseline, base_path = self._reports(tmp_path)
        flipped = copy.deepcopy(baseline)
        flipped["gates"]["docs_per_sec"] = "lower"
        cur_path = write_report(flipped, tmp_path / "current.json")
        result = self._run("--baseline", str(base_path), "--current", str(cur_path))
        assert result.returncode == 2

    def test_exit_two_on_missing_input(self, tmp_path):
        result = self._run(
            "--baseline", str(tmp_path / "nope.json"),
            "--current", str(tmp_path / "also-nope.json"),
        )
        assert result.returncode == 2

    def test_update_baseline_copies_current(self, tmp_path):
        baseline, _ = self._reports(tmp_path)
        cur_path = write_report(baseline, tmp_path / "current.json")
        new_base = tmp_path / "fresh" / "baseline.json"
        result = self._run(
            "--baseline", str(new_base),
            "--current", str(cur_path),
            "--update-baseline",
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert load_report(new_base)["name"] == "computational_analysis"

    def test_compare_mode_diffs_two_reports(self, tmp_path):
        """``--compare A B``: per-total deltas, exit 0, no pass/fail gate."""
        baseline, base_path = self._reports(tmp_path)
        other = copy.deepcopy(baseline)
        other["totals"]["epoch_seconds"] *= 2.0  # would fail the gate
        other["totals"]["only_in_b"] = 1.25
        del other["totals"]["op_seconds"]
        other_path = write_report(other, tmp_path / "other.json")

        result = self._run("--compare", str(base_path), str(other_path))
        assert result.returncode == 0, result.stdout + result.stderr
        assert "PERF REGRESSION" not in result.stdout
        lines = {
            line.split()[0]: line
            for line in result.stdout.splitlines()
            if line and not line.startswith(("compare:", " ", "-", "metric"))
        }
        assert "2.000x" in lines["epoch_seconds"]
        # keys missing on one side render as '-' instead of crashing
        assert "-" in lines["only_in_b"].split()
        assert "-" in lines["op_seconds"].split()

    def test_compare_mode_missing_report_exits_two(self, tmp_path):
        _, base_path = self._reports(tmp_path)
        result = self._run("--compare", str(base_path), str(tmp_path / "nope.json"))
        assert result.returncode == 2


class TestStreamingTotals:
    """The streaming suite's totals and the gates its reports carry."""

    @pytest.fixture(scope="class")
    def report(self):
        run = SUITES["streaming"].run(stream_slices=3, stream_docs=20)
        return SUITES["streaming"].report(run)

    def test_streaming_totals_roll_up(self, report):
        totals = report["totals"]
        assert totals["streaming_update_seconds"] > 0
        assert totals["streaming_speedup"] == pytest.approx(
            totals["streaming_recount_seconds"] / totals["streaming_update_seconds"]
        )
        assert totals["streaming_docs_per_sec"] == pytest.approx(
            60 / totals["streaming_update_seconds"]
        )
        assert totals["streaming_updates"] == 3
        assert totals["streaming_documents"] == 60
        assert totals["streaming_buffer_reuses"] == 2
        assert totals["streaming_delta_nnz"] > 0
        for key in ("npmi_cache_hits", "npmi_cache_misses", "npmi_cache_size"):
            assert key in totals

    def test_streaming_totals_are_gated(self, report):
        assert report["gates"] == {
            "streaming_buffer_reuses": "higher",
            "streaming_docs_per_sec": "higher",
            "streaming_speedup": "higher",
            "streaming_update_seconds": "lower",
        }

    def test_regression_guard_catches_streaming_slowdown(self, report):
        slow = copy.deepcopy(report)
        slow["totals"]["streaming_speedup"] = (
            report["totals"]["streaming_speedup"] / 10.0
        )
        failures, _ = compare_reports(report, slow, threshold=2.0)
        assert any("streaming_speedup" in f for f in failures)
