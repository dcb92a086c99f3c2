"""Command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


def _run(argv) -> str:
    out = io.StringIO()
    code = main(argv, out=out)
    assert code == 0
    return out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--model", "bert"])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--dataset", "imdb"])

    def test_objective_choices(self):
        args = build_parser().parse_args(
            ["train", "--objective", "elbo", "--objective-weight", "2.5"]
        )
        assert args.objective == "elbo"
        assert args.objective_weight == 2.5
        for name in ("contrastive", "clntm", "coherence", "vicreg"):
            assert (
                build_parser().parse_args(["train", "--objective", name]).objective
                == name
            )

    def test_unknown_objective_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--objective", "dropout"])


class TestCommands:
    def test_datasets(self):
        output = _run(["datasets", "--scale", "0.08"])
        assert "20ng" in output and "nytimes" in output

    def test_train_reports_metrics(self):
        output = _run(
            [
                "train",
                "--dataset",
                "20ng",
                "--model",
                "etm",
                "--scale",
                "0.08",
                "--num-topics",
                "6",
                "--epochs",
                "2",
            ]
        )
        assert "coherence@100%" in output
        assert "km-purity@20" in output

    def test_train_with_objective_flag(self):
        output = _run(
            [
                "train",
                "--dataset",
                "20ng",
                "--model",
                "etm",
                "--scale",
                "0.08",
                "--num-topics",
                "6",
                "--epochs",
                "2",
                "--objective",
                "coherence",
            ]
        )
        assert "coherence@100%" in output

    def test_objective_rejected_for_non_neural_models(self):
        with pytest.raises(SystemExit, match="neural"):
            main(
                [
                    "train",
                    "--model",
                    "lda",
                    "--dataset",
                    "20ng",
                    "--scale",
                    "0.08",
                    "--num-topics",
                    "4",
                    "--objective",
                    "coherence",
                ],
                out=io.StringIO(),
            )

    def test_topics_prints_words(self):
        output = _run(
            [
                "topics",
                "--dataset",
                "20ng",
                "--model",
                "etm",
                "--scale",
                "0.08",
                "--num-topics",
                "6",
                "--epochs",
                "2",
                "--show",
                "3",
                "--num-words",
                "5",
            ]
        )
        lines = [l for l in output.splitlines() if l and not l.startswith("training")]
        assert len(lines) == 3
        assert all(len(line.split()) == 6 for line in lines)  # score + 5 words

    def test_train_evaluate_checkpoint_roundtrip(self, tmp_path):
        checkpoint = str(tmp_path / "etm.npz")
        train_out = _run(
            [
                "train",
                "--dataset",
                "20ng",
                "--model",
                "etm",
                "--scale",
                "0.08",
                "--num-topics",
                "6",
                "--epochs",
                "2",
                "--checkpoint",
                checkpoint,
            ]
        )
        assert "saved checkpoint" in train_out
        eval_out = _run(
            [
                "evaluate",
                "--dataset",
                "20ng",
                "--model",
                "etm",
                "--scale",
                "0.08",
                "--num-topics",
                "6",
                "--epochs",
                "2",
                "--checkpoint",
                checkpoint,
            ]
        )
        assert "loaded checkpoint" in eval_out
        assert "coherence@100%" in eval_out

        def metric(text, name):
            for line in text.splitlines():
                if line.startswith(name):
                    return float(line.split()[-1])
            raise AssertionError(name)

        # the evaluated checkpoint reproduces the training run's metrics
        assert metric(train_out, "coherence@100%") == pytest.approx(
            metric(eval_out, "coherence@100%"), abs=2e-3
        )

    def test_bench_writes_telemetry_report(self, tmp_path):
        from repro.telemetry import load_report, read_jsonl

        report_path = tmp_path / "BENCH_cli.json"
        jsonl_path = tmp_path / "run.jsonl"
        output = _run(
            [
                "bench",
                "--dataset",
                "20ng",
                "--model",
                "contratopic",
                "--scale",
                "0.08",
                "--num-topics",
                "6",
                "--epochs",
                "2",
                "--telemetry",
                str(report_path),
                "--jsonl",
                str(jsonl_path),
                "--profile-ops",
                "--name",
                "cli_smoke",
            ]
        )
        assert "wrote telemetry report" in output
        report = load_report(report_path)
        assert report["name"] == "cli_smoke"
        assert report["meta"]["profile_ops"] is True
        assert any(row["op"] == "matmul" for row in report["ops"])
        assert len(report["epochs"]) == 2
        assert report["totals"]["docs_per_sec"] > 0
        assert report["totals"]["op_calls"] > 0
        events = [r["event"] for r in read_jsonl(jsonl_path)]
        assert events[0] == "fit_start" and events[-1] == "fit_end"

    def test_bench_suite_ops_writes_report(self, tmp_path):
        from repro.telemetry import load_report
        from repro.tensor.fused import PROFILED_FUSED_OPS

        report_path = tmp_path / "BENCH_ops.json"
        output = _run(
            [
                "bench",
                "--suite",
                "ops",
                "--repeats",
                "2",
                "--dtype",
                "float32",
                "--telemetry",
                str(report_path),
            ]
        )
        assert "wrote telemetry report" in output
        report = load_report(report_path)
        assert report["meta"]["suite"] == "ops"
        assert report["meta"]["dtype"] == "float32"
        rows = {row["op"]: row for row in report["ops"]}
        for op in PROFILED_FUSED_OPS:
            assert rows[op]["calls"] >= 2
            assert rows[op]["backward_seconds"] > 0

    def test_dtype_flag_is_scoped_to_the_command(self):
        from repro.tensor import get_default_dtype

        before = get_default_dtype()
        output = _run(
            [
                "train",
                "--dataset",
                "20ng",
                "--model",
                "etm",
                "--scale",
                "0.08",
                "--num-topics",
                "6",
                "--epochs",
                "2",
                "--dtype",
                "float32",
            ]
        )
        assert "coherence@100%" in output
        assert get_default_dtype() == before

    def test_bench_rejects_non_neural_model(self, tmp_path):
        with pytest.raises(SystemExit, match="neural"):
            main(
                [
                    "bench",
                    "--dataset",
                    "20ng",
                    "--model",
                    "lda",
                    "--scale",
                    "0.08",
                    "--num-topics",
                    "4",
                    "--telemetry",
                    str(tmp_path / "x.json"),
                ],
                out=io.StringIO(),
            )

    def test_lda_checkpoint_skipped(self, tmp_path):
        output = _run(
            [
                "train",
                "--dataset",
                "20ng",
                "--model",
                "lda",
                "--scale",
                "0.08",
                "--num-topics",
                "4",
                "--checkpoint",
                str(tmp_path / "lda.npz"),
            ]
        )
        assert "checkpoint skipped" in output


class TestResilienceFlags:
    _base = [
        "--dataset",
        "20ng",
        "--scale",
        "0.08",
        "--num-topics",
        "6",
        "--epochs",
        "2",
    ]

    def test_train_checkpoint_dir_then_resume(self, tmp_path):
        ckpt_dir = tmp_path / "ckpt"
        _run(
            ["train", "--model", "etm", *self._base, "--checkpoint-dir", str(ckpt_dir)]
        )
        assert (ckpt_dir / "last.npz").exists()
        resume_out = _run(
            [
                "train",
                "--model",
                "etm",
                "--dataset",
                "20ng",
                "--scale",
                "0.08",
                "--num-topics",
                "6",
                "--epochs",
                "3",
                "--resume",
                str(ckpt_dir / "last.npz"),
            ]
        )
        assert "resuming" in resume_out
        assert "coherence@100%" in resume_out

    def test_resilience_flags_rejected_for_non_neural_models(self, tmp_path):
        with pytest.raises(SystemExit, match="neural"):
            main(
                [
                    "train",
                    "--model",
                    "lda",
                    "--dataset",
                    "20ng",
                    "--scale",
                    "0.08",
                    "--num-topics",
                    "4",
                    "--guard",
                ],
                out=io.StringIO(),
            )

    def test_bench_fault_injection_surfaces_guard_counters(self, tmp_path):
        from repro.telemetry import load_report

        report_path = tmp_path / "BENCH_faults.json"
        output = _run(
            [
                "bench",
                "--model",
                "contratopic",
                *self._base,
                "--guard",
                "--inject-nan",
                "1.0",
                "--telemetry",
                str(report_path),
            ]
        )
        assert "wrote telemetry report" in output
        report = load_report(report_path)
        counters = report["registry"]["counters"]
        assert counters["guard/faults"] > 0
        assert counters["guard/skipped_batches"] > 0
        assert report["totals"]["guard_faults"] > 0
        assert report["meta"]["inject_nan"] == 1.0

    def test_bench_interrupts_require_checkpoint_dir(self, tmp_path):
        with pytest.raises(SystemExit, match="checkpoint-dir"):
            main(
                [
                    "bench",
                    "--model",
                    "contratopic",
                    *self._base,
                    "--inject-interrupts",
                    "1",
                    "--telemetry",
                    str(tmp_path / "x.json"),
                ],
                out=io.StringIO(),
            )


class TestServeCommand:
    def test_serve_clean_run_writes_report(self, tmp_path):
        from repro.telemetry import load_report

        telemetry = tmp_path / "BENCH_serving.json"
        output = _run(
            [
                "serve",
                "--dataset", "20ng",
                "--scale", "0.08",
                "--num-topics", "6",
                "--epochs", "2",
                "--requests", "40",
                "--concurrency", "8",
                "--max-batch-size", "8",
                "--max-wait-ms", "1",
                "--telemetry", str(telemetry),
            ]
        )
        assert "all requests received well-formed responses" in output
        report = load_report(telemetry)
        totals = report["totals"]
        assert totals["serving_requests"] == 40
        assert totals["serving_p95_seconds"] >= totals["serving_p50_seconds"]
        assert report["meta"]["status_counts"]["ok"] == 40

    def test_serve_chaos_answers_every_request(self, tmp_path):
        telemetry = tmp_path / "BENCH_serving_chaos.json"
        output = _run(
            [
                "serve",
                "--dataset", "20ng",
                "--scale", "0.08",
                "--num-topics", "6",
                "--epochs", "2",
                "--requests", "60",
                "--concurrency", "8",
                "--max-batch-size", "8",
                "--max-wait-ms", "1",
                "--reload-every", "20",
                "--chaos-nan", "0.2",
                "--chaos-death", "0.1",
                "--chaos-corrupt-reloads", "1",
                "--faults-seed", "0",
                "--telemetry", str(telemetry),
            ]
        )
        assert "all requests received well-formed responses" in output
        from repro.telemetry import load_report

        meta = load_report(telemetry)["meta"]
        assert meta["chaos"] is True
        assert sum(meta["status_counts"].values()) == 60
        # The transient publication checkpoint is cleaned up afterwards.
        assert not list(tmp_path.glob("*.ckpt.npz"))
        # The serve report carries the serving gates.
        assert set(load_report(telemetry)["gates"]) >= {
            "serving_p99_seconds",
            "serving_requests_per_sec",
        }


_TINY_MODEL = ["--scale", "0.08", "--num-topics", "6", "--epochs", "1"]

#: Smallest flags that still run each registry suite end to end.
SUITE_ARGS = {
    "train": ["--model", "contratopic", *_TINY_MODEL],
    "ops": ["--repeats", "1", "--dtype", "float32"],
    "sparse": ["--repeats", "1"],
    "multiseed": [
        "--model", "etm", *_TINY_MODEL, "--num-seeds", "2", "--workers", "2",
        "--no-profile-ops",
    ],
    "ddp": ["--model", "contratopic", *_TINY_MODEL, "--ddp-legs", "1,3"],
    "streaming": ["--stream-slices", "3", "--stream-docs", "20"],
    "regularizers": [*_TINY_MODEL, "--num-seeds", "1", "--workers", "1"],
}


class TestBenchSuites:
    """Every ``bench --suite`` value runs through the one generic handler."""

    def test_every_suite_has_tiny_args(self):
        from repro.experiments.suites import SUITES

        assert sorted(SUITE_ARGS) == sorted(SUITES)

    @pytest.mark.parametrize("suite", sorted(SUITE_ARGS))
    def test_suite_writes_a_gated_report(self, suite, tmp_path):
        from repro.experiments.suites import SUITES
        from repro.telemetry import load_report

        path = tmp_path / f"BENCH_{suite}.json"
        output = _run(
            ["bench", "--suite", suite, *SUITE_ARGS[suite], "--telemetry", str(path)]
        )
        assert "wrote telemetry report" in output
        report = load_report(path)
        assert report["meta"]["suite"] == suite
        assert report["gates"], "a suite report must gate something"
        for key in report["gates"]:
            assert key in report["totals"], key
        assert set(report["gates"].values()) <= {"lower", "higher"}
        for key, direction in SUITES[suite].gates.items():
            if "*" not in key:
                assert report["gates"][key] == direction
        if suite == "ddp":
            # Gates follow the legs that ran, not a fixed 1/2/4 list.
            assert report["gates"]["ddp_speedup_w3"] == "higher"
            assert report["gates"]["ddp_wall_seconds_w3"] == "lower"
            assert not any(key.endswith(("_w2", "_w4")) for key in report["gates"])

    def test_streaming_counts_do_not_leak_across_runs(self, tmp_path):
        from repro.telemetry import load_report

        totals = []
        for i in range(2):
            path = tmp_path / f"BENCH_streaming_{i}.json"
            _run(
                [
                    "bench", "--suite", "streaming", "--stream-slices", "4",
                    "--stream-docs", "30", "--telemetry", str(path),
                ]
            )
            totals.append(load_report(path)["totals"])
        for key in ("streaming_updates", "streaming_buffer_reuses", "streaming_documents"):
            assert totals[0][key] == totals[1][key], key
        assert totals[1]["streaming_updates"] == 4
        assert totals[1]["streaming_buffer_reuses"] == 3

    def test_failed_suite_check_exits_non_zero(self, tmp_path):
        with pytest.raises(SystemExit, match="ddp-legs"):
            main(
                [
                    "bench", "--suite", "ddp", *_TINY_MODEL, "--ddp-legs", "one,two",
                    "--telemetry", str(tmp_path / "x.json"),
                ],
                out=io.StringIO(),
            )

    def test_ci_matrix_runs_every_suite(self):
        """The CI bench matrix lists every registry suite plus serving."""
        import re
        from pathlib import Path

        from repro.experiments.suites import SUITES

        repo = Path(__file__).resolve().parent.parent
        text = (repo / ".github" / "workflows" / "ci.yml").read_text()
        rows = re.findall(
            r"- suite: (\S+)\s+bench: (\S+)\s+report: (\S+)\s+threshold: \"([\d.]+)\"",
            text,
        )
        assert [row[0] for row in rows] == [*SUITES, "serving"]
        thresholds = {suite: float(threshold) for suite, _, _, threshold in rows}
        assert thresholds == {
            **{suite: 2.5 for suite in SUITES},
            "train": 2.0,
            "serving": 4.0,
        }
        for _, bench, report, _ in rows:
            assert (repo / "benchmarks" / bench).exists(), bench
            assert (repo / "benchmarks" / "baselines" / report).exists(), report
