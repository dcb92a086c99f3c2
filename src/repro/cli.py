"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``train``     Train any registry model on a dataset profile, report the
              §V.B metrics, optionally save a checkpoint.  ``--guard``
              enables the fault-tolerant runtime, ``--checkpoint-dir``
              writes periodic/best/last-good resumable checkpoints, and
              ``--resume`` continues an interrupted run
              bitwise-consistently.  ``--ddp-workers N`` trains
              data-parallel: every batch is sharded across N forked
              ranks with size-weighted gradient averaging
              (:mod:`repro.parallel.ddp`).
``evaluate``  Reload a checkpoint and re-score it on the test split.
``topics``    Train (or reload) and print the top topics with NPMI.
``datasets``  Print the Table-I statistics of the bundled profiles.
``serve``     Train (or reload) a model and drive the resilient online
              inference service (:mod:`repro.serving`) with the
              deterministic load generator: micro-batched
              transform/top-words/coherence traffic with deadlines, load
              shedding, retries, circuit breaking and checkpoint
              hot-reload with last-good rollback.  ``--chaos-*`` flags
              inject latency spikes, NaN outputs, worker death and
              corrupt checkpoint loads; the run fails unless **every**
              request received a well-formed response.  Writes a
              ``BENCH_serving``-style report (p50/p95/p99 latency,
              throughput) for the CI perf-guard.
``bench``     Run one bench suite and write its ``BENCH_*.json`` report.
              ``--suite`` picks an entry of the registry in
              :mod:`repro.experiments.suites` (train, ops, sparse,
              multiseed, ddp, streaming, regularizers); one generic
              handler passes each suite's ``run`` the flags it names.
              The default ``train`` suite trains with telemetry on
              (per-op timings — disable with ``--no-profile-ops`` —
              per-epoch throughput, ELBO-vs-contrastive loss split);
              the ``--inject-*`` flags drive the deterministic fault
              harness so recovery paths can be smoke-tested in CI.
              Every report carries its suite's ``gates``: the totals
              the CI perf-guard compares and the direction in which
              each is better.  A suite's checks (streaming exactness,
              multi-seed serial == parallel, the sparse loss gap) exit
              non-zero when they fail.

Every command accepts ``--dtype {float32,float64}`` to pick the training
precision (equivalent to the ``REPRO_DTYPE`` environment variable).

Examples
--------
::

    python -m repro datasets
    python -m repro train --dataset 20ng --model contratopic --epochs 30 \
        --guard --checkpoint-dir /tmp/ckpt --checkpoint /tmp/ct.npz
    python -m repro train --dataset 20ng --model contratopic --epochs 30 \
        --resume /tmp/ckpt/last.npz
    python -m repro evaluate --dataset 20ng --model contratopic \
        --checkpoint /tmp/ct.npz
    python -m repro topics --dataset yahoo --model etm --num-topics 20
    python -m repro bench --dataset 20ng --model contratopic --epochs 5 \
        --dtype float32 --telemetry out.json
    python -m repro bench --suite ops --telemetry BENCH_ops.json
    python -m repro bench --suite sparse --telemetry BENCH_sparse.json
    python -m repro bench --suite multiseed --dataset 20ng --scale 0.1 \
        --epochs 5 --num-seeds 5 --workers 4 --telemetry BENCH_suite.json
    python -m repro train --dataset 20ng --model contratopic --epochs 10 \
        --ddp-workers 4
    python -m repro bench --suite ddp --dataset 20ng --scale 0.1 \
        --epochs 3 --ddp-legs 1,2,4 --telemetry BENCH_ddp.json
    python -m repro bench --suite streaming --stream-slices 20 \
        --stream-docs 250 --telemetry BENCH_streaming.json
    python -m repro bench --dataset 20ng --model contratopic --epochs 3 \
        --guard --inject-nan 0.25 --inject-grad 0.1 --telemetry smoke.json
    python -m repro serve --dataset 20ng --scale 0.12 --epochs 3 \
        --requests 200 --telemetry BENCH_serving.json
    python -m repro serve --dataset 20ng --scale 0.12 --epochs 3 \
        --requests 300 --reload-every 50 --chaos-nan 0.1 \
        --chaos-death 0.05 --chaos-corrupt-reloads 2 \
        --telemetry BENCH_serving_chaos.json
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.experiments.context import ExperimentContext, ExperimentSettings
from repro.experiments.reporting import format_table
from repro.experiments.suites import SUITES
from repro.experiments.table1_stats import format_table1, run_table1
from repro.io import load_checkpoint, save_checkpoint
from repro.metrics.coherence import topic_npmi_scores
from repro.models.registry import available_models
from repro.objectives.registry import available_objectives
from repro.training.protocol import evaluate_model


def _settings_from_args(args: argparse.Namespace) -> ExperimentSettings:
    return ExperimentSettings(
        dataset=args.dataset,
        scale=args.scale,
        num_topics=args.num_topics,
        epochs=args.epochs,
        seeds=(args.seed,),
        lambda_weight=args.lambda_weight,
    )


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="20ng", choices=["20ng", "yahoo", "nytimes"])
    parser.add_argument("--model", default="contratopic", choices=available_models())
    parser.add_argument("--scale", type=float, default=0.3, help="corpus scale factor")
    parser.add_argument("--num-topics", type=int, default=40)
    parser.add_argument("--epochs", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--lambda-weight",
        type=float,
        default=None,
        help="regularizer weight λ (default: the dataset's calibrated value)",
    )
    parser.add_argument(
        "--objective",
        default=None,
        choices=["elbo", *available_objectives()],
        help="replace the model's own objective stack: 'elbo' trains the "
        "plain ELBO, any registry name adds that regularizer at its "
        "default (or --objective-weight) weight",
    )
    parser.add_argument(
        "--objective-weight",
        type=float,
        default=None,
        help="weight of the --objective term (default: the registry's "
        "calibrated value)",
    )
    parser.add_argument(
        "--dtype",
        default=None,
        choices=["float32", "float64"],
        help="training precision (default: REPRO_DTYPE or float64)",
    )


def _objectives_from_args(args: argparse.Namespace):
    """``--objective`` → the RunSpec ``objectives`` tuple (or None)."""
    objective = getattr(args, "objective", None)
    if objective == "elbo":
        return ()  # pure ELBO: an empty stack of extra terms
    if objective:
        from repro.objectives.registry import ObjectiveSpec

        return (
            ObjectiveSpec(objective, weight=getattr(args, "objective_weight", None)),
        )
    return None


def _run_spec(args: argparse.Namespace, model):
    """Translate the CLI's resilience flags into a declarative RunSpec."""
    from repro.models.base import NeuralTopicModel
    from repro.training.trainer import CheckpointSpec, RunSpec

    guard = None
    if getattr(args, "guard", False):
        from repro.training.resilience import GuardPolicy

        guard = GuardPolicy()
    checkpoint = None
    if getattr(args, "checkpoint_dir", None):
        checkpoint = CheckpointSpec(
            args.checkpoint_dir, every=getattr(args, "checkpoint_every", 1)
        )
    resume = getattr(args, "resume", None) or None
    ddp_workers = getattr(args, "ddp_workers", None)
    objectives = _objectives_from_args(args)
    is_neural = isinstance(model, NeuralTopicModel)
    if (
        guard or checkpoint or resume or ddp_workers or objectives is not None
    ) and not is_neural:
        raise SystemExit(
            "--guard/--resume/--checkpoint-dir/--ddp-workers/--objective "
            "require a neural model"
        )
    return RunSpec(
        model=model.config if is_neural else None,
        guard=guard,
        checkpoint=checkpoint,
        resume_from=resume,
        ddp_workers=ddp_workers,
        objectives=objectives,
    )


def _build_and_maybe_load(args: argparse.Namespace, out):
    context = ExperimentContext(_settings_from_args(args))
    model = context.build(args.model, seed=args.seed)
    if getattr(args, "checkpoint", None) and args.command == "evaluate":
        from repro.nn.module import Module

        if not isinstance(model, Module):
            raise SystemExit("--checkpoint requires a neural model")
        load_checkpoint(model, args.checkpoint)
        model._fitted = True
        model.eval()
        print(f"loaded checkpoint {args.checkpoint}", file=out)
    else:
        from repro.models.base import NeuralTopicModel
        from repro.training.trainer import Trainer

        spec = _run_spec(args, model)
        if spec.resume_from:
            print(
                f"resuming {args.model} on {args.dataset} "
                f"from {spec.resume_from}...",
                file=out,
            )
        else:
            print(f"training {args.model} on {args.dataset}...", file=out)
        if isinstance(model, NeuralTopicModel):
            Trainer(spec).fit(model, context.dataset.train)
        else:
            model.fit(context.dataset.train)
    return context, model


def _report(context, model, out) -> None:
    evaluation = evaluate_model(
        model,
        context.dataset.test,
        context.npmi_test,
        cluster_counts=(20,) if context.dataset.test.labels is not None else (),
    )
    rows = [
        ["coherence@10%", evaluation.coherence[0.1]],
        ["coherence@100%", evaluation.coherence[1.0]],
        ["diversity@10%", evaluation.diversity[0.1]],
        ["diversity@100%", evaluation.diversity[1.0]],
    ]
    if evaluation.km_purity:
        rows.append(["km-purity@20", evaluation.km_purity[20]])
        rows.append(["km-nmi@20", evaluation.km_nmi[20]])
    print(format_table(["metric", "value"], rows), file=out)


def _cmd_train(args: argparse.Namespace, out) -> int:
    context, model = _build_and_maybe_load(args, out)
    _report(context, model, out)
    if args.checkpoint:
        from repro.nn.module import Module

        if isinstance(model, Module):
            extra = {"model": args.model, "dataset": args.dataset}
            if getattr(model, "_trainer", None) is not None:
                # Full v2 checkpoint (optimizer + RNG streams + epoch) so
                # the file can seed a later --resume.
                from repro.training.resilience import save_training_checkpoint

                save_training_checkpoint(model, args.checkpoint, extra=extra)
            else:
                save_checkpoint(model, args.checkpoint, extra=extra)
            print(f"saved checkpoint to {args.checkpoint}", file=out)
        else:
            print("note: non-neural model, checkpoint skipped", file=out)
    return 0


def _cmd_evaluate(args: argparse.Namespace, out) -> int:
    context, model = _build_and_maybe_load(args, out)
    _report(context, model, out)
    return 0


def _cmd_topics(args: argparse.Namespace, out) -> int:
    context, model = _build_and_maybe_load(args, out)
    beta = model.topic_word_matrix()
    scores = topic_npmi_scores(beta, context.npmi_test)
    tops = model.top_words(context.dataset.train.vocabulary, args.num_words)
    order = np.argsort(-scores)[: args.show]
    for k in order:
        print(f"{scores[k]:+.3f}  {' '.join(tops[k])}", file=out)
    return 0


def _cmd_datasets(args: argparse.Namespace, out) -> int:
    print(format_table1(run_table1(scale=args.scale)), file=out)
    return 0


def _cmd_serve(args: argparse.Namespace, out) -> int:
    """``serve``: drive the resilient inference service under load.

    Trains (or reloads) a model, wraps it in a hot-loadable registry
    behind the micro-batching front door, replays a deterministic mixed
    request stream — optionally under injected chaos and checkpoint
    hot-reloads — and writes a perf-guard-compatible report.  Exits
    non-zero if any request went unanswered: under every fault the
    harness can inject, 100% of requests must receive a well-formed
    response (ok / degraded / timeout / shed / error).
    """
    from pathlib import Path

    from repro.models.base import NeuralTopicModel
    from repro.serving import (
        InferenceService,
        LoadProfile,
        ModelRegistry,
        build_requests,
        run_load,
        serving_config,
        serving_report,
    )
    from repro.telemetry import MetricsRegistry, write_report

    context = ExperimentContext(_settings_from_args(args))
    model = context.build(args.model, seed=args.seed)
    if not isinstance(model, NeuralTopicModel):
        raise SystemExit("serve requires a neural model (checkpointable)")
    if args.checkpoint:
        load_checkpoint(model, args.checkpoint)
        model._fitted = True
        model.eval()
        print(f"loaded checkpoint {args.checkpoint}", file=out)
    else:
        print(f"training {args.model} on {args.dataset}...", file=out)
        model.fit(context.dataset.train)
        model.eval()

    faults = None
    if (
        args.chaos_latency
        or args.chaos_nan
        or args.chaos_death
        or args.chaos_corrupt_reloads
    ):
        from repro.training.faults import FaultInjector, FaultPlan

        faults = FaultInjector(
            FaultPlan(
                serve_latency_rate=args.chaos_latency,
                serve_latency_seconds=args.chaos_latency_ms / 1000.0,
                serve_nan_rate=args.chaos_nan,
                serve_death_rate=args.chaos_death,
                corrupt_checkpoint_loads=tuple(
                    range(args.chaos_corrupt_reloads)
                ),
                seed=args.faults_seed,
            )
        )

    corpus = context.dataset.train
    build = context.factory(args.model)
    registry = ModelRegistry(
        model,
        factory=lambda: build(args.seed),
        probe_corpus=_probe_corpus(corpus, 4),
        faults=faults,
    )
    metrics = MetricsRegistry()
    overrides = {
        key: value
        for key, value in (
            ("max_batch_size", args.max_batch_size),
            ("max_wait_ms", args.max_wait_ms),
            ("queue_capacity", args.queue_capacity),
            ("deadline_ms", args.deadline_ms),
            ("breaker_threshold", args.breaker_threshold),
        )
        if value is not None
    }
    with serving_config(**overrides) as config:
        service = InferenceService(
            registry,
            corpus.vocabulary,
            config=config,
            metrics=metrics,
            faults=faults,
            npmi_matrix=context.npmi_test,
        )
        profile = LoadProfile(
            num_requests=args.requests,
            concurrency=args.concurrency,
            seed=args.seed,
        )
        requests = build_requests(corpus, profile)

        reload_hook = None
        ckpt_path = None
        if args.reload_every:
            # Live publication loop: each cycle re-saves a fresh (good)
            # checkpoint and hot-loads it, so a corrupt-load chaos plan
            # rolls back and a later clean cycle recovers.
            ckpt_path = Path(args.telemetry).with_suffix(".ckpt.npz")
            save_checkpoint(model, ckpt_path)

            def reload_hook() -> None:
                save_checkpoint(model, ckpt_path)
                registry.load(ckpt_path)

        print(
            f"serving {args.requests} requests "
            f"(concurrency {args.concurrency}, "
            f"batch<= {config.max_batch_size}, wait {config.max_wait_ms}ms, "
            f"chaos={'on' if faults else 'off'})...",
            file=out,
        )
        report = run_load(
            service,
            requests,
            concurrency=args.concurrency,
            reload_every=args.reload_every,
            reload_hook=reload_hook,
        )
    if ckpt_path is not None and ckpt_path.exists():
        ckpt_path.unlink()

    summary = report.summary()
    rows = [[key, f"{value}"] for key, value in summary.items()
            if not isinstance(value, dict)]
    rows += [[f"status.{k}", str(v)] for k, v in report.status_counts.items()]
    print(format_table(["metric", "value"], rows), file=out)
    bench = serving_report(
        report,
        args.name or "serving",
        registry=metrics,
        meta={
            "dataset": args.dataset,
            "model": args.model,
            "scale": args.scale,
            "requests": args.requests,
            "concurrency": args.concurrency,
            "reload_every": args.reload_every,
            "chaos": bool(faults),
            "fault_counts": dict(faults.counts) if faults else {},
            "summary": {
                k: v for k, v in summary.items() if not isinstance(v, dict)
            },
            "status_counts": report.status_counts,
        },
    )
    path = write_report(bench, args.telemetry)
    print(f"wrote telemetry report to {path}", file=out)
    if report.unanswered:
        raise SystemExit(
            f"{report.unanswered} request(s) received no response — the "
            "serving layer must answer every admitted request"
        )
    print("all requests received well-formed responses", file=out)
    return 0


def _probe_corpus(corpus, n: int):
    """First-``n``-document probe corpus for registry load validation."""
    from repro.data.corpus import Corpus

    return Corpus(corpus.documents[:n], corpus.vocabulary)


def _cmd_bench(args: argparse.Namespace, out) -> int:
    """``bench --suite <name>``: run one registry suite, write its report.

    The suite's ``run`` receives the parsed flags it names as parameters
    (plus ``settings`` and ``objectives`` derived from them); its report
    carries the suite's gates for the CI perf-guard.
    """
    import inspect

    from repro.errors import ConfigError
    from repro.experiments.suites import SuiteCheckError
    from repro.telemetry import format_report, write_report

    suite = SUITES[args.suite]
    available = {
        **vars(args),
        "settings": _settings_from_args(args),
        "objectives": _objectives_from_args(args),
    }
    wanted = inspect.signature(suite.run).parameters
    print(f"bench suite {suite.name}: {suite.help}...", file=out)
    try:
        run = suite.run(**{k: available[k] for k in wanted if k in available})
    except (ConfigError, SuiteCheckError) as error:
        raise SystemExit(f"bench --suite {suite.name}: {error}") from None
    report = suite.report(run, args.name)
    path = write_report(report, args.telemetry)
    if run.text:
        print(run.text, file=out)
    print(format_report(report), file=out)
    print(f"wrote telemetry report to {path}", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a model and report metrics")
    _add_model_arguments(train)
    train.add_argument("--checkpoint", default=None, help="save parameters here")
    train.add_argument(
        "--checkpoint-dir",
        default=None,
        help="write periodic last/best/last-good resumable checkpoints here",
    )
    train.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        help="epochs between periodic checkpoints (default: 1)",
    )
    train.add_argument(
        "--resume",
        default=None,
        help="resume training from a v2 checkpoint (e.g. <dir>/last.npz)",
    )
    train.add_argument(
        "--guard",
        action="store_true",
        help="enable NaN/divergence guards (skip/backoff/restore/degrade)",
    )
    train.add_argument(
        "--ddp-workers",
        type=int,
        default=None,
        help="data-parallel ranks per batch (1 = exact serial path; "
        "N shards every batch across N forked ranks with size-weighted "
        "gradient averaging)",
    )

    evaluate = sub.add_parser("evaluate", help="evaluate a saved checkpoint")
    _add_model_arguments(evaluate)
    evaluate.add_argument("--checkpoint", required=True)

    topics = sub.add_parser("topics", help="print top topics")
    _add_model_arguments(topics)
    topics.add_argument("--num-words", type=int, default=8)
    topics.add_argument("--show", type=int, default=10)
    topics.add_argument("--checkpoint", default=None)

    datasets = sub.add_parser("datasets", help="print Table-I statistics")
    datasets.add_argument("--scale", type=float, default=0.3)

    serve = sub.add_parser(
        "serve",
        help="drive the resilient online inference service under load",
    )
    _add_model_arguments(serve)
    serve.add_argument(
        "--checkpoint", default=None, help="serve this checkpoint instead of training"
    )
    serve.add_argument(
        "--requests", type=int, default=200, help="load-generator request count"
    )
    serve.add_argument(
        "--concurrency", type=int, default=32, help="in-flight request bound"
    )
    serve.add_argument(
        "--telemetry", required=True, help="path for the BENCH_serving report"
    )
    serve.add_argument("--name", default=None, help="report name (default: serving)")
    serve.add_argument(
        "--reload-every",
        type=int,
        default=0,
        metavar="N",
        help="hot-reload a freshly published checkpoint every N requests",
    )
    serve.add_argument(
        "--max-batch-size", type=int, default=None, help="micro-batch coalescing bound"
    )
    serve.add_argument(
        "--max-wait-ms", type=float, default=None, help="micro-batch coalescing window"
    )
    serve.add_argument(
        "--queue-capacity", type=int, default=None, help="admission queue hard bound"
    )
    serve.add_argument(
        "--deadline-ms", type=float, default=None, help="per-request deadline"
    )
    serve.add_argument(
        "--breaker-threshold",
        type=int,
        default=None,
        help="consecutive model faults that trip the circuit breaker",
    )
    serve.add_argument(
        "--chaos-latency",
        type=float,
        default=0.0,
        metavar="RATE",
        help="chaos: per-batch probability of an injected latency spike",
    )
    serve.add_argument(
        "--chaos-latency-ms",
        type=float,
        default=50.0,
        help="chaos: duration of each injected latency spike",
    )
    serve.add_argument(
        "--chaos-nan",
        type=float,
        default=0.0,
        metavar="RATE",
        help="chaos: per-batch probability of NaN model outputs",
    )
    serve.add_argument(
        "--chaos-death",
        type=float,
        default=0.0,
        metavar="RATE",
        help="chaos: per-batch probability of worker death mid-batch",
    )
    serve.add_argument(
        "--chaos-corrupt-reloads",
        type=int,
        default=0,
        metavar="N",
        help="chaos: corrupt the first N checkpoint hot-loads on disk",
    )
    serve.add_argument(
        "--faults-seed",
        type=int,
        default=0,
        help="seed of the deterministic chaos injector (default: 0)",
    )

    bench = sub.add_parser(
        "bench", help="train with telemetry and write a BENCH_*.json report"
    )
    _add_model_arguments(bench)
    bench.add_argument(
        "--suite",
        default="train",
        choices=list(SUITES),
        help="; ".join(f"'{name}': {suite.help}" for name, suite in SUITES.items()),
    )
    bench.add_argument(
        "--backbone",
        default="etm",
        help="--suite regularizers: backbone every objective trains on "
        "(default: etm)",
    )
    bench.add_argument(
        "--ddp-workers",
        type=int,
        default=None,
        help="--suite train: run the benchmarked fit data-parallel "
        "with this many ranks",
    )
    bench.add_argument(
        "--ddp-legs",
        default="1,2,4",
        metavar="N,N,...",
        help="--suite ddp: comma-separated worker counts to train and "
        "compare (default: 1,2,4)",
    )
    bench.add_argument(
        "--workers",
        type=int,
        default=None,
        help="--suite multiseed/regularizers: worker processes of the "
        "parallel seed fan-out (default: REPRO_WORKERS or the CPU count)",
    )
    bench.add_argument(
        "--stream-slices",
        type=int,
        default=20,
        help="--suite streaming: time slices in the drift profile "
        "(default: 20)",
    )
    bench.add_argument(
        "--stream-docs",
        type=int,
        default=250,
        help="--suite streaming: documents per slice (default: 250)",
    )
    bench.add_argument(
        "--num-seeds",
        type=int,
        default=5,
        help="--suite multiseed/regularizers: how many seeds to evaluate "
        "(default: 5)",
    )
    bench.add_argument(
        "--telemetry", required=True, help="path for the BENCH_*.json report"
    )
    bench.add_argument(
        "--jsonl", default=None, help="also stream per-epoch records here"
    )
    bench.add_argument(
        "--profile-ops",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="op-level autodiff profiling (per-op tables; on by default)",
    )
    bench.add_argument(
        "--repeats",
        type=int,
        default=20,
        help="--suite ops/sparse: timed forward+backward repetitions",
    )
    bench.add_argument("--name", default=None, help="report name (default: model_dataset)")
    bench.add_argument(
        "--guard",
        action="store_true",
        help="enable NaN/divergence guards during the benchmarked run",
    )
    bench.add_argument(
        "--checkpoint-dir",
        default=None,
        help="also write resumable checkpoints (required by --inject-interrupts)",
    )
    bench.add_argument(
        "--inject-nan",
        type=float,
        default=0.0,
        metavar="RATE",
        help="fault harness: per-batch probability of a NaN loss",
    )
    bench.add_argument(
        "--inject-grad",
        type=float,
        default=0.0,
        metavar="RATE",
        help="fault harness: per-batch probability of exploding gradients",
    )
    bench.add_argument(
        "--inject-interrupts",
        type=int,
        default=0,
        metavar="N",
        help="fault harness: interrupt the first N checkpoint commits",
    )
    bench.add_argument(
        "--faults-seed",
        type=int,
        default=0,
        help="seed of the deterministic fault injector (default: 0)",
    )
    return parser


def main(argv: list[str] | None = None, out=sys.stdout) -> int:
    import contextlib

    args = build_parser().parse_args(argv)
    handlers = {
        "train": _cmd_train,
        "evaluate": _cmd_evaluate,
        "topics": _cmd_topics,
        "datasets": _cmd_datasets,
        "serve": _cmd_serve,
        "bench": _cmd_bench,
    }
    precision = contextlib.nullcontext()
    if getattr(args, "dtype", None):
        from repro.tensor import default_dtype

        precision = default_dtype(args.dtype)
    with precision:
        return handlers[args.command](args, out)


if __name__ == "__main__":
    raise SystemExit(main())
