"""``train``: serial ContraTopic fits on the NYTimes profile.

This is the paper's model and its main cost.  ``repro.training``,
``repro.objectives`` and ``repro.tensor`` do most of their work here;
streaming NPMI and serving do none.  A unit is one 20-epoch fit followed
by ``evaluate_model`` on the test split.
"""

from __future__ import annotations

import math
import time

from repro.core.contratopic import ContraTopic
from repro.core.similarity import npmi_kernel
from repro.data.datasets import load_dataset
from repro.embeddings.store import build_embeddings
from repro.metrics.npmi import compute_npmi_matrix
from repro.tensor import default_dtype
from repro.training.protocol import evaluate_model

import harness
import spans
from tails import median, tail

SCALE = 1.0
TOPICS = 50
BATCH = 200
EPOCHS = 20
LAMBDA = 300.0
HIDDEN = (64,)
EMBEDDING_DIM = 50


def _model(inputs, seed: int, epochs: int) -> ContraTopic:
    dataset, embeddings, _, kernel = inputs
    return harness.contratopic(
        dataset.vocab_size,
        embeddings.vectors,
        kernel,
        topics=TOPICS,
        hidden=HIDDEN,
        epochs=epochs,
        batch=BATCH,
        lam=LAMBDA,
        seed=seed,
    )


def run(seed: int, seconds: float, tracer) -> harness.Outcome:
    outcome = harness.Outcome()
    epochs: list[float] = []
    coherences: list[float] = []
    rates: list[float] = []
    docs = vocab = 0

    def setup(index: int):
        with tracer.span("data.generate"):
            dataset = load_dataset("nytimes", scale=SCALE, seed=harness.data_seed(seed, index))
        with tracer.span("embeddings.build"):
            embeddings = build_embeddings(dataset.train, dim=EMBEDDING_DIM)
        with tracer.span("metrics.npmi_build"):
            npmi_test = compute_npmi_matrix(dataset.test)
            npmi_train = compute_npmi_matrix(dataset.train)
        with tracer.span("core.kernel_build"):
            kernel = npmi_kernel(npmi_train, temperature=0.25)
        inputs = (dataset, embeddings, npmi_test, kernel)
        harness.trainer(tracer).fit(_model(inputs, seed=index, epochs=1), dataset.train)
        return inputs

    def segment(inputs, deadline: float) -> None:
        nonlocal docs, vocab
        dataset, _, npmi_test, _ = inputs
        docs, vocab = len(dataset.train), dataset.vocab_size
        while time.perf_counter() < deadline:
            fit_seed = 100 + outcome.attempted
            outcome.attempted += 1
            start = time.perf_counter()
            model = harness.trainer(tracer).fit(
                _model(inputs, seed=fit_seed, epochs=EPOCHS), dataset.train
            )
            with tracer.span("metrics.eval"):
                evaluation = evaluate_model(model, dataset.test, npmi_test)
            rates.append(docs * len(model.history) / (time.perf_counter() - start))
            epochs.extend(h["epoch_seconds"] for h in model.history)
            coherence = evaluation.coherence[0.1]
            coherences.append(coherence)
            # Each epoch's loss is its batches' mean, so one non-finite
            # batch makes it non-finite; with no guard no step is skipped.
            checks = [
                outcome.check(
                    len(model.history) == EPOCHS
                    and all(math.isfinite(h["total"]) for h in model.history),
                    f"fit {fit_seed}: non-finite loss",
                ),
                outcome.check(math.isfinite(coherence), f"fit {fit_seed}: coherence {coherence}"),
            ]
            outcome.failed += not all(checks)

    with default_dtype(harness.DTYPE), spans.patched(tracer, harness.OBJECTIVE_TARGETS):
        setups = harness.interleaved(outcome, tracer, seconds, setup, segment)

    epoch_ms = [1000.0 * s for s in epochs]
    epoch_tail = tail(epoch_ms)
    outcome.metrics = {
        "setup_s": median(setups),
        "docs_per_s": median(rates),
        "p50_ms": median(epoch_ms),
        "tail_ms": epoch_tail.value,
        "coherence": median(coherences),
    }
    outcome.report.append(
        f"train: V={vocab} docs={docs} K={TOPICS} fits={outcome.attempted} "
        f"epochs={len(epochs)} epoch {epoch_tail.describe('ms')} "
        f"set-ups {[round(s, 3) for s in setups]} s"
    )
    if tracer.enabled:
        outcome.layers.update(harness.setup_layers(tracer))
        outcome.layers.update(harness.training_layers(tracer))
        steps = outcome.layers["training.steps"]
        outcome.layers.update(harness.tensor_layers(outcome.ops, steps))
        outcome.layers.update(harness.objective_layers(tracer, steps))
        evals = tracer.named("metrics.eval", within=harness.PHASE)
        outcome.layers["metrics.eval_s"] = median([s.duration for s in evals])
        outcome.report.append("per-step stages (timed phase):")
        outcome.report.append(harness.format_stage_table(tracer, steps))
    return outcome
