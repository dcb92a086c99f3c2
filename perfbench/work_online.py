"""``online``: ``OnlineContraTopic.partial_fit`` over a drifting stream.

It runs the same training layers as ``train`` in another pattern: the
NPMI kernel is rewritten between reads.  ``StreamingNpmiEngine.update``
and ``SimilarityKernel.refresh`` work here and nowhere else.  A unit is
one slice, but a timed share only ever runs whole streams, at least
:data:`MIN_STREAMS` of them and more while its time lasts: each starts a
fresh online model on the first slice (5 epochs and a kernel build; later
slices train 3 epochs and refresh the kernel in place).  So ``coherence``
is always the 24th slice's, however fast the machine runs.
"""

from __future__ import annotations

import contextlib
import functools
import math
import statistics
import time

import repro.extensions.online as online_module
from repro.core.contratopic import ContraTopicConfig
from repro.core.similarity import SimilarityKernel
from repro.data.corpus import Corpus
from repro.data.theme_banks import THEME_BANKS
from repro.embeddings.store import build_embeddings
from repro.errors import ReproError
from repro.extensions.online import (
    DriftingStreamConfig,
    OnlineConfig,
    OnlineContraTopic,
    generate_drifting_stream,
)
from repro.metrics.streaming import StreamingNpmiEngine
from repro.models import ETM, NTMConfig
from repro.tensor import default_dtype

import harness
import spans
from tails import median, tail

SLICES = 24
DOCS_PER_SLICE = 200
#: The first 30 theme banks run from the start; the other 13 emerge at
#: slice 12, so the stream draws on all 43 and V is about 1,050.
BASE_THEMES = 30
EMERGE_AT = 12
FIRST_EPOCHS = 5
LATER_EPOCHS = 3
TOPICS = 20
BATCH = 100
LAMBDA = 40.0
EMBEDDING_DIM = 50
#: Whole streams each timed share runs at least, whatever its deadline.
MIN_STREAMS = 2


def _stream_config(seed: int) -> DriftingStreamConfig:
    themes = list(THEME_BANKS)
    return DriftingStreamConfig(
        base_themes=themes[:BASE_THEMES],
        emerging_themes=themes[BASE_THEMES:],
        emerge_at=EMERGE_AT,
        num_slices=SLICES,
        docs_per_slice=DOCS_PER_SLICE,
        average_length=50.0,
        seed=seed,
    )


def _online(vocab_size: int, embeddings) -> OnlineContraTopic:
    def backbone():
        config = NTMConfig(
            num_topics=TOPICS,
            hidden_sizes=(64,),
            epochs=FIRST_EPOCHS,
            batch_size=BATCH,
            learning_rate=2e-3,
            beta_temperature=0.1,
            seed=0,
        )
        return ETM(vocab_size, config, embeddings)

    return OnlineContraTopic(
        backbone,
        ContraTopicConfig(lambda_weight=LAMBDA, negative_weight=3.0),
        OnlineConfig(epochs_per_slice=LATER_EPOCHS),
    )


@contextlib.contextmanager
def _traced_trainers(tracer):
    """Have the online model build its trainers as :class:`harness.TracedTrainer`."""
    if not tracer.enabled:
        yield
        return
    original = online_module.Trainer
    online_module.Trainer = functools.partial(harness.TracedTrainer, tracer=tracer)
    try:
        yield
    finally:
        online_module.Trainer = original


def _recount_check(outcome: harness.Outcome, model: OnlineContraTopic, fed, label: str) -> bool:
    """The engine's counts equal one full recount of every slice it was fed."""
    recount = model.engine.recount_reference()
    recount.update(Corpus([doc for part in fed for doc in part.documents], fed[0].vocabulary))
    try:
        model.engine.check_against(recount)
    except ReproError as exc:
        outcome.problems.append(f"{label}: {exc}")
        return False
    return True


def run(seed: int, seconds: float, tracer) -> harness.Outcome:
    outcome = harness.Outcome()
    slice_ms: list[float] = []
    rates: list[float] = []
    finals: list[float] = []
    delta_nnz = 0
    streams = 0
    vocab = 0

    def setup(index: int):
        with tracer.span("data.generate"):
            slices, _, union = generate_drifting_stream(
                _stream_config(harness.data_seed(seed, index))
            )
        with tracer.span("embeddings.build"):
            embeddings = build_embeddings(union, dim=EMBEDDING_DIM).vectors
        _online(union.vocab_size, embeddings).partial_fit(slices[0])
        return slices, embeddings

    def segment(inputs, deadline: float) -> None:
        nonlocal streams, vocab, delta_nnz
        slices, embeddings = inputs
        vocab = slices[0].vocab_size
        doc_epochs = busy = 0.0
        share_finals = []
        while len(share_finals) < MIN_STREAMS or time.perf_counter() < deadline:
            model = _online(vocab, embeddings)
            streams += 1
            for index, part in enumerate(slices):
                outcome.attempted += 1
                start = time.perf_counter()
                with tracer.span("online.slice"):
                    result = model.partial_fit(part)
                elapsed = time.perf_counter() - start
                busy += elapsed
                slice_ms.append(1000.0 * elapsed)
                doc_epochs += len(part) * (LATER_EPOCHS if index else FIRST_EPOCHS)
                if not outcome.check(
                    math.isfinite(result.coherence),
                    f"stream {streams} slice {index}: coherence {result.coherence}",
                ):
                    outcome.failed += 1
            share_finals.append(result.coherence)
            delta_nnz += model.engine.stats["delta_nnz"]
            if not _recount_check(outcome, model, slices, f"stream {streams}"):
                outcome.failed += len(slices)
        rates.append(doc_epochs / busy)
        # One BLAS thread makes a stream deterministic per data seed.
        outcome.check(
            len(set(share_finals)) == 1,
            f"streams over one data seed ended at coherences {share_finals}",
        )
        finals.append(share_finals[0])

    targets = [
        *harness.OBJECTIVE_TARGETS,
        (StreamingNpmiEngine, "update", "metrics.stream_update"),
        (SimilarityKernel, "refresh", "core.kernel_refresh"),
        (online_module, "npmi_kernel", "core.kernel_build"),
    ]
    with default_dtype(harness.DTYPE), spans.patched(tracer, targets), _traced_trainers(tracer):
        setups = harness.interleaved(outcome, tracer, seconds, setup, segment)

    slice_tail = tail(slice_ms)
    outcome.metrics = {
        "setup_s": median(setups),
        "docs_per_s": median(rates),
        "p50_ms": median(slice_ms),
        "tail_ms": slice_tail.value,
        "coherence": statistics.fmean(finals),
    }
    outcome.report.append(
        f"online: V={vocab} streams={streams} slices={len(slice_ms)} "
        f"slice {slice_tail.describe('ms')} set-ups {[round(s, 3) for s in setups]} s"
    )
    if tracer.enabled:
        slice_count = max(len(slice_ms), 1)
        steps = len(tracer.named("stage.compute_loss", within=harness.PHASE))
        outcome.layers.update(harness.setup_layers(tracer))
        outcome.layers["metrics.npmi_build_s"] = harness.per_setup(tracer, "metrics.stream_update")
        outcome.layers.update(harness.training_layers(tracer))
        outcome.layers.update(harness.tensor_layers(outcome.ops, steps))
        outcome.layers.update(harness.objective_layers(tracer, steps))
        outcome.layers["metrics.stream_update_s"] = (
            tracer.total("metrics.stream_update", within=harness.PHASE) / slice_count
        )
        outcome.layers["metrics.stream_delta_nnz"] = delta_nnz / slice_count
        outcome.layers["core.kernel_refresh_s"] = (
            tracer.total("core.kernel_refresh", within=harness.PHASE) / slice_count
        )
        stats = spans.self_times(tracer.spans)["online.slice"]
        outcome.layers["online.slice_other_s"] = stats.self_time / stats.calls
        outcome.report.append("per-step stages (timed phase):")
        outcome.report.append(harness.format_stage_table(tracer, steps))
    return outcome
