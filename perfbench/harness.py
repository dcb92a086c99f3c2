"""Pieces the three workloads share: set-up timing, the trainer, results.

Imports numpy through :mod:`repro`, so it is imported only after
:func:`machine.pin_environment` has run.
"""

from __future__ import annotations

import contextlib
import gc
import time
from dataclasses import dataclass, field

from repro.core.contratopic import ContraTopic, ContraTopicConfig
from repro.metrics.cooccurrence import clear_cooccurrence_cache
from repro.metrics.npmi import clear_npmi_cache
from repro.models import ETM, NTMConfig
from repro.objectives.base import ElboObjective
from repro.objectives.contrastive import TopicContrastiveObjective
from repro.telemetry.core import MetricsRegistry
from repro.telemetry.ophooks import profile_ops
from repro.training.trainer import Trainer

from machine import Usage
from tails import median

#: Training precision of every workload (the fast configuration).
DTYPE = "float32"
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Name of the span around a run's timed phase; per-unit layer figures
#: count only spans inside it.
PHASE = "phase"

#: Trainer stages the traced run times; every other stage of the batch
#: pipeline is summed into ``training.other_stages_s``.
MAIN_STAGES = ("compute_loss", "backward", "clip_gradients", "apply_step")
OTHER_STAGES = (
    "zero_grad",
    "dispatch_shard",
    "inject_loss_fault",
    "guard_loss",
    "reduce_gradients",
    "inject_gradient_fault",
    "guard_gradients",
)


def data_seed(seed: int, index: int) -> int:
    """A distinct data seed per set-up, derived from the workload seed."""
    return seed * 1009 + index


@dataclass
class Outcome:
    """What a workload hands back to the runner."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    report: list[str] = field(default_factory=list)
    #: ``(start, end)`` usage readings of every timed segment.
    usage: list = field(default_factory=list)
    #: ``profile_ops`` sink of the traced run's timed phase.
    ops: MetricsRegistry = field(default_factory=MetricsRegistry)

    def check(self, condition: bool, message: str) -> bool:
        if not condition:
            self.problems.append(message)
        return condition


def interleaved(outcome: "Outcome", tracer, seconds: float, setup, segment) -> list[float]:
    """Alternate :data:`SETUPS` set-ups with equal shares of the timed seconds.

    ``setup(index)`` builds one set-up's inputs; ``segment(inputs, deadline)``
    runs whole units on them until ``deadline``.  Interleaving spreads both
    the set-up samples and the timed units over the whole run, so a slow
    stretch of a shared host weighs on every metric alike instead of on
    whichever phase it happened to hit.  The content-addressed co-occurrence
    and NPMI caches are emptied before each set-up, so none reuses an
    earlier one's counts.  Returns the set-up seconds.
    """
    setup_seconds = []
    for index in range(SETUPS):
        clear_npmi_cache()
        clear_cooccurrence_cache()
        gc.collect()
        with tracer.span("setup"):
            start = time.perf_counter()
            inputs = setup(index)
            setup_seconds.append(time.perf_counter() - start)
        with timed_phase(outcome, tracer):
            segment(inputs, time.perf_counter() + seconds / SETUPS)
        del inputs
    return setup_seconds


@contextlib.contextmanager
def timed_phase(outcome: Outcome, tracer):
    """One timed segment: a full collection first, then a span around it,
    op profiling when traced, and the CPU/steal readings for the machine line.
    """
    gc.collect()
    with contextlib.ExitStack() as stack:
        stack.enter_context(tracer.span(PHASE))
        if tracer.enabled:
            stack.enter_context(profile_ops(outcome.ops))
        start = Usage.now()
        try:
            yield
        finally:
            outcome.usage.append((start, Usage.now()))


def contratopic(vocab_size, embeddings, kernel, *, topics, hidden, epochs, batch,
                lam, seed) -> ContraTopic:
    """ContraTopic over an ETM backbone with the paper's §V.D settings."""
    config = NTMConfig(
        num_topics=topics,
        hidden_sizes=hidden,
        epochs=epochs,
        batch_size=batch,
        learning_rate=2e-3,
        beta_temperature=0.1,
        seed=seed,
    )
    return ContraTopic(
        ETM(vocab_size, config, embeddings),
        kernel,
        ContraTopicConfig(
            lambda_weight=lam,
            num_sampled_words=10,
            gumbel_temperature=0.5,
            negative_weight=3.0,
        ),
    )


class _TimedBatches:
    """Times each wait for the next batch of a :class:`BatchIterator`."""

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer

    def batches_with_indices(self):
        batches = self._inner.batches_with_indices()
        while True:
            with self._tracer.span("stage.batch_wait"):
                item = next(batches, None)
            if item is None:
                return
            yield item


class TracedTrainer(Trainer):
    """The library trainer with a span around every pipeline stage, each
    wait for a batch and each epoch."""

    def __init__(self, spec=None, *, tracer, **kwargs):
        super().__init__(spec, **kwargs)
        self.tracer = tracer

    def train_epoch(self, model, state, batches):
        with self.tracer.span("trainer.epoch"):
            return super().train_epoch(model, state, _TimedBatches(batches, self.tracer))


def _stage(name: str):
    def stage(self, *args, **kwargs):
        with self.tracer.span("stage." + name):
            return getattr(Trainer, name)(self, *args, **kwargs)

    stage.__name__ = name
    return stage


for _name in MAIN_STAGES + OTHER_STAGES:
    setattr(TracedTrainer, _name, _stage(_name))


def trainer(tracer) -> Trainer:
    """A :class:`TracedTrainer` when tracing, else the plain library trainer.

    Both run the default ``RunSpec``, which has no guard: a step is never
    skipped, so a bad batch shows as a non-finite loss in the history.
    """
    return TracedTrainer(tracer=tracer) if tracer.enabled else Trainer()


def training_layers(tracer) -> dict[str, float]:
    """``training.*`` per-layer metrics of the timed phase.

    Stage figures are seconds per step.  A step is a ``compute_loss``
    call; a step that never reached ``apply_step`` was skipped.
    """
    steps = len(tracer.named("stage.compute_loss", within=PHASE))
    per_step = max(steps, 1)

    def stage(name: str) -> float:
        return tracer.total("stage." + name, within=PHASE)

    layers = {
        "training.batch_wait_s": stage("batch_wait") / per_step,
        "training.compute_loss_s": stage("compute_loss") / per_step,
        "training.backward_s": stage("backward") / per_step,
        "training.clip_s": stage("clip_gradients") / per_step,
        "training.step_s": stage("apply_step") / per_step,
        "training.other_stages_s": sum(stage(name) for name in OTHER_STAGES) / per_step,
        "training.steps": float(steps),
        "training.skipped_steps": float(
            steps - len(tracer.named("stage.apply_step", within=PHASE))
        ),
    }
    staged = sum(stage(name) for name in ("batch_wait",) + MAIN_STAGES + OTHER_STAGES)
    epochs = tracer.total("trainer.epoch", within=PHASE)
    layers["training.stage_coverage"] = staged / epochs if epochs > 0 else 0.0
    return layers


#: Grad-path calls the traced run wraps in ``train`` and ``online``.
OBJECTIVE_TARGETS = (
    (ContraTopic, "encode_theta", "objectives.encode"),
    (ContraTopic, "beta", "objectives.beta"),
    (ElboObjective, "term_on_batch", "objectives.elbo"),
    (TopicContrastiveObjective, "term_on_batch", "objectives.contrastive"),
)


def objective_layers(tracer, steps: float) -> dict[str, float]:
    """``objectives.*``: seconds per step of each wrapped grad-path call."""
    return {
        f"objectives.{name}_s": tracer.total(
            f"objectives.{name}", within=(PHASE, "stage.compute_loss")
        )
        / max(steps, 1)
        for name in ("encode", "beta", "elbo", "contrastive")
    }


def format_stage_table(tracer, steps: int) -> str:
    """The per-step stage breakdown of the timed phase against epoch time."""
    epochs = tracer.total("trainer.epoch", within=PHASE)
    rows = [f"{'stage':24s} {'ms/step':>9s} {'share of epoch':>15s}"]
    for name in ("batch_wait",) + MAIN_STAGES + OTHER_STAGES:
        total = tracer.total("stage." + name, within=PHASE)
        rows.append(
            f"{name:24s} {1000 * total / max(steps, 1):9.3f} "
            f"{(total / epochs if epochs else 0.0):15.1%}"
        )
    return "\n".join(rows)


#: Ops whose forward time is reported on its own.
NAMED_OPS = ("nll_from_mixture_csr", "matmul", "linear", "linear_csr", "batch_norm", "softmax")


def tensor_layers(registry: MetricsRegistry, units: int) -> dict[str, float]:
    """``tensor.*`` per-layer metrics from a ``profile_ops`` registry, per unit."""
    per = max(units, 1)
    forward = backward = calls = nbytes = 0.0
    named = {op: 0.0 for op in NAMED_OPS}
    for key, stat in registry.timers.items():
        if not key.startswith("op/"):
            continue
        op = key[3:]
        if op.endswith(".backward"):
            backward += stat.total_seconds
        else:
            forward += stat.total_seconds
            if op in named:
                named[op] = stat.total_seconds
    for key, counter in registry.counters.items():
        if key.startswith("op/") and key.endswith(".calls"):
            calls += counter.value
        elif key.startswith("op/") and key.endswith(".bytes"):
            nbytes += counter.value
    layers = {
        "tensor.op_s": forward / per,
        "tensor.op_backward_s": backward / per,
        "tensor.op_calls": calls / per,
        "tensor.op_bytes": nbytes / per,
    }
    layers.update({f"tensor.op.{op}_s": seconds / per for op, seconds in named.items()})
    return layers


def per_setup(tracer, name: str) -> float:
    """Median over set-ups of the time spent in spans called ``name``."""
    values = [
        sum(s.duration for s in tracer.named(name) if s.has_ancestor(setup))
        for setup in tracer.named("setup")
    ]
    return median(values) if values else 0.0


def setup_layers(tracer) -> dict[str, float]:
    """Set-up layer seconds, as the median per set-up like ``setup_s``."""
    return {
        name + "_s": per_setup(tracer, name)
        for name in ("data.generate", "embeddings.build", "metrics.npmi_build", "core.kernel_build")
    }
