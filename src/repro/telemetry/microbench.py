"""Deterministic microbenchmark of the fused autodiff kernels.

``repro bench --suite ops`` runs every kernel in
:data:`repro.tensor.fused.PROFILED_FUSED_OPS` — forward *and* backward —
on fixed, seeded shapes under :func:`~repro.telemetry.ophooks.profile_ops`
and reports the resulting per-op table.  Because the shapes and inputs
are pinned, two reports produced on the same machine are directly
comparable and CI can guard the kernels against timing regressions
individually, not just through end-to-end training throughput.

Shapes mirror the training hot path of the paper's configuration: a
mini-batch of documents through an encoder layer (``linear``,
``batch_norm``, activations), the softmax family over a vocabulary-sized
axis, and the fused ELBO terms over (batch, vocab) count matrices.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry.core import MetricsRegistry
from repro.telemetry.ophooks import profile_ops
from repro.tensor import fused
from repro.tensor.dtypes import default_dtype, get_default_dtype, resolve_dtype
from repro.tensor.sparse import CSRBatch
from repro.tensor.tensor import Tensor

#: Fixed case shapes (documents per batch, encoder width, topics, vocab).
BATCH = 64
HIDDEN = 256
TOPICS = 50
VOCAB = 2000

#: Nonzero fraction of the synthetic CSR bow used by the ``*_csr`` cases
#: (matches the ≥95%-sparse corpora the fast path targets).
SPARSE_CASE_DENSITY = 0.05

#: Default number of timed forward+backward repetitions per op.
DEFAULT_REPEATS = 20


def _cases(rng: np.random.Generator, dt: np.dtype) -> list[tuple[str, callable]]:
    """One ``(label, thunk)`` per fused op; each thunk runs fwd + bwd."""

    def t(shape, scale=1.0):
        return Tensor(
            (rng.standard_normal(shape) * scale).astype(dt), requires_grad=True
        )

    bow_topics = rng.integers(0, 5, size=(BATCH, TOPICS)).astype(dt)
    bow_vocab = rng.integers(0, 3, size=(BATCH, VOCAB)).astype(dt)
    # A ≥95%-sparse (batch, vocab) count matrix for the CSR kernel cases.
    bow_sparse = np.where(
        rng.random((BATCH, VOCAB)) < SPARSE_CASE_DENSITY,
        rng.integers(1, 4, size=(BATCH, VOCAB)),
        0,
    ).astype(dt)
    bow_csr = CSRBatch.from_dense(bow_sparse)

    def linear():
        fused.linear(t((BATCH, HIDDEN)), t((TOPICS, HIDDEN)), t(TOPICS)).sum().backward()

    def linear_csr():
        fused.linear_csr(bow_csr, t((HIDDEN, VOCAB)), t(HIDDEN)).sum().backward()

    def softmax():
        fused.softmax(t((BATCH, VOCAB)), axis=1).max(axis=1).sum().backward()

    def log_softmax():
        fused.log_softmax(t((BATCH, VOCAB)), axis=1).mean().backward()

    def logsumexp():
        fused.logsumexp(t((BATCH, VOCAB)), axis=1).sum().backward()

    def sigmoid():
        fused.sigmoid(t((BATCH, HIDDEN))).sum().backward()

    def softplus():
        fused.softplus(t((BATCH, HIDDEN))).sum().backward()

    def nll_from_probs():
        probs = fused.softmax(t((BATCH, VOCAB)), axis=1)
        fused.nll_from_probs(probs, bow_vocab).backward()

    def nll_from_probs_csr():
        probs = fused.softmax(t((BATCH, VOCAB)), axis=1)
        fused.nll_from_probs_csr(probs, bow_csr).backward()

    def log_softmax_nll():
        fused.log_softmax_nll(t((BATCH, VOCAB)), bow_vocab).backward()

    def log_softmax_nll_csr():
        fused.log_softmax_nll_csr(t((BATCH, VOCAB)), bow_csr).backward()

    def nll_from_mixture_csr():
        theta = fused.softmax(t((BATCH, TOPICS)), axis=1)
        beta = fused.softmax(t((TOPICS, VOCAB)), axis=1)
        fused.nll_from_mixture_csr(theta, beta, bow_csr).backward()

    def kl_normal_standard():
        fused.kl_normal_standard(t((BATCH, TOPICS)), t((BATCH, TOPICS), 0.1)).backward()

    def batch_norm():
        fused.batch_norm(
            t((BATCH, HIDDEN)),
            running_mean=np.zeros(HIDDEN, dtype=dt),
            running_var=np.ones(HIDDEN, dtype=dt),
            weight=t(HIDDEN, 0.1),
            bias=t(HIDDEN, 0.1),
            training=True,
        ).sum().backward()

    cases = [
        ("linear", linear),
        ("linear_csr", linear_csr),
        ("softmax", softmax),
        ("log_softmax", log_softmax),
        ("logsumexp", logsumexp),
        ("sigmoid", sigmoid),
        ("softplus", softplus),
        ("nll_from_probs", nll_from_probs),
        ("nll_from_probs_csr", nll_from_probs_csr),
        ("nll_from_mixture_csr", nll_from_mixture_csr),
        ("log_softmax_nll", log_softmax_nll),
        ("log_softmax_nll_csr", log_softmax_nll_csr),
        ("kl_normal_standard", kl_normal_standard),
        ("batch_norm", batch_norm),
    ]
    missing = set(fused.PROFILED_FUSED_OPS) - {name for name, _ in cases}
    if missing:  # a new kernel must get a case before it ships
        raise AssertionError(f"fused ops without a microbench case: {sorted(missing)}")
    return cases


def run_ops_microbench(
    registry: MetricsRegistry | None = None,
    repeats: int = DEFAULT_REPEATS,
    dtype: str | np.dtype | None = None,
    seed: int = 0,
) -> MetricsRegistry:
    """Time every fused kernel's forward+backward on fixed seeded inputs.

    Parameters
    ----------
    registry:
        Sink for the ``op/*`` metrics (a fresh one is created if omitted).
    repeats:
        Timed repetitions per op (each repetition is one forward and one
        full backward on freshly built inputs).
    dtype:
        ``"float32"``/``"float64"``; defaults to the process default.
    seed:
        Seed of the input generator; fixed inputs make reports comparable.

    Returns
    -------
    The registry holding one ``op/<name>`` timer row per fused kernel.
    """
    registry = registry if registry is not None else MetricsRegistry()
    dt = resolve_dtype(dtype) if dtype is not None else get_default_dtype()
    with default_dtype(dt):
        cases = _cases(np.random.default_rng(seed), dt)
        for _, thunk in cases:  # warm-up: exclude first-call costs
            thunk()
        with profile_ops(registry):
            for _ in range(repeats):
                for _, thunk in cases:
                    thunk()
    registry.count("microbench/repeats", repeats, absolute=True)
    return registry


# ----------------------------------------------------------------------
# sparse-vs-dense fast-path benchmark (``repro bench --suite sparse``)
# ----------------------------------------------------------------------

#: Profile of the sparse suite: 10× the ops-bench vocabulary, 8× the
#: batch (the paper trains with batches of 1000 documents), and a
#: ≥99%-sparse count matrix — the regime real bag-of-words corpora live
#: in and where the CSR kernels earn their integer-multiple speedup.
SPARSE_BATCH = 512
SPARSE_VOCAB = 20000
SPARSE_HIDDEN = 256
SPARSE_TOPICS = 50
SPARSE_PROFILE_DENSITY = 0.005

#: Default timed repetitions per leg of the sparse suite (each repetition
#: is a full forward + backward of the training hot path).
DEFAULT_SPARSE_REPEATS = 10


def run_sparse_microbench(
    registry: MetricsRegistry | None = None,
    repeats: int = DEFAULT_SPARSE_REPEATS,
    dtype: str | np.dtype | None = None,
    seed: int = 0,
    batch: int = SPARSE_BATCH,
    vocab: int = SPARSE_VOCAB,
    density: float = SPARSE_PROFILE_DENSITY,
) -> MetricsRegistry:
    """Time the training hot path dense vs CSR on the same synthetic bow.

    Both legs run the identical computation — encoder linear (V→H),
    sigmoid, topic head (H→K), softmax θ, mixture decode ``θ @ β`` and the
    count-weighted NLL, forward **and** backward — differing only in the
    bag-of-words operand: a dense ``(batch, vocab)`` matrix on the
    reference leg, the equivalent :class:`~repro.tensor.sparse.CSRBatch`
    on the fast-path leg (the fused kernels dispatch on operand type,
    exactly as training does).

    Records into ``registry``:

    - timer ``sparse/dense`` — dense leg wall-clock over all repetitions,
    - timer ``sparse/sparse`` — CSR leg wall-clock,
    - counter ``sparse/docs`` — documents pushed through each leg (for
      docs/sec),
    - counter ``sparse/loss_gap`` — ``|dense loss − sparse loss|`` of the
      final repetition (an equivalence tripwire: must be ≈0),
    - counter ``sparse/profile_density`` — actual nnz fraction of the
      generated bow.

    The ``sparse`` bench suite (:mod:`repro.experiments.suites`) turns
    them into ``sparse_*`` totals, including the gated ``sparse_speedup``.
    """
    registry = registry if registry is not None else MetricsRegistry()
    dt = resolve_dtype(dtype) if dtype is not None else get_default_dtype()
    rng = np.random.default_rng(seed)
    dense_bow = np.where(
        rng.random((batch, vocab)) < density,
        rng.integers(1, 4, size=(batch, vocab)),
        0,
    ).astype(dt)
    csr_bow = CSRBatch.from_dense(dense_bow)
    # Fixed parameter arrays, shared by both legs: every repetition wraps
    # them in fresh Tensors so each is an independent forward + backward.
    w1 = (rng.standard_normal((SPARSE_HIDDEN, vocab)) * 0.02).astype(dt)
    b1 = np.zeros(SPARSE_HIDDEN, dtype=dt)
    w2 = (rng.standard_normal((SPARSE_TOPICS, SPARSE_HIDDEN)) * 0.1).astype(dt)
    b2 = np.zeros(SPARSE_TOPICS, dtype=dt)
    beta_logits = (rng.standard_normal((SPARSE_TOPICS, vocab)) * 0.1).astype(dt)

    def step(bow) -> float:
        hidden = fused.linear(
            bow, Tensor(w1, requires_grad=True), Tensor(b1, requires_grad=True)
        )
        act = fused.sigmoid(hidden)
        logits = fused.linear(
            act, Tensor(w2, requires_grad=True), Tensor(b2, requires_grad=True)
        )
        theta = fused.softmax(logits, axis=1)
        beta = fused.softmax(Tensor(beta_logits, requires_grad=True), axis=1)
        if isinstance(bow, CSRBatch):
            # The fast path never materializes theta @ beta — exactly what
            # NeuralTopicModel.reconstruction_loss does on a CSRBatch.
            loss = fused.nll_from_mixture_csr(theta, beta, bow)
        else:
            loss = fused.nll_from_probs(theta @ beta, bow)
        loss.backward()
        return float(loss.data)

    with default_dtype(dt):
        dense_loss = step(dense_bow)  # warm-up: exclude first-call costs
        sparse_loss = step(csr_bow)
        with registry.timer("sparse/dense"):
            for _ in range(repeats):
                dense_loss = step(dense_bow)
        with registry.timer("sparse/sparse"):
            for _ in range(repeats):
                sparse_loss = step(csr_bow)
    registry.count("sparse/docs", repeats * batch, absolute=True)
    registry.count(
        "sparse/loss_gap", abs(dense_loss - sparse_loss), absolute=True
    )
    registry.count(
        "sparse/profile_density", float(csr_bow.density), absolute=True
    )
    registry.count("microbench/repeats", repeats, absolute=True)
    return registry
