"""Shared configuration for the benchmark suite.

Every benchmark reproduces one table or figure of the paper at the default
experiment scale (see ``repro.experiments.context.ExperimentSettings``) and
prints the paper-style rows/series so the run log doubles as the
reproduction record.

Environment variables
---------------------
``REPRO_BENCH_FAST``
    ``1`` / ``true`` / ``yes`` / ``on`` (any case) switch to the
    smoke-test scale: every workload still runs and checks structural
    invariants, but the paper-shape assertions (which only hold for
    adequately-trained models) are skipped.  ``0`` / ``false`` / ``no`` /
    ``off``, the empty string, or unset keep the full, strict scale.
    Anything else is an error — a typo must not silently pick a mode.
``REPRO_BENCH_TELEMETRY_DIR``
    Directory the ``BENCH_*.json`` telemetry reports are written to
    (default: the current working directory).
``REPRO_BENCH_DTYPE``
    Precision the perf-measurement benchmarks *train* in (default
    ``float32`` — the fused hot path's intended fast configuration).
    Metrics/NPMI computations stay float64 regardless.

Telemetry
---------
Every benchmark test is timed into a session-wide
:class:`repro.telemetry.MetricsRegistry` under ``bench/<test name>``
(autouse fixture); individual benchmarks add finer-grained stage timers
via the ``bench_registry`` fixture.  Benchmarks with richer telemetry
emit their own report: the perf-guarded ones run a suite of
:data:`repro.experiments.suites.SUITES` and write it with
:func:`emit_suite`, the others use :func:`emit_report`.  At session end
the aggregate is written to ``BENCH_suite.json``, which also carries
every gated total (and its gate) of the reports emitted in the session.

Because :func:`repro.telemetry.profile_ops` blocks nest, op-profiled
benchmark sections also fan their per-op rows into the session registry
via :func:`profile_into_suite`, so ``BENCH_suite.json`` carries a
populated ``ops`` table without profiling (and thereby distorting) the
unprofiled headline timings.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path

import pytest

from repro.experiments import ExperimentSettings
from repro.experiments.suites import SUITES
from repro.telemetry import MetricsRegistry, build_report, profile_ops, write_report
from repro.tensor import resolve_dtype

_TRUE_VALUES = {"1", "true", "yes", "on"}
_FALSE_VALUES = {"", "0", "false", "no", "off"}


def parse_env_flag(name: str, default: bool = False) -> bool:
    """Parse a boolean environment variable predictably.

    Unlike raw truthiness of the env string (under which ``"0"`` was
    previously *truthy*), this accepts exactly the documented spellings.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    value = raw.strip().lower()
    if value in _TRUE_VALUES:
        return True
    if value in _FALSE_VALUES:
        return False
    raise ValueError(
        f"{name}={raw!r} is not a valid flag; use one of "
        f"{sorted(_TRUE_VALUES)} or {sorted(_FALSE_VALUES)}"
    )


#: True when REPRO_BENCH_FAST selects the smoke-test scale.
FAST = parse_env_flag("REPRO_BENCH_FAST")

#: False when in fast mode — the smoke run still executes every workload
#: and checks structural invariants, but skips the paper-shape assertions,
#: which only hold for adequately-trained models.
STRICT = not FAST

#: Training precision of the perf-measurement benchmarks (validated so a
#: typo in REPRO_BENCH_DTYPE fails loudly instead of silently changing
#: what the numbers mean).
BENCH_DTYPE = str(resolve_dtype(os.environ.get("REPRO_BENCH_DTYPE", "float32")))


def telemetry_dir() -> Path:
    """Directory BENCH_*.json reports are written to."""
    return Path(os.environ.get("REPRO_BENCH_TELEMETRY_DIR", "."))


#: Gated totals (and their gates) of every report emitted this session;
#: ``BENCH_suite.json`` carries them.
_SESSION_TOTALS: dict = {}
_SESSION_GATES: dict = {}


def write_bench(report: dict) -> Path:
    """Write ``BENCH_<name>.json`` into :func:`telemetry_dir`."""
    report["meta"].setdefault("fast", FAST)
    _SESSION_GATES.update(report["gates"])
    _SESSION_TOTALS.update(
        {k: report["totals"][k] for k in report["gates"] if k in report["totals"]}
    )
    return write_report(report, telemetry_dir() / f"BENCH_{report['name']}.json")


def emit_report(name: str, registry=None, epochs=None, meta=None) -> Path:
    """Build and write an ungated ``BENCH_<name>.json``."""
    return write_bench(build_report(name, registry=registry, epochs=epochs, meta=meta))


def emit_suite(suite: str, run, name: str) -> dict:
    """Write a registry suite's run as ``BENCH_<name>.json``; returns it."""
    report = SUITES[suite].report(run, name)
    write_bench(report)
    return report


@pytest.fixture(scope="session")
def bench_registry():
    """Session-wide telemetry sink; dumped to BENCH_suite.json at exit."""
    registry = MetricsRegistry()
    yield registry
    write_bench(
        build_report(
            "suite", registry=registry, totals=_SESSION_TOTALS, gates=_SESSION_GATES
        )
    )


@pytest.fixture(autouse=True)
def _time_each_benchmark(request, bench_registry):
    """Record every test's wall time under ``bench/<test name>``."""
    with bench_registry.timer(f"bench/{request.node.name}"):
        yield


@pytest.fixture(scope="session")
def profile_into_suite(bench_registry):
    """Op-profile a block into a local registry *and* the suite registry.

    ``with profile_into_suite(registry): ...`` — both registries receive
    the ``op/*`` rows (nested :func:`profile_ops` blocks), which is what
    populates the ``ops`` table of ``BENCH_suite.json``.
    """

    @contextlib.contextmanager
    def profile(registry: MetricsRegistry):
        with profile_ops(bench_registry), profile_ops(registry):
            yield registry

    return profile


def _base(dataset: str) -> ExperimentSettings:
    settings = ExperimentSettings(dataset=dataset)
    if not STRICT:
        settings = settings.fast()
    return settings


@pytest.fixture(scope="session")
def settings_20ng() -> ExperimentSettings:
    return _base("20ng")


@pytest.fixture(scope="session")
def settings_yahoo() -> ExperimentSettings:
    return _base("yahoo")


@pytest.fixture(scope="session")
def settings_nytimes() -> ExperimentSettings:
    return _base("nytimes")


def print_block(text: str) -> None:
    """Print a result block, clearly delimited in benchmark output."""
    print()
    print(text)
    print()
