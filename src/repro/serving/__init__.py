"""Resilient online inference: micro-batching, breaking, hot-reload.

The serving layer turns a fitted topic model into an online service that
keeps answering under faults.  See ``docs/SERVING.md`` for the full
design; the pieces are:

- :mod:`repro.serving.config` — :class:`ServingConfig` and the
  ``REPRO_SERVE_*`` environment knobs (re-read on every re-init);
- :mod:`repro.serving.service` — :class:`InferenceService`, the
  asyncio micro-batching front door with deadlines, load shedding,
  retries and degraded answers;
- :mod:`repro.serving.breaker` — :class:`CircuitBreaker`, the
  consecutive-model-fault three-state machine;
- :mod:`repro.serving.registry` — :class:`ModelRegistry`, checkpoint
  hot-loading with validation and last-good rollback;
- :mod:`repro.serving.loadgen` — the deterministic load generator the
  chaos suite, CLI and benchmark share.
"""

from repro.serving.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.serving.config import (
    SERVE_ENV_PREFIX,
    ServingConfig,
    get_serving_config,
    reinit_serving_from_env,
    serving_config,
    serving_config_from_env,
    set_serving_config,
)
from repro.serving.loadgen import (
    LoadProfile,
    LoadReport,
    build_requests,
    run_load,
    serving_report,
)
from repro.serving.registry import ModelRegistry
from repro.serving.service import (
    DEGRADED,
    ERROR,
    KINDS,
    OK,
    SHED,
    STATUSES,
    TIMEOUT,
    InferenceService,
    Request,
    Response,
)

__all__ = [
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "CircuitBreaker",
    "SERVE_ENV_PREFIX",
    "ServingConfig",
    "get_serving_config",
    "reinit_serving_from_env",
    "serving_config",
    "serving_config_from_env",
    "set_serving_config",
    "LoadProfile",
    "LoadReport",
    "build_requests",
    "run_load",
    "serving_report",
    "ModelRegistry",
    "DEGRADED",
    "ERROR",
    "KINDS",
    "OK",
    "SHED",
    "STATUSES",
    "TIMEOUT",
    "InferenceService",
    "Request",
    "Response",
]
