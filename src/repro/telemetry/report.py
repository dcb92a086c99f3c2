"""``BENCH_<name>.json`` reports: build, serialise, format, compare.

The benchmark suite and the CLI both aggregate telemetry into one schema
(``repro.telemetry.bench/v1``) so results are machine-comparable across
runs and machines:

* ``ops``    — per-op table from :func:`repro.telemetry.ophooks.profile_ops`
  (calls, forward/backward wall-time, bytes allocated),
* ``epochs`` — per-epoch table from :class:`~repro.telemetry.callback.
  TelemetryCallback` (wall time, docs/sec throughput, ELBO vs contrastive
  loss split),
* ``totals`` — the scalar roll-up: generic op/epoch sums plus the
  scalars the producer passes in (a bench suite's legs and ratios),
* ``gates``  — which totals CI's perf-guard
  (``benchmarks/check_regression.py``) compares against a baseline, and
  the direction (``"lower"``/``"higher"``) in which each is better.  The
  producer declares them (the bench-suite registry
  :data:`repro.experiments.suites.SUITES`, or the load generator), so
  this module knows no suite.

Timings depend on the machine; the regression comparison therefore uses a
tolerant ratio threshold (default 2x) and treats sub-millisecond baseline
entries as noise.
"""

from __future__ import annotations

import fnmatch
import json
from pathlib import Path
from typing import Sequence

from repro.io import atomic_write
from repro.telemetry.core import MetricsRegistry
from repro.telemetry.ophooks import OP_PREFIX

SCHEMA = "repro.telemetry.bench/v1"

#: Baseline timings below this many seconds are noise, not signal; the
#: regression comparison reports them but never fails on them.
NOISE_FLOOR_SECONDS = 1e-3

#: Gate directions: the way a gated total moves when things get better.
GATE_DIRECTIONS = ("lower", "higher")

def _op_table(registry: MetricsRegistry) -> list[dict]:
    """Extract the per-op rows from a registry's ``op/*`` keys."""
    ops: dict[str, dict] = {}

    def row(op: str) -> dict:
        return ops.setdefault(
            op,
            {
                "op": op,
                "calls": 0,
                "total_seconds": 0.0,
                "mean_seconds": 0.0,
                "backward_seconds": 0.0,
                "bytes": 0,
            },
        )

    for key, stat in registry.timers.items():
        if not key.startswith(OP_PREFIX):
            continue
        name = key[len(OP_PREFIX):]
        if name.endswith(".backward"):
            row(name[: -len(".backward")])["backward_seconds"] = stat.total_seconds
        elif "." not in name:
            entry = row(name)
            entry["total_seconds"] = stat.total_seconds
            entry["mean_seconds"] = stat.mean_seconds
    for key, counter in registry.counters.items():
        if not key.startswith(OP_PREFIX):
            continue
        name = key[len(OP_PREFIX):]
        if name.endswith(".calls"):
            row(name[: -len(".calls")])["calls"] = int(counter.value)
        elif name.endswith(".bytes"):
            row(name[: -len(".bytes")])["bytes"] = int(counter.value)
    return sorted(ops.values(), key=lambda r: -r["total_seconds"])


def _epoch_totals(epochs: Sequence[dict]) -> dict:
    """Scalar roll-up of an epoch table."""
    if not epochs:
        return {}
    seconds = [e.get("epoch_seconds", 0.0) for e in epochs]
    throughput = [e["docs_per_sec"] for e in epochs if "docs_per_sec" in e]
    elbo = [e.get("elbo", 0.0) for e in epochs]
    contrastive = [e.get("contrastive", 0.0) for e in epochs]
    totals = {
        "epochs": len(epochs),
        "epoch_seconds": float(sum(seconds)),
        "epoch_seconds_mean": float(sum(seconds)) / len(epochs),
        "elbo_mean": float(sum(elbo)) / len(epochs),
        "contrastive_mean": float(sum(contrastive)) / len(epochs),
    }
    if throughput:
        totals["docs_per_sec"] = float(sum(throughput)) / len(throughput)
    denominator = abs(totals["elbo_mean"]) + abs(totals["contrastive_mean"])
    if denominator > 0:
        totals["contrastive_loss_share"] = abs(totals["contrastive_mean"]) / denominator
    # Guard recovery actions (repro.training.resilience) roll up as sums,
    # so a report makes divergences-and-recoveries visible at a glance.
    guard_keys = {k for e in epochs for k in e if k.startswith("guard_")}
    for key in sorted(guard_keys):
        totals[key] = float(sum(e.get(key, 0.0) for e in epochs))
    # Per-term objective contributions (repro.objectives): every enabled
    # stack term logs its weighted per-epoch mean as ``objective_<name>``,
    # which rolls up here as ``objective_<name>_loss`` so reports show one
    # scalar per regularizer.
    objective_keys = {k for e in epochs for k in e if k.startswith("objective_")}
    for key in sorted(objective_keys):
        totals[f"{key}_loss"] = float(sum(e.get(key, 0.0) for e in epochs))
    return totals


def resolve_gates(gates: dict | None, totals: dict) -> dict:
    """Concrete ``{total: "lower"|"higher"}`` gates of a report.

    A plain key is gated whether or not ``totals`` has it (a missing
    gated total fails :func:`compare_reports`); a key with ``*`` gates
    every total it matches, so a suite whose legs vary (``wall_w*`` over
    ``wall_w1``, ``wall_w3``, ...) gates exactly the legs it ran.
    """
    resolved: dict[str, str] = {}
    for key, direction in (gates or {}).items():
        if direction not in GATE_DIRECTIONS:
            raise ValueError(
                f"gate {key!r}: direction must be one of {GATE_DIRECTIONS}, "
                f"got {direction!r}"
            )
        if "*" in key:
            resolved.update(
                {t: direction for t in totals if fnmatch.fnmatchcase(t, key)}
            )
        else:
            resolved[key] = direction
    return dict(sorted(resolved.items()))


def build_report(
    name: str,
    registry: MetricsRegistry | None = None,
    epochs: Sequence[dict] | None = None,
    meta: dict | None = None,
    totals: dict | None = None,
    gates: dict | None = None,
) -> dict:
    """Assemble a ``repro.telemetry.bench/v1`` report dictionary.

    ``totals`` are the caller's own scalars, merged over the generic
    op/epoch roll-up; ``gates`` maps gated totals (or ``*`` patterns, see
    :func:`resolve_gates`) to the direction in which they are better.
    """
    ops = _op_table(registry) if registry is not None else []
    epoch_rows = [dict(e) for e in (epochs or [])]
    rolled: dict = dict(_epoch_totals(epoch_rows))
    if ops:
        rolled["op_seconds"] = float(sum(r["total_seconds"] for r in ops))
        rolled["op_backward_seconds"] = float(sum(r["backward_seconds"] for r in ops))
        rolled["op_calls"] = int(sum(r["calls"] for r in ops))
        rolled["op_bytes"] = int(sum(r["bytes"] for r in ops))
    rolled.update(totals or {})
    report = {
        "schema": SCHEMA,
        "name": name,
        "meta": dict(meta or {}),
        "ops": ops,
        "epochs": epoch_rows,
        "totals": rolled,
        "gates": resolve_gates(gates, rolled),
    }
    if registry is not None:
        report["registry"] = registry.snapshot()
    return report


def epoch_rows_from_history(history: Sequence[dict]) -> list[dict]:
    """Adapt ``NeuralTopicModel.history`` entries to report epoch rows."""
    rows = []
    for entry in history:
        rec = float(entry.get("rec", 0.0))
        kl = float(entry.get("kl", 0.0))
        rows.append(
            {
                **{k: float(v) for k, v in entry.items()},
                "elbo": rec + kl,
                "contrastive": float(entry.get("extra", 0.0)),
            }
        )
    return rows


def write_report(report: dict, path: str | Path) -> Path:
    """Serialise a report atomically; returns the written path.

    Uses the shared tmp + fsync + rename helper, so an interrupted run
    never leaves a truncated ``BENCH_*.json`` behind.
    """
    path = Path(path)
    with atomic_write(path, "w", category="report") as fp:
        json.dump(report, fp, indent=2, sort_keys=True)
        fp.write("\n")
    return path


def load_report(path: str | Path) -> dict:
    """Load a report written by :func:`write_report`; validates the schema."""
    with Path(path).open("r", encoding="utf-8") as fp:
        report = json.load(fp)
    if report.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: expected schema {SCHEMA!r}, got {report.get('schema')!r}"
        )
    return report


def _format_table(headers: list[str], rows: list[list], title: str = "") -> str:
    """Minimal fixed-width table (kept local to avoid layering on
    :mod:`repro.experiments`, which sits above telemetry)."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_report(report: dict, max_ops: int = 12) -> str:
    """Human-readable summary of a report (op table, epochs, totals)."""
    blocks = [f"BENCH report {report['name']!r} ({report['schema']})"]
    if report["ops"]:
        rows = [
            [
                r["op"],
                r["calls"],
                f"{r['total_seconds']:.4f}",
                f"{r['backward_seconds']:.4f}",
                f"{r['bytes'] / 1e6:.1f}",
            ]
            for r in report["ops"][:max_ops]
        ]
        blocks.append(
            _format_table(
                ["op", "calls", "fwd s", "bwd s", "MB"],
                rows,
                title=f"top ops by forward time (of {len(report['ops'])})",
            )
        )
    if report["epochs"]:
        first, last = report["epochs"][0], report["epochs"][-1]
        rows = [
            [
                e["epoch"],
                f"{e.get('epoch_seconds', 0.0):.3f}",
                f"{e.get('docs_per_sec', 0.0):.0f}",
                f"{e.get('elbo', 0.0):.3f}",
                f"{e.get('contrastive', 0.0):.3f}",
            ]
            for e in (first, last)
        ]
        blocks.append(
            _format_table(
                ["epoch", "seconds", "docs/s", "elbo", "contrastive"],
                rows,
                title=f"epochs (first/last of {len(report['epochs'])})",
            )
        )
    if report["totals"]:
        rows = [[k, f"{v:.6g}"] for k, v in sorted(report["totals"].items())]
        blocks.append(_format_table(["total", "value"], rows, title="totals"))
    return "\n\n".join(blocks)


def summarize_report(report: dict) -> str:
    """One compact per-suite summary table for CI job logs.

    Unlike :func:`format_report` (the full dump), this is the short block
    ``benchmarks/check_regression.py`` prints for every suite **on pass as
    well as on failure**, so a green job still shows what was measured:
    suite name, op/epoch row counts, and the gated totals.
    """
    totals = report.get("totals", {})
    suite = report.get("meta", {}).get("suite", report.get("name", "?"))
    rows: list[list[str]] = [
        ["suite", str(suite)],
        ["ops rows", str(len(report.get("ops", [])))],
        ["epoch rows", str(len(report.get("epochs", [])))],
    ]
    for key, direction in report.get("gates", {}).items():
        value = f"{totals[key]:.6g}" if key in totals else "missing"
        rows.append([f"totals.{key} ({direction} is better)", value])
    return _format_table(
        ["metric", "value"],
        rows,
        title=f"suite summary: {report.get('name', '?')}",
    )


# ----------------------------------------------------------------------
# regression comparison (consumed by benchmarks/check_regression.py)
# ----------------------------------------------------------------------


def report_gates(baseline: dict, current: dict) -> dict:
    """The gates of a comparison: the union of both reports' ``gates``.

    Raises ``ValueError`` when the two reports gate one total in opposite
    directions — such a pair cannot be compared.
    """
    gates = dict(baseline.get("gates", {}))
    for key, direction in current.get("gates", {}).items():
        if gates.setdefault(key, direction) != direction:
            raise ValueError(
                f"totals.{key} is gated {gates[key]!r} in the baseline but "
                f"{direction!r} in the current report"
            )
    return dict(sorted(gates.items()))


def compare_reports(
    baseline: dict, current: dict, threshold: float = 2.0
) -> tuple[list[str], str]:
    """Compare two reports' gated totals; returns (failures, diff table text).

    The gated totals are those either report lists in its ``gates``
    (:func:`report_gates`).  A ``"lower"``-is-better total (a timing)
    fails when ``current > threshold * baseline``; a ``"higher"``-is-better
    total (a rate) fails when ``current < baseline / threshold``; a gated
    total missing from the current report fails.  Timing baselines under
    :data:`NOISE_FLOOR_SECONDS` are informational only, and so is a gated
    total the baseline lacks.  Per-op rows are always informational —
    per-op wall times are too noisy on shared runners to gate on.
    """
    if threshold <= 1.0:
        raise ValueError("threshold must be > 1")
    failures: list[str] = []
    rows: list[list[str]] = []
    base_totals = baseline.get("totals", {})
    cur_totals = current.get("totals", {})
    for key, direction in report_gates(baseline, current).items():
        label = f"totals.{key}"
        if key not in cur_totals:
            base_text = f"{base_totals[key]:.6g}" if key in base_totals else "-"
            rows.append([label, base_text, "-", "-", "FAIL"])
            failures.append(f"{label}: gated ({direction} is better) but missing")
            continue
        cur = cur_totals[key]
        if key not in base_totals:
            rows.append([label, "-", f"{cur:.6g}", "-", "new"])
            continue
        base = base_totals[key]
        ratio = cur / base if base else float("inf")
        if direction == "lower":
            gated = base >= NOISE_FLOOR_SECONDS
            failed = gated and ratio > threshold
        else:
            gated = True
            failed = base > 0 and cur < base / threshold
        status = "FAIL" if failed else ("ok" if gated else "noise")
        rows.append([label, f"{base:.6g}", f"{cur:.6g}", f"{ratio:.2f}x", status])
        if failed:
            failures.append(
                f"{label}: {cur:.6g} vs baseline {base:.6g} "
                f"(ratio {ratio:.2f}, threshold {threshold:.2f})"
            )

    base_ops = {r["op"]: r for r in baseline.get("ops", [])}
    for row in current.get("ops", []):
        base_row = base_ops.get(row["op"])
        if base_row is None or base_row["total_seconds"] < NOISE_FLOOR_SECONDS:
            continue
        ratio = (
            row["total_seconds"] / base_row["total_seconds"]
            if base_row["total_seconds"]
            else float("inf")
        )
        rows.append(
            [
                f"op.{row['op']}",
                f"{base_row['total_seconds']:.6g}",
                f"{row['total_seconds']:.6g}",
                f"{ratio:.2f}x",
                "info",
            ]
        )

    table = _format_table(
        ["metric", "baseline", "current", "ratio", "status"],
        rows,
        title=(
            f"perf-guard: {current.get('name')} vs baseline "
            f"(threshold {threshold:.2f}x)"
        ),
    )
    return failures, table
