"""Self-tests of the benchmark harness.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import openloop  # noqa: E402
import spans  # noqa: E402
from tails import percentile, tail  # noqa: E402


def test_tail_takes_highest_percentile_with_ten_beyond():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    result = tail(values)
    assert (result.percentile, result.value, result.beyond, result.samples) == (90.0, 90, 10, 100)


def test_tail_uses_exact_ranks():
    # 0.75 * 40 is 30.000000000000004 in floating point; the rank is 30.
    result = tail([float(v) for v in range(1, 41)])
    assert (result.percentile, result.value, result.beyond) == (75.0, 30.0, 10)
    assert percentile(range(1, 1001), 99.9) == 999


def test_tail_falls_back_to_the_maximum():
    result = tail([5.0, 1.0, 9.0, 3.0])
    assert (result.percentile, result.value, result.beyond) == (100.0, 9.0, 0)
    assert tail([float(v) for v in range(19)]).percentile == 100.0
    assert tail([float(v) for v in range(20)]).percentile == 50.0


def test_open_loop_times_from_the_scheduled_send():
    service_ms = 20.0

    async def submit(request):
        await asyncio.sleep(service_ms / 1000.0)
        return request

    seen = []
    result = asyncio.run(
        openloop.open_loop(submit, [0, 1, 2], [0.0, 0.01, 0.02], lambda q, r: seen.append(r))
    )
    assert sorted(seen) == [0, 1, 2]
    assert all(latency >= service_ms for latency in result.latency_ms)
    assert all(latency < service_ms + 40.0 for latency in result.latency_ms)


def test_open_loop_charges_a_stall_to_the_requests_it_delays():
    stall_s = 0.08

    async def submit(request):
        if request == 0:
            time.sleep(stall_s)  # blocks the event loop, as a long batch would
        return request

    arrivals = [0.0, 0.01, 0.02, 0.2]
    result = asyncio.run(openloop.open_loop(submit, [0, 1, 2, 3], arrivals, lambda q, r: None))
    # Request 1 was due 10 ms in but could only be sent after the stall.
    assert result.lateness_ms[1] >= 1000 * (stall_s - 0.01) - 5.0
    assert result.latency_ms[1] >= result.lateness_ms[1]
    assert result.latency_ms[2] >= 1000 * (stall_s - 0.02) - 5.0
    # Request 3 is due after the stall ended: neither late nor slow.
    assert result.lateness_ms[3] < 20.0 and result.latency_ms[3] < 20.0


def test_poisson_arrivals_average_the_rate():
    arrivals = openloop.poisson_arrivals(500.0, 5000, random.Random(1))
    assert arrivals == sorted(arrivals)
    assert abs(arrivals[-1] - 10.0) < 0.5


def test_self_time_subtracts_direct_children_only():
    root = spans.Span("root", 0.0, None, 10.0)
    first = spans.Span("child", 1.0, root, 3.0)
    second = spans.Span("child", 4.0, root, 8.0)
    grandchild = spans.Span("leaf", 5.0, second, 6.0)
    stats = spans.self_times([grandchild, first, second, root])
    assert stats["root"].self_time == 10.0 - 2.0 - 4.0
    assert stats["child"].calls == 2
    assert stats["child"].total == 6.0
    assert stats["child"].self_time == 2.0 + (4.0 - 1.0)
    assert stats["leaf"].self_time == 1.0
    assert grandchild.has_ancestor("root") and grandchild.has_ancestor(second)
    assert not first.has_ancestor("leaf")


def test_tracer_nests_spans_and_patches_back():
    class Owner:
        def work(self):
            return 7

    class Child(Owner):
        pass

    original = Owner.work
    tracer = spans.Tracer()
    with spans.patched(tracer, [(Owner, "work", "owner.work"), (Child, "work", "child.work")]):
        with tracer.span("outer"):
            assert Owner().work() == 7
    assert vars(Owner)["work"] is original
    assert "work" not in vars(Child)
    inner, outer = tracer.spans
    assert (inner.name, inner.parent) == ("owner.work", outer)


def _run_bench(cwd: Path, env: dict, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_workload_child_reports_one_blas_thread():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2", REPRO_SPARSE="0")
    done = _run_bench(ROOT, env, "--workload", "online", "--seed", "3", "--seconds", "0.1")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    machine = json.loads(next(line for line in lines if line.startswith("MACHINE "))[8:])
    assert machine["blas_threads"] == 1
    assert machine["repro_env"] == {"REPRO_SPARSE": "0"}
    result = json.loads(lines[-1])
    assert result["correct"] and result["metrics"]["ok_share"]["value"] == 1.0


def test_blas_readback_sees_an_unpinned_pool():
    code = (
        "import sys; sys.path.insert(0, 'perfbench'); import machine, numpy; "
        "print(machine.blas_threads())"
    )
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["OPENBLAS_NUM_THREADS"] = "2"
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert done.stdout.strip() == "2", done.stderr


def test_missing_program_exits_nonzero_without_metrics(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_bench(tmp_path, dict(os.environ), "--workload", "train", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
