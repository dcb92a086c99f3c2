"""Process environment of a benchmark run: thread pinning and the machine line.

Nothing here imports numpy.  :func:`pin_environment` must run before the
first numpy import of the process, because OpenBLAS reads its thread count
from the environment when it loads.  :func:`blas_threads` then reads the
effective count back from every OpenBLAS the process actually loaded.
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import time
from dataclasses import dataclass
from pathlib import Path

#: Environment variables that size BLAS/OpenMP thread pools.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Getter symbols of the OpenBLAS builds numpy and scipy bundle
#: (64-bit-integer build first), then a plain system OpenBLAS.
_GET_THREADS_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def pin_environment() -> dict[str, str]:
    """Pin BLAS/OpenMP pools to one thread and unset every ``REPRO_*`` knob.

    Returns the ``REPRO_*`` variables that were set, so the run can record
    them: the benchmark always measures the program's defaults.
    """
    for name in THREAD_VARS:
        os.environ[name] = "1"
    return {name: os.environ.pop(name) for name in sorted(os.environ) if name.startswith("REPRO_")}


def blas_threads() -> int:
    """Largest thread count any loaded OpenBLAS reports; 0 if none is loaded."""
    try:
        lines = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return 0
    libraries = dict.fromkeys(
        line.split()[-1]
        for line in lines
        if "openblas" in line.lower() and ".so" in line.split()[-1]
    )
    counts = []
    for path in libraries:
        library = ctypes.CDLL(path)
        for symbol in _GET_THREADS_SYMBOLS:
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                counts.append(int(getter()))
                break
    return max(counts, default=0)


def _cpu_jiffies() -> tuple[int, int]:
    """``(steal, total)`` jiffies of the host's aggregate ``cpu`` line."""
    try:
        with open("/proc/stat") as fp:
            fields = fp.readline().split()
    except OSError:
        return 0, 0
    values = [int(v) for v in fields[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]:
    # guest time is already counted inside user/nice.
    return (values[7] if len(values) > 7 else 0), sum(values[:8])


@dataclass(frozen=True)
class Usage:
    """A point-in-time reading of wall clock, process CPU and host steal."""

    wall: float
    cpu: float
    steal: int
    jiffies: int

    @classmethod
    def now(cls) -> "Usage":
        times = os.times()
        steal, total = _cpu_jiffies()
        return cls(time.perf_counter(), times.user + times.system, steal, total)


def usage_over(windows: list[tuple[Usage, Usage]]) -> dict[str, float]:
    """CPU-seconds per wall-second of this process and the host steal share,
    over ``(start, end)`` windows."""
    wall = sum(end.wall - start.wall for start, end in windows)
    cpu = sum(end.cpu - start.cpu for start, end in windows)
    steal = sum(end.steal - start.steal for start, end in windows)
    jiffies = sum(end.jiffies - start.jiffies for start, end in windows)
    return {
        "cpu_per_wall": cpu / wall if wall > 0 else 0.0,
        "steal_share": steal / jiffies if jiffies > 0 else 0.0,
    }


def commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_record(root: Path, repro_env: dict[str, str], dtype: str, windows: list) -> dict:
    """Everything the machine line prints; call after numpy is imported."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "dtype": dtype,
        "commit": commit(root),
        "repro_env": repro_env,
        **usage_over(windows),
    }
