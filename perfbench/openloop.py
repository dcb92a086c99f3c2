"""Open-loop request generator on the caller's event loop.

Independent users send on a schedule whether or not earlier requests have
been answered, so each request is timed from when it was *due*, not from
when the generator got round to sending it: a stall then shows in the
latency of every request it delayed.  How late the generator itself ran
is recorded separately as each request's lateness.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Sequence


def poisson_arrivals(rate: float, count: int, rng: random.Random) -> list[float]:
    """Offsets (seconds from the step start) of ``count`` Poisson arrivals."""
    offsets = []
    at = 0.0
    for _ in range(count):
        at += rng.expovariate(rate)
        offsets.append(at)
    return offsets


@dataclass
class OpenLoopResult:
    """Per-request timings of one open-loop step, in request order."""

    latency_ms: list[float] = field(default_factory=list)
    lateness_ms: list[float] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0


async def open_loop(
    submit: Callable[[object], Awaitable[object]],
    requests: Sequence[object],
    arrivals: Sequence[float],
    on_response: Callable[[object, object], None],
) -> OpenLoopResult:
    """Send ``requests[i]`` at ``arrivals[i]`` and await every answer.

    ``on_response(request, response)`` sees each answer as it arrives, so
    the caller keeps only what its checks need instead of every response.
    """
    result = OpenLoopResult(latency_ms=[0.0] * len(requests))
    result.start = time.perf_counter()

    async def one(index: int, request, due: float) -> None:
        response = await submit(request)
        result.latency_ms[index] = 1000.0 * (time.perf_counter() - due)
        on_response(request, response)

    tasks = []
    for index, (request, offset) in enumerate(zip(requests, arrivals)):
        due = result.start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        result.lateness_ms.append(1000.0 * (time.perf_counter() - due))
        tasks.append(asyncio.create_task(one(index, request, due)))
    await asyncio.gather(*tasks)
    result.end = time.perf_counter()
    return result
