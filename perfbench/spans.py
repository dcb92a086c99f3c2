"""In-memory spans for the traced run, recorded from outside the program.

A span is a name, a start, an end and the span that was open when it began
on the same thread.  Spans are kept in memory and summarised when the run
ends.  A span's *self time* is its duration minus the time its direct
children cover.

The untraced run uses :data:`OFF`, whose ``span`` is a shared no-op context
and whose ``wrap`` returns the function unchanged, so end-to-end figures
are measured without any wrapper in the call path.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from dataclasses import dataclass


@dataclass(eq=False)
class Span:
    name: str
    start: float
    parent: "Span | None" = None
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def has_ancestor(self, ancestor: "str | Span") -> bool:
        """Whether an enclosing span is ``ancestor`` (a span, or any of a name)."""
        node = self.parent
        while node is not None:
            if node is ancestor or node.name == ancestor:
                return True
            node = node.parent
        return False


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


class Tracer:
    """Records nested spans; nesting is tracked per thread."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        record = Span(name, time.perf_counter(), stack[-1] if stack else None)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def named(self, name: str, *, within: str | tuple[str, ...] = ()) -> list[Span]:
        """Spans called ``name`` that lie under every span named in ``within``."""
        ancestors = (within,) if isinstance(within, str) else within
        return [
            s
            for s in self.spans
            if s.name == name and all(s.has_ancestor(a) for a in ancestors)
        ]

    def total(self, name: str, *, within: str | tuple[str, ...] = ()) -> float:
        return sum(s.duration for s in self.named(name, within=within))


class _Off:
    """The untraced run's tracer: records nothing, wraps nothing."""

    enabled = False
    spans: list[Span] = []
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def wrap(self, fn, name: str):
        return fn


OFF = _Off()


def self_times(spans: list[Span]) -> dict[str, SpanStats]:
    """Per-name call count, total time and self time."""
    covered: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            key = id(span.parent)
            covered[key] = covered.get(key, 0.0) + span.duration
    stats: dict[str, SpanStats] = {}
    for span in spans:
        entry = stats.setdefault(span.name, SpanStats())
        entry.calls += 1
        entry.total += span.duration
        entry.self_time += span.duration - covered.get(id(span), 0.0)
    return stats


def format_self_times(stats: dict[str, SpanStats], wall: float) -> str:
    """The self-time table, largest self time first."""
    lines = [f"{'span':32s} {'calls':>8s} {'total s':>10s} {'self s':>10s} {'self/phase':>10s}"]
    for name, entry in sorted(stats.items(), key=lambda kv: -kv[1].self_time):
        share = entry.self_time / wall if wall > 0 else 0.0
        lines.append(
            f"{name:32s} {entry.calls:8d} {entry.total:10.4f} "
            f"{entry.self_time:10.4f} {share:10.1%}"
        )
    return "\n".join(lines)


def cost_per_span() -> float:
    """Measured cost of recording one empty span, in seconds."""
    tracer = Tracer()
    samples = 2000
    start = time.perf_counter()
    for _ in range(samples):
        with tracer.span("calibrate"):
            pass
    return (time.perf_counter() - start) / samples


@contextlib.contextmanager
def patched(tracer, targets):
    """Wrap ``(owner, attribute, span name)`` targets for the block's duration.

    Wrapping happens on the owner (a class or module), so every instance
    the program creates internally is traced too.  Attributes an owner
    inherited are removed again afterwards rather than overwritten.
    """
    if not tracer.enabled:
        yield
        return
    missing = object()
    saved = []
    for owner, attribute, name in targets:
        saved.append((owner, attribute, vars(owner).get(attribute, missing)))
        setattr(owner, attribute, tracer.wrap(getattr(owner, attribute), name))
    try:
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            if original is missing:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
