"""In-memory spans for the benchmark's traced run.

A :class:`Tracer` records one :class:`Span` per call into a layer: a name,
a start and end on ``time.perf_counter``, the index of the enclosing span
and a run id shared by every span of one measured pass.  Spans stay in
memory until the run ends and :meth:`Tracer.write` saves them.

:func:`instrument` installs the traced run's wrappers at the program's
public boundaries (factory, trace construction, efficiency sweep, traxtent
map, replay engine) and restores the originals on exit.  Nothing under ``src/``
is edited: the wrappers replace module and class attributes for the
duration of the ``with`` block only, so the untraced run calls the
program exactly as a user does.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterable, Iterator


@dataclass
class Span:
    """One timed call into a layer."""

    name: str
    start: float
    end: float
    parent: int
    run: str
    #: Work the call did, in the layer's own unit (rows, bytes); 0 if none.
    count: int = 0
    #: Free-form label, e.g. ``"faults"`` on a fault-bearing campaign point.
    tag: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = "setup"
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, tag: str = "") -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, time.perf_counter(), 0.0, parent, self.run, tag=tag)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def iterate(self, name: str, iterable: Iterable) -> Iterator:
        """Yield from ``iterable``, timing each ``next()`` as a span whose
        ``count`` is the length of the item produced."""
        items = iter(iterable)
        while True:
            with self.span(name) as record:
                try:
                    item = next(items)
                except StopIteration:
                    return
                record.count = len(item)
            yield item

    def wrap(self, name: str, fn: Callable, count: Callable[[Any], int] | None = None):
        """``fn`` with every call recorded as a span named ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if count is not None:
                    record.count = count(result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(span) for span in self.spans], handle)
            handle.write("\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    One thread records the spans, so a span's children lie inside it and
    never overlap one another; a grandchild counts only against its parent.
    """
    result = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            result[span.parent] -= span.duration
    return result


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Wrap the program's public layer boundaries with ``tracer`` spans."""
    from repro.api import factory, scenario
    from repro.core.traxtent import TraxtentMap
    from repro.sim.engine import TraceReplayEngine

    from_geometry = TraxtentMap.__dict__["from_geometry"].__func__
    patches: list[tuple[Any, str, Any]] = [
        (factory, "build_fleet", tracer.wrap("api.factory.build_fleet", factory.build_fleet)),
        (factory, "build_drive", tracer.wrap("api.factory.build_drive", factory.build_drive)),
        (scenario, "build_fleet", tracer.wrap("api.factory.build_fleet", scenario.build_fleet)),
        (scenario, "build_drive", tracer.wrap("api.factory.build_drive", scenario.build_drive)),
        (scenario, "build_trace", tracer.wrap("workloads.build_trace", scenario.build_trace, len)),
        (
            scenario,
            "efficiency_curve",
            tracer.wrap("core.efficiency_curve", scenario.efficiency_curve),
        ),
        (
            TraxtentMap,
            "from_geometry",
            classmethod(tracer.wrap("core.traxtent_map", from_geometry)),
        ),
    ]
    for method in ("replay", "replay_closed", "replay_stream", "replay_closed_stream"):
        original = TraceReplayEngine.__dict__[method]
        patches.append((TraceReplayEngine, method, tracer.wrap("sim.replay", original)))
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
