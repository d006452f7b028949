"""Request traces: the input format of the batched replay engine.

A trace is a time-ordered stream of ``(issue_ms, lbn, count, op)`` records
describing the disk traffic of some workload.  Traces decouple workload
*generation* (the FFS macro-benchmarks, the synthetic raw-disk streams, or
external trace files) from workload *replay*: once captured, the same trace
can be replayed against one drive, a sharded fleet, different drive models,
or different firmware settings, and replayed in large batches instead of
one Python call per request.

Storage is columnar (four parallel lists) so a million-request trace costs
four lists rather than a million record objects, and converts to the replay
kernel's numpy columns without repacking.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from ..disksim.drive import READ, WRITE, CompletedRequest, DiskRequest
from ..disksim.errors import RequestError

if TYPE_CHECKING:  # pragma: no cover
    from ..disksim.drive import DiskDrive
    from ..disksim.geometry import DiskGeometry


class TraceRecord(NamedTuple):
    """One request of a trace."""

    issue_ms: float
    lbn: int
    count: int
    op: str


class Trace:
    """A columnar request trace."""

    __slots__ = ("issue_ms", "lbns", "counts", "ops")

    def __init__(
        self,
        issue_ms: Sequence[float] | None = None,
        lbns: Sequence[int] | None = None,
        counts: Sequence[int] | None = None,
        ops: Sequence[str] | None = None,
    ) -> None:
        self.issue_ms: list[float] = list(issue_ms) if issue_ms is not None else []
        self.lbns: list[int] = list(lbns) if lbns is not None else []
        self.counts: list[int] = list(counts) if counts is not None else []
        self.ops: list[str] = list(ops) if ops is not None else []
        n = len(self.lbns)
        if not (len(self.issue_ms) == len(self.counts) == len(self.ops) == n):
            raise RequestError("trace columns must have equal length")

    # ------------------------------------------------------------------ #
    # Basic protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.lbns)

    def __iter__(self) -> Iterator[TraceRecord]:
        return (
            TraceRecord(t, lbn, count, op)
            for t, lbn, count, op in zip(self.issue_ms, self.lbns, self.counts, self.ops)
        )

    def __getitem__(self, index: int) -> TraceRecord:
        return TraceRecord(
            self.issue_ms[index], self.lbns[index], self.counts[index], self.ops[index]
        )

    def append(self, issue_ms: float, lbn: int, count: int, op: str) -> None:
        if op not in (READ, WRITE):
            raise RequestError(f"unknown opcode {op!r}")
        if count <= 0:
            raise RequestError("request count must be positive")
        if lbn < 0:
            raise RequestError("request LBN must be non-negative")
        self.issue_ms.append(issue_ms)
        self.lbns.append(lbn)
        self.counts.append(count)
        self.ops.append(op)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_records(cls, records: Iterable[tuple[float, int, int, str]]) -> "Trace":
        trace = cls()
        for issue_ms, lbn, count, op in records:
            trace.append(issue_ms, lbn, count, op)
        return trace

    @classmethod
    def from_requests(
        cls,
        requests: Iterable[DiskRequest],
        issue_times: Sequence[float] | None = None,
        interarrival_ms: float = 0.0,
        start_ms: float = 0.0,
    ) -> "Trace":
        """Build a trace from :class:`DiskRequest` objects.

        ``issue_times`` gives explicit timestamps; otherwise requests arrive
        as an open stream with a fixed ``interarrival_ms`` starting at
        ``start_ms``.
        """
        trace = cls()
        if issue_times is not None:
            for request, t in zip(requests, issue_times, strict=True):
                trace.append(t, request.lbn, request.count, request.op)
            return trace
        t = start_ms
        for request in requests:
            trace.append(t, request.lbn, request.count, request.op)
            t += interarrival_ms
        return trace

    # ------------------------------------------------------------------ #
    # Queries / transforms
    # ------------------------------------------------------------------ #
    @property
    def total_sectors(self) -> int:
        return sum(self.counts)

    @property
    def read_fraction(self) -> float:
        if not self.ops:
            return 0.0
        return sum(1 for op in self.ops if op == READ) / len(self.ops)

    @property
    def duration_ms(self) -> float:
        if not self.issue_ms:
            return 0.0
        return max(self.issue_ms) - min(self.issue_ms)

    def is_time_ordered(self) -> bool:
        times = self.issue_ms
        return all(times[i] <= times[i + 1] for i in range(len(times) - 1))

    def sorted_by_issue(self) -> "Trace":
        """A copy of the trace in non-decreasing issue-time order (stable)."""
        order = sorted(range(len(self)), key=self.issue_ms.__getitem__)
        return Trace(
            [self.issue_ms[i] for i in order],
            [self.lbns[i] for i in order],
            [self.counts[i] for i in order],
            [self.ops[i] for i in order],
        )

    def shift_to(self, start_ms: float) -> "Trace":
        """Shift every timestamp so the first request issues at ``start_ms``
        (in place; returns self).  No-op on an empty trace."""
        if self.issue_ms:
            shift = start_ms - self.issue_ms[0]
            if shift:
                self.issue_ms = [t + shift for t in self.issue_ms]
        return self

    def slice(self, start: int, stop: int | None = None) -> "Trace":
        return Trace(
            self.issue_ms[start:stop],
            self.lbns[start:stop],
            self.counts[start:stop],
            self.ops[start:stop],
        )

    def iter_chunks(self, chunk_requests: int = 65536) -> Iterator["Trace"]:
        """Yield the trace as consecutive bounded slices (same schema).

        This is the bridge between one-shot traces and the streaming replay
        path (:mod:`repro.sim.stream`): ``Trace.from_chunks(t.iter_chunks(k))``
        reassembles ``t`` exactly for every chunk size, and streamed replay of
        the chunks is bitwise-identical to one-shot replay of ``t``.
        """
        if chunk_requests <= 0:
            raise RequestError("chunk_requests must be positive")
        for start in range(0, len(self), chunk_requests):
            yield self.slice(start, start + chunk_requests)

    @classmethod
    def from_chunks(cls, chunks: Iterable["Trace"]) -> "Trace":
        """Assemble one trace by concatenating chunk traces in order."""
        trace = cls()
        for chunk in chunks:
            trace.issue_ms.extend(chunk.issue_ms)
            trace.lbns.extend(chunk.lbns)
            trace.counts.extend(chunk.counts)
            trace.ops.extend(chunk.ops)
        return trace

    def aligned_fraction(self, geometry: "DiskGeometry") -> float:
        """Fraction of requests that exactly cover one whole track: each
        starts on its track's first LBN and spans the track's LBNs."""
        if not self.lbns:
            return 0.0
        aligned = 0
        for lbn, count in zip(self.lbns, self.counts):
            first, track_count = geometry.track_bounds(geometry.track_of_lbn(lbn))
            if lbn == first and count == track_count:
                aligned += 1
        return aligned / len(self.lbns)

    def describe(self) -> dict[str, float]:
        """Summary used by replay reports and benchmark JSON."""
        return {
            "requests": float(len(self)),
            "sectors": float(self.total_sectors),
            "read_fraction": self.read_fraction,
            "duration_ms": self.duration_ms,
        }


class TraceRecordingDrive:
    """A transparent :class:`DiskDrive` proxy that records every submitted
    request into a :class:`Trace`.

    Wrap a drive, hand the wrapper to any existing driver (the FFS, the
    queueing drivers, the video server) and read ``.trace`` afterwards --
    this is how the ``to_trace()`` adapters in :mod:`repro.workloads`
    capture the disk-level footprint of the macro-benchmarks.
    """

    def __init__(self, drive: "DiskDrive") -> None:
        self._drive = drive
        self.trace = Trace()

    # Delegate everything we do not explicitly intercept.
    def __getattr__(self, name: str):
        return getattr(self._drive, name)

    @property
    def inner(self) -> "DiskDrive":
        return self._drive

    def submit(self, request: DiskRequest, issue_time: float) -> CompletedRequest:
        self.trace.append(issue_time, request.lbn, request.count, request.op)
        return self._drive.submit(request, issue_time)

    def read(self, lbn: int, count: int, issue_time: float) -> CompletedRequest:
        return self.submit(DiskRequest.read(lbn, count), issue_time)

    def write(self, lbn: int, count: int, issue_time: float) -> CompletedRequest:
        return self.submit(DiskRequest.write(lbn, count), issue_time)


__all__ = ["Trace", "TraceRecord", "TraceRecordingDrive"]
