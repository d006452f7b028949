"""The trace-replay engine.

:class:`TraceReplayEngine` replays a :class:`~repro.sim.trace.Trace`
against one drive or an :class:`~repro.sim.shard.LbnRangeShard` fleet and
returns aggregate :class:`ReplayStats`.  Two replay disciplines are
supported:

* **open** replay -- requests are issued at the timestamps recorded in the
  trace; each drive applies its own actuator/bus availability, so queueing
  develops naturally when arrivals outrun service.
* **closed** replay -- trace timestamps are ignored; each drive keeps
  ``queue_depth`` requests outstanding (one by default: onereq semantics,
  Section 5.2 of the paper), issuing the next one when one completes.

Every replay runs through the one replay loop of :mod:`repro.sim.stream`
(a one-shot replay is a one-chunk stream), which serves each chunk on the
columnar kernel (:mod:`repro.sim.kernel`) or, where it is refused, on the
exact scalar oracle: one :meth:`DiskDrive.submit` per request.  Both
disciplines are deterministic: the same trace on a fresh fleet always
produces bitwise-identical statistics.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Sequence, Union

from ..disksim.drive import DiskDrive
from ..disksim.errors import RequestError
from ..disksim.sched import Scheduler, make_scheduler
from .shard import LbnRangeShard
from .trace import Trace

ReplayTarget = Union[DiskDrive, Sequence[DiskDrive], LbnRangeShard]


@dataclass
class ReplayStats:
    """Aggregate outcome of replaying one trace."""

    trace_requests: int
    issued_requests: int
    split_requests: int
    reads: int
    writes: int
    cache_hits: int
    streamed: int
    sectors: int
    start_ms: float
    end_ms: float
    response: dict[str, float]
    breakdown: dict[str, float]
    per_drive: list[dict[str, float]]
    peak_outstanding: int
    mode: str = "open"
    extras: dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    @property
    def makespan_ms(self) -> float:
        return max(0.0, self.end_ms - self.start_ms)

    @property
    def requests_per_second(self) -> float:
        """Simulated-time throughput of the fleet."""
        span = self.makespan_ms
        if span <= 0.0:
            return 0.0
        return self.issued_requests / (span / 1000.0)

    @property
    def mb_per_second(self) -> float:
        span = self.makespan_ms
        if span <= 0.0:
            return 0.0
        return (self.sectors * 512 / 1e6) / (span / 1000.0)

    @property
    def efficiency(self) -> float:
        """Fraction of mechanism-busy time spent transferring data (the
        paper's disk-efficiency metric, aggregated over the replay)."""
        busy = self.breakdown.get("busy_ms", 0.0)
        if busy <= 0.0:
            return 0.0
        return min(1.0, self.breakdown.get("media_transfer_ms", 0.0) / busy)

    def to_dict(self) -> dict:
        """JSON-serialisable form (used by the perf benchmark artifact)."""
        return {
            "trace_requests": self.trace_requests,
            "issued_requests": self.issued_requests,
            "split_requests": self.split_requests,
            "reads": self.reads,
            "writes": self.writes,
            "cache_hits": self.cache_hits,
            "streamed": self.streamed,
            "sectors": self.sectors,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "makespan_ms": self.makespan_ms,
            "requests_per_second": self.requests_per_second,
            "mb_per_second": self.mb_per_second,
            "efficiency": self.efficiency,
            "peak_outstanding": self.peak_outstanding,
            "mode": self.mode,
            "response": dict(self.response),
            "breakdown": dict(self.breakdown),
            "per_drive": [dict(d) for d in self.per_drive],
            "extras": dict(self.extras),
        }


class TraceReplayEngine:
    """Replay request traces against a drive or a sharded fleet.

    ``fast`` selects the replay implementation:

    * ``None`` (default) -- auto: use the columnar numpy kernel
      (:mod:`repro.sim.kernel`) whenever it is applicable, otherwise the
      exact scalar oracle, one :meth:`DiskDrive.submit` per request.
      Results are bitwise identical either way.
    * ``True``  -- same as auto (the flag exists so configs can pin it).
    * ``False`` -- always use the scalar oracle.

    After every replay, :attr:`last_replay_path` reports which
    implementation ran (``"kernel"`` for an open FCFS replay on the
    columnar kernel, which then dispatches in arrival order,
    ``"kernel_sched"`` for any other replay on it, which dispatches from a
    pending queue, or ``"scalar"``) and :attr:`last_fast_reason` is
    normalized to a stable vocabulary: ``"ok"`` whenever a fast path ran,
    ``"fast disabled"`` when ``fast=False`` pinned the scalar path, and
    otherwise exactly one documented refusal string from
    :mod:`repro.sim.kernel` --
    ``"numpy unavailable"``,
    ``"fault injection active"`` (a fault schedule is attached, so only
    the exact scalar path -- which advances the seeded fault RNG in
    service order -- may produce numbers),
    ``"defective geometry"``,
    ``"out-of-order bus"``,
    ``"firmware-cache-sensitive reuse"`` or
    ``"scheduler not kernel-vectorizable"``.  A trace holding an invalid
    request (unknown opcode, non-positive count, negative LBN, or past the
    fleet's capacity) reports nothing: the replay raises
    :class:`~repro.disksim.errors.RequestError` for that request.
    Streaming replays
    (:meth:`replay_stream`/:meth:`replay_closed_stream`) may additionally
    report ``last_replay_path == "mixed"`` (kernel and scalar chunks in
    one stream) and the refusal
    ``"scheduler not chunk-vectorizable"`` (scheduled streams run the
    exact scalar queue loops).

    ``scheduler`` selects the drive-level dispatch policy (a name from
    :func:`repro.disksim.sched.available_schedulers`, a
    :class:`~repro.disksim.sched.Scheduler` instance used as a per-drive
    prototype, or ``None`` = FCFS).  Under FCFS every replay is served in
    arrival order, on the kernel or the scalar oracle, and a starvation
    bound never changes that schedule.  A one-shot replay under any other
    policy runs on the same kernel, dispatching from its pending queue
    (``last_replay_path == "kernel_sched"``), whenever it is applicable,
    and on the exact scalar queue loop otherwise; results are bitwise
    identical either way.

    Every replay runs through the one replay loop of :mod:`repro.sim.stream`
    (a one-shot replay is a one-chunk stream), so its timestamps are checked
    like a stream's: a NaN or negative one raises
    :class:`~repro.disksim.errors.ConfigError` naming its index.

    ``queue_depth`` applies to closed replay only: each drive keeps up to
    that many requests outstanding (admitting the next trace request when
    one completes), giving the scheduler a queue to reorder.  Depth 1 is
    the classic onereq discipline.
    """

    def __init__(
        self,
        target: ReplayTarget,
        fast: bool | None = None,
        scheduler: "str | Scheduler | None" = None,
        starvation_ms: float | None = None,
        queue_depth: int = 1,
    ) -> None:
        if queue_depth < 1:
            raise RequestError("queue_depth must be positive")
        if isinstance(target, LbnRangeShard):
            self.fleet = target
        elif isinstance(target, DiskDrive):
            self.fleet = LbnRangeShard([target])
        else:
            self.fleet = LbnRangeShard(list(target))
        self.fast = fast
        self.scheduler = make_scheduler(scheduler, starvation_ms)
        self.scheduler_name = self.scheduler.name
        self.queue_depth = queue_depth
        self.last_replay_path: str | None = None
        self.last_fast_reason: str | None = None

    # ------------------------------------------------------------------ #
    # Open replay
    # ------------------------------------------------------------------ #
    def replay(self, trace: Trace, reset: bool = True) -> ReplayStats:
        """Open replay: issue every request at its trace timestamp.

        The trace is sorted into issue order and replayed as one chunk of
        a stream (:func:`repro.sim.stream.replay_once`).  Under FCFS each
        shard's requests are serviced in arrival order by the columnar
        kernel when it is enabled (``fast`` is ``None`` or ``True``) and
        applicable, and otherwise by one :meth:`DiskDrive.submit` per
        request.  A request that crosses a drive boundary is split into one
        piece per drive on either path.

        With a non-FCFS scheduler, requests are admitted at their
        timestamps into each drive's pending queue and dispatched by the
        policy; the kernel serves the whole trace when applicable, the
        exact scalar queue loop otherwise.  The returned statistics are
        bitwise identical whichever path runs.
        """
        from .stream import replay_once

        return replay_once(self, trace, "open", 0.0, reset)

    def _route(self, ordered: Trace) -> tuple[list, list, list, list]:
        """Route a chunk into per-shard request columns, keeping its row
        order (arrival order in an open replay, trace order in a closed
        one).

        Returns ``(ops, lbns, counts, issue_times)``, each a list with one
        per-shard column.  Single-drive fleets reuse the trace columns
        directly; multi-drive fleets take the inlined single-shard routing
        with the general splitting path for boundary-crossing requests.
        """
        fleet = self.fleet
        n_shards = len(fleet)
        if n_shards == 1:
            # Single-drive replay: the trace columns feed the service loop
            # directly, no per-request routing work at all.
            fleet.routed_requests += len(ordered)
            return (
                [ordered.ops],
                [ordered.lbns],
                [ordered.counts],
                [ordered.issue_ms],
            )
        shard_ops: list[list] = [[] for _ in range(n_shards)]
        shard_lbns: list[list] = [[] for _ in range(n_shards)]
        shard_counts: list[list] = [[] for _ in range(n_shards)]
        shard_times: list[list] = [[] for _ in range(n_shards)]
        starts = [fleet.shard_range(s)[0] for s in range(n_shards)]
        ends = [fleet.shard_range(s)[1] for s in range(n_shards)]
        route = fleet.route
        bisect = bisect_right
        routed = 0
        for t, lbn, count, op in zip(
            ordered.issue_ms, ordered.lbns, ordered.counts, ordered.ops
        ):
            # Inlined single-shard routing; boundary-crossing requests
            # take the general (splitting, counted) path.
            shard = bisect(starts, lbn) - 1
            if 0 <= shard < n_shards and lbn + count <= ends[shard] and lbn >= 0:
                shard_ops[shard].append(op)
                shard_lbns[shard].append(lbn - starts[shard])
                shard_counts[shard].append(count)
                shard_times[shard].append(t)
                routed += 1
                continue
            for piece in route(lbn, count):
                shard_ops[piece.shard].append(op)
                shard_lbns[piece.shard].append(piece.lbn)
                shard_counts[piece.shard].append(piece.count)
                shard_times[piece.shard].append(t)
        fleet.routed_requests += routed
        return shard_ops, shard_lbns, shard_counts, shard_times

    # ------------------------------------------------------------------ #
    # Closed replay
    # ------------------------------------------------------------------ #
    def replay_closed(
        self, trace: Trace, think_ms: float = 0.0, reset: bool = True
    ) -> ReplayStats:
        """Closed replay: one request outstanding per drive (onereq).

        Trace timestamps are ignored; each shard's requests are serviced in
        trace order, each issued when the previous one on that shard
        completes (plus ``think_ms``).  The trace is replayed as one chunk
        of a stream, on the kernel's pending-queue dispatch when applicable
        (FCFS at depth 1 is a degenerate schedule it reproduces bitwise,
        including the empty ``extras``), otherwise through the exact
        scalar loop.

        A non-FCFS scheduler or ``queue_depth > 1`` keeps up to
        ``queue_depth`` requests outstanding per drive: the first ones are
        admitted at time zero, every completion admits the next one, and
        the scheduler picks among the queued requests at every dispatch.
        """
        from .stream import replay_once

        return replay_once(self, trace, "closed", think_ms, reset)

    # ------------------------------------------------------------------ #
    # Streaming replay
    # ------------------------------------------------------------------ #
    def replay_stream(self, chunks, reset: bool = True) -> ReplayStats:
        """Open replay of a chunked trace stream with bounded memory.

        ``chunks`` is a :class:`~repro.sim.stream.TraceStream`, a
        :class:`Trace` (streamed via :meth:`Trace.iter_chunks`), or any
        iterable of trace chunks with globally non-decreasing timestamps.
        Chunks are consumed one at a time with warm-state continuation;
        the returned statistics are **bitwise identical** to
        :meth:`replay` of the concatenated trace.  ``last_replay_path``
        may additionally report ``"mixed"`` when some chunks ran on the
        kernel and others fell back to the scalar path.
        """
        from .stream import replay_stream

        return replay_stream(self, chunks, reset=reset)

    def replay_closed_stream(
        self, chunks, think_ms: float = 0.0, reset: bool = True
    ) -> ReplayStats:
        """Closed replay of a chunked trace stream with bounded memory.

        Bitwise identical to :meth:`replay_closed` of the concatenated
        trace.  Non-FCFS policies and ``queue_depth > 1`` stream through
        the exact scalar queue loops (``last_fast_reason`` reports
        ``"scheduler not chunk-vectorizable"``); FCFS depth-1 chunks use
        the kernel's pending-queue dispatch with a carried per-shard clock.
        """
        from .stream import replay_closed_stream

        return replay_closed_stream(self, chunks, think_ms=think_ms, reset=reset)


__all__ = ["ReplayStats", "TraceReplayEngine"]
