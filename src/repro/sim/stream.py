"""The replay core: every trace replay runs here, as a stream of chunks.

A :class:`TraceStream` is a lazy sequence of bounded columnar
:class:`~repro.sim.trace.Trace` chunks sharing one global timeline.  The
drivers in this module consume a stream chunk by chunk with **warm-state
continuation** -- actuator/bus availability, head position, firmware-cache
contents, per-shard clocks and every statistics fold carry across chunk
boundaries -- so the returned :class:`~repro.sim.engine.ReplayStats` is
**bitwise identical** to a one-shot replay of the concatenated trace, while
memory stays proportional to the chunk size (plus two 8-byte floats per
request for the response/outstanding statistics).

A one-shot replay (:meth:`TraceReplayEngine.replay` /
:meth:`TraceReplayEngine.replay_closed`, served by :func:`replay_once`) is
a one-chunk stream through the same drivers, and every replay -- one-shot
or streamed, kernel or scalar -- folds its results through the one
aggregator here, :class:`_StreamAggregator`.

Path selection per replay discipline:

* **open FCFS** -- each chunk is serviced by the columnar kernel
  (:func:`repro.sim.kernel._service_shard`, dispatching in arrival order)
  with accumulator-fold carry whenever the chunk is eligible, falling back
  per chunk otherwise to the exact scalar oracle: one
  :meth:`~repro.disksim.drive.DiskDrive.submit` per routed request, in
  arrival order.  Mixing is bitwise-safe because both paths leave
  identical drive state.  Chunks whose reads would touch cache state left
  by *earlier* chunks fall back (the dynamic
  :func:`repro.sim.kernel.warm_cache_clean` gate), so cache-hit servicing
  stays on the exact scalar path.
* **closed FCFS, depth 1** (classic onereq) -- chunks go through the same
  kernel, dispatching from its pending queue, with a carried per-shard
  clock, or through an exact sequential scalar loop.
* **open non-FCFS** -- exact scalar persistent-queue streaming: each
  drive's scheduler queue survives across chunks, and dispatch decisions
  at or beyond the next chunk's first timestamp are deferred until that
  chunk arrives (requests that would have been admitted first in a
  one-shot replay are then admitted first here too).
* **closed non-FCFS or depth > 1** -- exact scalar persistent-queue
  streaming; admissions owed at a chunk boundary are performed before the
  next dispatch, so the queue always holds exactly what an unchunked
  replay's would hold.

The kernel cannot carry a pending queue across chunks, so a scheduled
replay uses it only one-shot: :func:`replay_once` tries
:func:`repro.sim.kernel.replay_kernel_sched` on the whole trace before its
one chunk takes the scalar queue loop.

The open-loop **service scenario** (:func:`run_service`) replays an
arrival-process stream against an LBN-sharded fleet and reports
:class:`ServiceStats`: tail response times (p50/p99/p999), SLO-violation
fraction, saturation throughput and per-drive queue-depth time series.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from ..disksim.drive import BatchResult, DiskRequest
from ..disksim.errors import ConfigError, RequestError
from ..disksim.geometry import _numpy
from ..faults import fleet_fault_extras
from .trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from .engine import ReplayStats, TraceReplayEngine
    from .kernel import _ShardOutcome
    from .shard import LbnRangeShard

#: Default chunk size (requests) used by stream builders.
DEFAULT_CHUNK_REQUESTS = 65536

#: Slice size for the C-speed left-fold over response times at finalize.
_FOLD_SLICE = 262144


# --------------------------------------------------------------------------- #
# TraceStream
# --------------------------------------------------------------------------- #

class TraceStream:
    """A lazy, validated sequence of bounded :class:`Trace` chunks.

    Wraps any iterable of trace chunks (a generator, a list, another
    stream).  As chunks are drawn, their timestamps are validated --
    **NaN** and **negative** timestamps always fail, and with
    ``require_ordered=True`` (the default, and required for open-loop
    streaming) **non-monotonic** timestamps fail too -- with a loud
    :class:`~repro.disksim.errors.ConfigError` naming the offending global
    request index, instead of corrupting replay ordering silently.

    A stream is single-use: it can be iterated once.
    """

    def __init__(
        self,
        chunks: "Iterable[Trace]",
        require_ordered: bool = True,
        validate: bool = True,
    ) -> None:
        self._chunks = iter(chunks)
        self.require_ordered = require_ordered
        self.validate = validate
        self._index = 0
        self._last_ts: float | None = None

    @classmethod
    def from_trace(
        cls,
        trace: "Trace",
        chunk_requests: int = DEFAULT_CHUNK_REQUESTS,
        require_ordered: bool = True,
        validate: bool = True,
    ) -> "TraceStream":
        """Stream view of a materialized trace (see ``Trace.iter_chunks``)."""
        return cls(
            trace.iter_chunks(chunk_requests),
            require_ordered=require_ordered,
            validate=validate,
        )

    def __iter__(self) -> Iterator["Trace"]:
        for chunk in self._chunks:
            if self.validate and len(chunk):
                self._validate(chunk)
            self._index += len(chunk)
            yield chunk

    def materialize(self) -> "Trace":
        """Assemble the remaining chunks into one trace (consumes the
        stream)."""
        return Trace.from_chunks(self)

    # ------------------------------------------------------------------ #
    def _validate(self, chunk: "Trace") -> None:
        times = chunk.issue_ms
        base = self._index
        np = _numpy()
        if np is not None:
            arr = np.asarray(times, dtype=np.float64)
            bad = np.isnan(arr)
            if bad.any():
                k = int(bad.argmax())
                raise ConfigError(f"NaN timestamp at request #{base + k}")
            neg = arr < 0.0
            if neg.any():
                k = int(neg.argmax())
                raise ConfigError(
                    f"negative timestamp {times[k]!r} at request #{base + k}"
                )
            if self.require_ordered:
                prev = self._last_ts
                if prev is not None and times[0] < prev:
                    raise ConfigError(
                        f"non-monotonic timestamp at request #{base}: "
                        f"{times[0]!r} < {prev!r}"
                    )
                if arr.shape[0] > 1:
                    drop = arr[1:] < arr[:-1]
                    if drop.any():
                        k = int(drop.argmax()) + 1
                        raise ConfigError(
                            f"non-monotonic timestamp at request #{base + k}: "
                            f"{times[k]!r} < {times[k - 1]!r}"
                        )
        else:
            prev = self._last_ts
            for k, t in enumerate(times):
                if t != t:
                    raise ConfigError(f"NaN timestamp at request #{base + k}")
                if t < 0.0:
                    raise ConfigError(
                        f"negative timestamp {t!r} at request #{base + k}"
                    )
                if self.require_ordered:
                    if prev is not None and t < prev:
                        raise ConfigError(
                            f"non-monotonic timestamp at request #{base + k}: "
                            f"{t!r} < {prev!r}"
                        )
                    prev = t
        if self.require_ordered:
            self._last_ts = times[-1]


# --------------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------------- #

def _fold(acc: float, values) -> float:
    """``acc + values[0] + values[1] + ...``, added left to right.

    The built-in ``sum`` of floats is compensated from Python 3.12 on, so
    ``sum(b, sum(a))`` can differ from ``sum(a + b)``: it cannot continue
    one fold across chunks, nor match the kernel's plain ``+=``."""
    for value in values:
        acc += value
    return acc


class _ShardAgg:
    """Per-shard fold state: response events plus breakdown accumulators.

    Only ``issues``/``completions`` grow with the stream (8 bytes per
    request each); every per-request timing column is folded into its
    running sum as chunks complete, continuing one exact left fold over
    the shard's requests in service order, whatever the chunking: scalar
    chunks through :func:`_fold`, kernel chunks with the kernel's own
    ``+=``."""

    __slots__ = (
        "issues", "completions", "requests", "seek", "settle", "latency",
        "head_switch", "transfer", "bus", "overlap", "busy",
    )

    def __init__(self) -> None:
        self.issues = array("d")
        self.completions = array("d")
        self.requests = 0
        self.seek = 0.0
        self.settle = 0.0
        self.latency = 0.0
        self.head_switch = 0.0
        self.transfer = 0.0
        self.bus = 0.0
        self.overlap = 0.0
        self.busy = 0.0


class _StreamAggregator:
    """Accumulates chunk results into one bitwise-exact ``ReplayStats``.

    The only builder of :class:`~repro.sim.engine.ReplayStats`: one-shot
    and streamed replays, kernel and scalar chunks all fold through it.
    Every float statistic is a left fold in one fixed order (per-request
    within a shard, shards in order), so the finalized stats do not depend
    on the chunking or on which path served each chunk."""

    def __init__(self, fleet: "LbnRangeShard", mode: str) -> None:
        self.fleet = fleet
        self.mode = mode
        self.shards = [_ShardAgg() for _ in fleet.drives]
        # Counter deltas: snapshot after reset, so a warm-state replay
        # (reset=False) still describes only its own trace.
        self.before = fleet.combined_stats()
        self.split_before = fleet.split_requests
        self.fault_before = fleet_fault_extras(fleet)
        self.trace_requests = 0
        self.start_ms = float("inf")
        self.end_ms = float("-inf")

    # ------------------------------------------------------------------ #
    def add_scalar(self, shard: int, result: "BatchResult") -> None:
        """Fold one chunk's scalar ``BatchResult`` for ``shard``."""
        if not len(result):
            return
        agg = self.shards[shard]
        agg.issues.extend(result.issue_times)
        agg.completions.extend(result.completions)
        agg.requests += len(result)
        agg.seek = _fold(agg.seek, result.seek_ms)
        agg.settle = _fold(agg.settle, result.settle_ms)
        agg.latency = _fold(agg.latency, result.latency_ms)
        agg.head_switch = _fold(agg.head_switch, result.head_switch_ms)
        agg.transfer = _fold(agg.transfer, result.transfer_ms)
        agg.bus = _fold(agg.bus, result.bus_ms)
        agg.overlap = _fold(agg.overlap, result.overlap_ms)
        agg.busy = _fold(agg.busy, result.media_busy_ms())
        start = min(result.issue_times)
        end = max(result.completions)
        if start < self.start_ms:
            self.start_ms = start
        if end > self.end_ms:
            self.end_ms = end

    def add_kernel(self, shard: int, out: "_ShardOutcome") -> None:
        """Fold one chunk's kernel ``_ShardOutcome`` for ``shard``.

        The kernel has already continued this shard's breakdown folds in
        place (it was handed the shard's ``_ShardAgg``); only the response
        events are added here."""
        if not out.n:
            return
        agg = self.shards[shard]
        agg.issues.extend(out.issue)
        agg.completions.extend(out.completions)
        agg.requests += out.n
        start = min(out.issue)
        end = max(out.completions)
        if start < self.start_ms:
            self.start_ms = start
        if end > self.end_ms:
            self.end_ms = end

    # ------------------------------------------------------------------ #
    def finalize(self) -> "ReplayStats":
        from .engine import ReplayStats

        issued = sum(agg.requests for agg in self.shards)
        if issued == 0:
            raise RequestError("cannot replay an empty trace")

        breakdown = {
            "seek_ms": 0.0,
            "settle_ms": 0.0,
            "rotational_latency_ms": 0.0,
            "head_switch_ms": 0.0,
            "media_transfer_ms": 0.0,
            "bus_ms": 0.0,
            "bus_overlap_ms": 0.0,
            "busy_ms": 0.0,
        }
        per_drive: list[dict[str, float]] = []
        for agg in self.shards:
            breakdown["seek_ms"] += agg.seek
            breakdown["settle_ms"] += agg.settle
            breakdown["rotational_latency_ms"] += agg.latency
            breakdown["head_switch_ms"] += agg.head_switch
            breakdown["media_transfer_ms"] += agg.transfer
            breakdown["bus_ms"] += agg.bus
            breakdown["bus_overlap_ms"] += agg.overlap
            breakdown["busy_ms"] += agg.busy
            per_drive.append(
                {"requests": float(agg.requests), "busy_ms": agg.busy}
            )

        fleet = self.fleet
        combined = fleet.combined_stats()
        before = self.before
        span = max(0.0, self.end_ms - self.start_ms)
        for entry in per_drive:
            entry["utilization"] = entry["busy_ms"] / span if span > 0.0 else 0.0

        stats = ReplayStats(
            trace_requests=self.trace_requests,
            issued_requests=issued,
            split_requests=fleet.split_requests - self.split_before,
            reads=combined.reads - before.reads,
            writes=combined.writes - before.writes,
            cache_hits=combined.cache_hits - before.cache_hits,
            streamed=combined.streamed - before.streamed,
            sectors=(combined.sectors_read + combined.sectors_written)
            - (before.sectors_read + before.sectors_written),
            start_ms=self.start_ms,
            end_ms=self.end_ms,
            response=self._summarize(issued),
            breakdown=breakdown,
            per_drive=per_drive,
            peak_outstanding=self._peak_outstanding(),
            mode=self.mode,
        )
        # Fault counters (deltas, like the drive counters above) ride in
        # ``extras`` only when a fault schedule is attached -- fault-free
        # streams stay byte-identical to pre-fault output.
        fault_after = fleet_fault_extras(fleet)
        if fault_after:
            base = self.fault_before
            stats.extras.update(
                {k: v - base.get(k, 0.0) for k, v in fault_after.items()}
            )
        return stats

    # ------------------------------------------------------------------ #
    def response_columns(self):
        """Per-shard numpy response arrays (or Python lists without numpy),
        in shard order.  Used by the service-scenario statistics."""
        np = _numpy()
        columns = []
        for agg in self.shards:
            if not agg.requests:
                continue
            if np is not None:
                issues = np.frombuffer(agg.issues, dtype=np.float64)
                comps = np.frombuffer(agg.completions, dtype=np.float64)
                columns.append(comps - issues)
            else:
                columns.append(
                    [c - i for c, i in zip(agg.completions, agg.issues)]
                )
        return columns

    def _summarize(self, issued: int) -> dict[str, float]:
        """Bitwise twin of ``analysis.stats.summarize`` over the
        concatenated per-shard response lists, without materializing one
        Python list of every response.

        * ``mean``: the built-in ``sum`` left fold is continued across
          shards (and across bounded slices within a shard) by passing the
          running accumulator as the start value -- identical additions in
          identical order.
        * ``min``/``max``: exact under any evaluation order.
        * percentiles: rank selection over the sorted multiset; responses
          are strictly positive so equal doubles are bitwise equal.
        """
        np = _numpy()
        columns = self.response_columns()
        acc = 0.0
        if np is not None:
            mn = float("inf")
            mx = float("-inf")
            for resp in columns:
                for lo in range(0, resp.shape[0], _FOLD_SLICE):
                    acc = sum(resp[lo:lo + _FOLD_SLICE].tolist(), acc)
                mn = min(mn, float(resp.min()))
                mx = max(mx, float(resp.max()))
            merged = np.concatenate(columns) if len(columns) > 1 else columns[0]
            ordered = np.sort(merged)
            n = int(ordered.shape[0])
            out = {"mean": acc / issued, "min": mn, "max": mx}
            for key, fraction in (
                ("p50", 0.50), ("p90", 0.90), ("p95", 0.95),
                ("p99", 0.99), ("p999", 0.999),
            ):
                rank = min(n - 1, max(0, math.ceil(fraction * n) - 1))
                out[key] = float(ordered[rank])
            return out
        from ..analysis.stats import summarize

        responses: list[float] = []
        for resp in columns:
            responses.extend(resp)
        return summarize(responses)

    def _peak_outstanding(self) -> int:
        np = _numpy()
        if np is not None:
            issues = np.sort(
                np.concatenate(
                    [
                        np.frombuffer(agg.issues, dtype=np.float64)
                        for agg in self.shards
                    ]
                )
            )
            comps = np.sort(
                np.concatenate(
                    [
                        np.frombuffer(agg.completions, dtype=np.float64)
                        for agg in self.shards
                    ]
                )
            )
            done_before = np.searchsorted(comps, issues, side="right")
            outstanding = np.arange(1, issues.shape[0] + 1) - done_before
            return int(outstanding.max())
        all_issues: list[float] = []
        all_completions: list[float] = []
        for agg in self.shards:
            all_issues.extend(agg.issues)
            all_completions.extend(agg.completions)
        all_issues.sort()
        all_completions.sort()
        outstanding = peak = 0
        j = 0
        n_completions = len(all_completions)
        for issue in all_issues:
            while j < n_completions and all_completions[j] <= issue:
                outstanding -= 1
                j += 1
            outstanding += 1
            if outstanding > peak:
                peak = outstanding
        return peak

    def outstanding_at(self, shard: int, times) -> list[int]:
        """Queue depth of ``shard`` (in-flight requests) at each sample
        time (issues counted inclusively, completions exclusively)."""
        agg = self.shards[shard]
        np = _numpy()
        if np is not None:
            issues = np.sort(np.frombuffer(agg.issues, dtype=np.float64))
            comps = np.sort(np.frombuffer(agg.completions, dtype=np.float64))
            t = np.asarray(times, dtype=np.float64)
            depth = np.searchsorted(issues, t, side="right") - np.searchsorted(
                comps, t, side="right"
            )
            return [int(d) for d in depth]
        from bisect import bisect_right

        issues = sorted(agg.issues)
        comps = sorted(agg.completions)
        return [
            bisect_right(issues, t) - bisect_right(comps, t) for t in times
        ]


# --------------------------------------------------------------------------- #
# Streaming replay drivers
# --------------------------------------------------------------------------- #

def _counted(agg: _StreamAggregator, stream: "TraceStream") -> Iterator["Trace"]:
    """Iterate non-empty chunks, counting every trace row into ``agg``."""
    for chunk in stream:
        agg.trace_requests += len(chunk)
        if len(chunk):
            yield chunk


def _as_stream(chunks, require_ordered: bool) -> TraceStream:
    if isinstance(chunks, TraceStream):
        return chunks
    if isinstance(chunks, Trace):
        return TraceStream.from_trace(chunks, require_ordered=require_ordered)
    return TraceStream(chunks, require_ordered=require_ordered)


def _kernel_gate(engine: "TraceReplayEngine"):
    """Stream-wide kernel availability: ``(np, reason)``.

    Cache state is not checked here: each chunk is guarded by the dynamic
    gates of :func:`repro.sim.kernel.eligible_shard_columns` instead.
    """
    from .kernel import fleet_eligibility

    if engine.fast is not None and not engine.fast:
        return None, "fast disabled"
    np = _numpy()
    if np is None:
        return None, "numpy unavailable"
    reason = fleet_eligibility(engine.fleet)
    if reason is not None:
        return None, reason
    return np, None


def _finish(engine, agg, kernel_chunks, scalar_chunks, kernel_path, reason):
    stats = agg.finalize()
    if kernel_chunks and scalar_chunks:
        engine.last_replay_path = "mixed"
    elif kernel_chunks:
        engine.last_replay_path = kernel_path
    else:
        engine.last_replay_path = "scalar"
    if kernel_chunks:
        engine.last_fast_reason = "ok"
    else:
        engine.last_fast_reason = reason if reason is not None else "ok"
    return stats, agg


def _stream_open_fcfs(
    engine: "TraceReplayEngine", stream: TraceStream, reset: bool
):
    """Open FCFS streaming: per-chunk kernel service with fold carry,
    per-chunk scalar ``submit`` fallback (bitwise-safe mixing)."""
    from ..disksim.sched import FCFSScheduler
    from .kernel import _service_shard, count_routing, eligible_shard_columns

    fleet = engine.fleet
    if reset:
        fleet.reset()
    np, first_refusal = _kernel_gate(engine)
    agg = _StreamAggregator(fleet, "open")
    # The scalar chunks serve arrival order whatever the engine's scheduler
    # (an FCFS subclass included); a plain FCFS scheduler gives the kernel
    # chunks that same order.
    fcfs = FCFSScheduler()
    kernel_chunks = scalar_chunks = 0
    for chunk in _counted(agg, stream):
        shard_cols = None
        if np is not None:
            shard_cols, split, reason = eligible_shard_columns(np, fleet, chunk)
            if shard_cols is None and first_refusal is None:
                first_refusal = reason
        if shard_cols is not None:
            kernel_chunks += 1
            count_routing(fleet, shard_cols, split)
            for shard, ((s_lbns, s_counts, s_issue, s_read), drive) in enumerate(
                zip(shard_cols, fleet.drives)
            ):
                if not int(s_lbns.shape[0]):
                    continue
                out, _forced, _now = _service_shard(
                    np, drive, fcfs, s_lbns, s_counts, s_issue, s_read,
                    "open", 1, 0.0, agg.shards[shard],
                )
                agg.add_kernel(shard, out)
            continue
        scalar_chunks += 1
        shard_ops, shard_lbns, shard_counts, shard_times = engine._route_open(
            chunk
        )
        for shard, drive in enumerate(fleet.drives):
            result = BatchResult()
            for op, lbn, count, t in zip(
                shard_ops[shard], shard_lbns[shard], shard_counts[shard],
                shard_times[shard],
            ):
                result.append_completed(drive.submit(DiskRequest(op, lbn, count), t))
            agg.add_scalar(shard, result)
    return _finish(
        engine, agg, kernel_chunks, scalar_chunks, "kernel", first_refusal
    )


def _stream_closed_fcfs(
    engine: "TraceReplayEngine",
    stream: TraceStream,
    think_ms: float,
    reset: bool,
):
    """Closed FCFS depth-1 (onereq) streaming with a carried per-shard
    clock; kernel chunks via the kernel's pending-queue dispatch, scalar
    chunks via the exact per-shard sequential loop.  Shards share no state
    (each drive has its own fault RNG and spare), so serving them one after
    another gives the same per-shard results as any fleet-wide
    interleaving."""
    from .kernel import _service_shard, count_routing, eligible_shard_columns

    fleet = engine.fleet
    if reset:
        fleet.reset()
    np, first_refusal = _kernel_gate(engine)
    agg = _StreamAggregator(fleet, "closed")
    now = [0.0] * len(fleet.drives)
    kernel_chunks = scalar_chunks = 0
    for chunk in _counted(agg, stream):
        shard_cols = None
        if np is not None:
            shard_cols, split, reason = eligible_shard_columns(np, fleet, chunk)
            if shard_cols is None and first_refusal is None:
                first_refusal = reason
        if shard_cols is not None:
            kernel_chunks += 1
            count_routing(fleet, shard_cols, split)
            for shard, ((s_lbns, s_counts, s_issue, s_read), drive) in enumerate(
                zip(shard_cols, fleet.drives)
            ):
                if not int(s_lbns.shape[0]):
                    continue
                sched = engine.scheduler.clone()
                sched.kernel_reset()
                out, _forced, now[shard] = _service_shard(
                    np, drive, sched, s_lbns, s_counts, s_issue, s_read,
                    "closed", 1, think_ms, agg.shards[shard], now[shard],
                )
                agg.add_kernel(shard, out)
            continue
        scalar_chunks += 1
        queues = engine._route_closed(chunk)
        for shard, drive in enumerate(fleet.drives):
            queue = queues[shard]
            if not queue:
                continue
            result = BatchResult()
            t = now[shard]
            for op, lbn, count in queue:
                done = drive.submit(DiskRequest(op, lbn, count), t)
                result.append_completed(done)
                t = done.completion + think_ms
            now[shard] = t
            agg.add_scalar(shard, result)
    return _finish(
        engine, agg, kernel_chunks, scalar_chunks, "kernel_sched", first_refusal
    )


#: Refusal reason reported when a scheduled (non-FCFS or deep-queue)
#: replay streams through the exact scalar queue loops: the scheduled
#: kernel's pending-queue state cannot be carried across chunk columns.
SCHED_STREAM_REASON = "scheduler not chunk-vectorizable"


def _stream_open_scheduled(
    engine: "TraceReplayEngine", stream: TraceStream, reset: bool
):
    """Open scheduled streaming: exact scalar queue loops with persistent
    per-drive schedulers and one-chunk lookahead.

    Requests are *admitted* at their trace timestamps but *dispatched* by
    the scheduler: whenever a drive's mechanism is ready for its next
    access, every request that has arrived by that instant is a candidate
    and the policy picks one.  Streaming defers any decision at or beyond
    the next chunk's first timestamp (``horizon``) until that chunk has
    been buffered: recomputing the decision time after appending rows
    provably yields the same value (the pending queue and the buffer head
    are unchanged), so admission sets -- and therefore dispatch order --
    match a one-chunk replay of the whole trace exactly."""
    fleet = engine.fleet
    if reset:
        fleet.reset()
    agg = _StreamAggregator(fleet, "open")
    n_shards = len(fleet.drives)
    scheds = [engine.scheduler.clone() for _ in range(n_shards)]
    buf_ops: list[list] = [[] for _ in range(n_shards)]
    buf_lbns: list[list] = [[] for _ in range(n_shards)]
    buf_counts: list[list] = [[] for _ in range(n_shards)]
    buf_times: list[list] = [[] for _ in range(n_shards)]
    for drive, sched in zip(fleet.drives, scheds):
        drive.attach_scheduler(sched)
    try:
        chunks = _counted(agg, stream)
        current = next(chunks, None)
        while current is not None:
            nxt = next(chunks, None)
            final = nxt is None
            horizon = float("inf") if final else nxt.issue_ms[0]
            shard_ops, shard_lbns, shard_counts, shard_times = (
                engine._route_open(current)
            )
            for s in range(n_shards):
                buf_ops[s].extend(shard_ops[s])
                buf_lbns[s].extend(shard_lbns[s])
                buf_counts[s].extend(shard_counts[s])
                buf_times[s].extend(shard_times[s])
            for s, drive in enumerate(fleet.drives):
                sched = scheds[s]
                ops = buf_ops[s]
                lbns = buf_lbns[s]
                counts = buf_counts[s]
                times = buf_times[s]
                n = len(ops)
                i = 0
                result = BatchResult()
                enqueue = drive.enqueue
                while i < n or len(sched):
                    if len(sched) == 0:
                        if i >= n:
                            break  # wait for later chunks
                        now = times[i]
                        if drive.actuator_free > now:
                            now = drive.actuator_free
                    else:
                        now = drive.actuator_free
                    if not final and now >= horizon:
                        # A later chunk may hold a request that arrives by
                        # ``now``; defer this dispatch until it is buffered.
                        break
                    while i < n and times[i] <= now:
                        enqueue(DiskRequest(ops[i], lbns[i], counts[i]), times[i])
                        i += 1
                    done = drive.dispatch_next(now)
                    result.append_completed(done)
                if i:
                    del ops[:i], lbns[:i], counts[:i], times[:i]
                agg.add_scalar(s, result)
            current = nxt
        forced = sum(sched.forced_dispatches for sched in scheds)
    finally:
        for drive in fleet.drives:
            drive.attach_scheduler(None)
    engine.last_replay_path = "scalar"
    engine.last_fast_reason = (
        "fast disabled"
        if engine.fast is not None and not engine.fast
        else SCHED_STREAM_REASON
    )
    stats = agg.finalize()
    stats.extras["forced_dispatches"] = float(forced)
    return stats, agg


def _stream_closed_scheduled(
    engine: "TraceReplayEngine",
    stream: TraceStream,
    think_ms: float,
    reset: bool,
):
    """Closed scheduled streaming (non-FCFS policy or depth > 1): exact
    scalar queue loops with persistent per-drive schedulers.

    Each drive keeps up to ``queue_depth`` requests outstanding: the first
    ``queue_depth`` are admitted at time zero and every completion admits
    the next one (plus ``think_ms``), so dispatch and admission alternate
    strictly after the initial depth-filling phase.  At a chunk boundary
    the loop breaks *before* the next dispatch whenever an admission is
    owed but the row lives in a later chunk, so the pending queue always
    holds exactly what a one-chunk replay of the whole trace would hold."""
    fleet = engine.fleet
    if reset:
        fleet.reset()
    agg = _StreamAggregator(fleet, "closed")
    n_shards = len(fleet.drives)
    depth = engine.queue_depth
    scheds = [engine.scheduler.clone() for _ in range(n_shards)]
    buffers: list[list[tuple[str, int, int]]] = [[] for _ in range(n_shards)]
    now = [0.0] * n_shards
    filling = [True] * n_shards
    owed = [False] * n_shards
    for drive, sched in zip(fleet.drives, scheds):
        drive.attach_scheduler(sched)
    try:
        chunks = _counted(agg, stream)
        current = next(chunks, None)
        while current is not None:
            nxt = next(chunks, None)
            final = nxt is None
            queues = engine._route_closed(current)
            for s in range(n_shards):
                buffers[s].extend(queues[s])
            for s, drive in enumerate(fleet.drives):
                sched = scheds[s]
                rows = buffers[s]
                i = 0
                n = len(rows)
                enqueue = drive.enqueue
                result = BatchResult()
                if filling[s]:
                    while i < n and len(sched) < depth:
                        op, lbn, count = rows[i]
                        enqueue(DiskRequest(op, lbn, count), now[s])
                        i += 1
                    if len(sched) < depth and not final:
                        # The fill may complete with later chunks' rows.
                        del rows[:i]
                        continue
                    filling[s] = False
                if owed[s]:
                    if i < n:
                        op, lbn, count = rows[i]
                        enqueue(DiskRequest(op, lbn, count), now[s])
                        i += 1
                        owed[s] = False
                    elif not final:
                        # The owed row is still in a later chunk; no
                        # dispatch may happen before it is admitted.
                        continue
                    else:
                        owed[s] = False  # stream over: drain what is queued
                while len(sched):
                    decision = drive.actuator_free
                    if now[s] > decision:
                        decision = now[s]
                    done = drive.dispatch_next(decision)
                    result.append_completed(done)
                    now[s] = done.completion + think_ms
                    if i < n:
                        op, lbn, count = rows[i]
                        enqueue(DiskRequest(op, lbn, count), now[s])
                        i += 1
                    elif not final:
                        # The admission owed here lives in a later chunk;
                        # perform it before the next dispatch.
                        owed[s] = True
                        break
                del rows[:i]
                agg.add_scalar(s, result)
            current = nxt
        forced = sum(sched.forced_dispatches for sched in scheds)
    finally:
        for drive in fleet.drives:
            drive.attach_scheduler(None)
    engine.last_replay_path = "scalar"
    engine.last_fast_reason = (
        "fast disabled"
        if engine.fast is not None and not engine.fast
        else SCHED_STREAM_REASON
    )
    stats = agg.finalize()
    stats.extras["forced_dispatches"] = float(forced)
    return stats, agg


def _scheduled(engine: "TraceReplayEngine", mode: str) -> bool:
    """Whether ``engine`` replays ``mode`` through the pending-queue loops
    (a non-FCFS policy, or a closed queue deeper than one)."""
    return engine.scheduler_name != "fcfs" or (
        mode == "closed" and engine.queue_depth > 1
    )


def _drive(
    engine: "TraceReplayEngine",
    stream: TraceStream,
    mode: str,
    think_ms: float,
    reset: bool,
):
    """Run ``stream`` through the driver for ``engine``'s discipline;
    returns ``(stats, aggregator)``."""
    if mode == "open":
        if _scheduled(engine, mode):
            return _stream_open_scheduled(engine, stream, reset)
        return _stream_open_fcfs(engine, stream, reset)
    if _scheduled(engine, mode):
        return _stream_closed_scheduled(engine, stream, think_ms, reset)
    return _stream_closed_fcfs(engine, stream, think_ms, reset)


def replay_once(
    engine: "TraceReplayEngine",
    trace: "Trace",
    mode: str,
    think_ms: float,
    reset: bool,
) -> "ReplayStats":
    """One-shot replay (see :meth:`TraceReplayEngine.replay` and
    :meth:`TraceReplayEngine.replay_closed`): ``trace`` as a one-chunk
    stream.

    A NaN or negative timestamp raises :class:`ConfigError`.  A scheduled
    replay first tries the kernel on the whole trace
    (:func:`repro.sim.kernel.replay_kernel_sched`); on refusal its one
    chunk runs through the exact scalar queue loop, and the kernel's
    refusal reason is reported.
    """
    # Check the timestamps before sorting, so an error names the index in
    # the caller's trace.
    list(TraceStream([trace], require_ordered=False))
    if mode == "open" and not trace.is_time_ordered():
        trace = trace.sorted_by_issue()
    stream = TraceStream([trace], validate=False)
    if not _scheduled(engine, mode):
        stats, _agg = _drive(engine, stream, mode, think_ms, reset)
        return stats
    if engine.fast is not None and not engine.fast:
        reason = "fast disabled"
    else:
        from .kernel import replay_kernel_sched

        stats, reason = replay_kernel_sched(
            engine.fleet,
            trace,
            engine.scheduler,
            mode=mode,
            queue_depth=engine.queue_depth,
            think_ms=think_ms,
            reset=reset,
        )
        if stats is not None:
            engine.last_replay_path = "kernel_sched"
            engine.last_fast_reason = "ok"
            return stats
    stats, _agg = _drive(engine, stream, mode, think_ms, reset)
    engine.last_fast_reason = reason
    return stats


def replay_stream(
    engine: "TraceReplayEngine", chunks, reset: bool = True
) -> "ReplayStats":
    """Open streaming replay (see :meth:`TraceReplayEngine.replay_stream`)."""
    stream = _as_stream(chunks, require_ordered=True)
    stats, _agg = _drive(engine, stream, "open", 0.0, reset)
    return stats


def replay_closed_stream(
    engine: "TraceReplayEngine",
    chunks,
    think_ms: float = 0.0,
    reset: bool = True,
) -> "ReplayStats":
    """Closed streaming replay (see
    :meth:`TraceReplayEngine.replay_closed_stream`)."""
    stream = _as_stream(chunks, require_ordered=False)
    stats, _agg = _drive(engine, stream, "closed", think_ms, reset)
    return stats


# --------------------------------------------------------------------------- #
# The open-loop storage-service scenario
# --------------------------------------------------------------------------- #

@dataclass
class ServiceStats:
    """Outcome of an open-loop storage-service run.

    Wraps the bitwise-exact :class:`ReplayStats` of the underlying
    streamed replay and adds the service-level view: tail response times,
    SLO violations, saturation throughput (open-loop extrapolation of the
    achieved throughput to 100% utilization of the busiest drive) and a
    bounded per-drive queue-depth time series.

    With a fault schedule attached (:mod:`repro.faults`) the service view
    additionally reports degraded-mode metrics: ``failed_requests`` /
    ``redirected_requests`` (requests lost to fail-stop or retry-budget
    exhaustion, and requests a spare absorbed), ``error_fraction`` and
    ``availability`` (= 1 - error_fraction; redirected requests count as
    served).  Failed requests complete at command-decode time, so the
    response percentiles during an uncovered fail-stop describe only what
    the service actually answered -- read them together with
    ``availability``.  These fields serialize only when faults are
    attached, keeping fault-free payloads byte-identical to pre-fault
    output.
    """

    replay: "ReplayStats"
    slo_ms: float
    slo_violations: int
    slo_violation_fraction: float
    saturation_rps: float
    queue_depth_times_ms: list[float]
    queue_depth_per_drive: list[list[int]]
    failed_requests: int = 0
    redirected_requests: int = 0
    error_fraction: float = 0.0
    availability: float = 1.0

    # ------------------------------------------------------------------ #
    @property
    def requests(self) -> int:
        return self.replay.issued_requests

    @property
    def throughput_rps(self) -> float:
        return self.replay.requests_per_second

    @property
    def mean_response_ms(self) -> float:
        return self.replay.response["mean"]

    @property
    def p50_ms(self) -> float:
        return self.replay.response["p50"]

    @property
    def p99_ms(self) -> float:
        return self.replay.response["p99"]

    @property
    def p999_ms(self) -> float:
        return self.replay.response["p999"]

    @property
    def max_response_ms(self) -> float:
        return self.replay.response["max"]

    @property
    def faulted(self) -> bool:
        """True when the underlying replay ran with a fault schedule."""
        return "fault_failed_requests" in self.replay.extras

    def to_dict(self) -> dict:
        data = {
            "requests": self.requests,
            "throughput_rps": self.throughput_rps,
            "saturation_rps": self.saturation_rps,
            "slo_ms": self.slo_ms,
            "slo_violations": self.slo_violations,
            "slo_violation_fraction": self.slo_violation_fraction,
            "response_p50_ms": self.p50_ms,
            "response_p99_ms": self.p99_ms,
            "response_p999_ms": self.p999_ms,
            "response_mean_ms": self.mean_response_ms,
            "response_max_ms": self.max_response_ms,
            "queue_depth_times_ms": list(self.queue_depth_times_ms),
            "queue_depth_per_drive": [
                list(series) for series in self.queue_depth_per_drive
            ],
            "replay": self.replay.to_dict(),
        }
        if self.faulted:
            data["failed_requests"] = self.failed_requests
            data["redirected_requests"] = self.redirected_requests
            data["error_fraction"] = self.error_fraction
            data["availability"] = self.availability
        return data


def run_service(
    engine: "TraceReplayEngine",
    chunks,
    slo_ms: float = 50.0,
    queue_samples: int = 64,
    reset: bool = True,
) -> ServiceStats:
    """Drive ``engine``'s fleet under sustained open-loop load.

    ``chunks`` is a :class:`TraceStream` (or any iterable of trace chunks),
    typically produced by an arrival-process generator from
    :mod:`repro.workloads.arrivals`.  The replay itself is the
    bitwise-exact open streaming replay; the service-level statistics are
    derived from its response/outstanding event streams.
    """
    if slo_ms <= 0.0:
        raise ConfigError("slo_ms must be positive")
    if queue_samples <= 0:
        raise ConfigError("queue_samples must be positive")
    stream = _as_stream(chunks, require_ordered=True)
    stats, agg = _drive(engine, stream, "open", 0.0, reset)
    fleet = engine.fleet

    # ---- SLO violations ------------------------------------------------ #
    np = _numpy()
    violations = 0
    for resp in agg.response_columns():
        if np is not None:
            violations += int((resp > slo_ms).sum())
        else:
            violations += sum(1 for r in resp if r > slo_ms)
    fraction = violations / stats.issued_requests

    # ---- saturation throughput ----------------------------------------- #
    max_util = 0.0
    for entry in stats.per_drive:
        if entry["utilization"] > max_util:
            max_util = entry["utilization"]
    saturation = (
        stats.requests_per_second / max_util if max_util > 0.0 else 0.0
    )

    # ---- per-drive queue-depth time series ------------------------------ #
    span = stats.makespan_ms
    if queue_samples == 1 or span <= 0.0:
        times = [stats.start_ms]
    else:
        step = span / (queue_samples - 1)
        times = [stats.start_ms + k * step for k in range(queue_samples)]
    per_drive = [
        agg.outstanding_at(shard, times) for shard in range(len(fleet.drives))
    ]

    # ---- degraded-mode metrics (non-trivial only with faults attached) -- #
    failed = int(stats.extras.get("fault_failed_requests", 0.0))
    redirected = int(stats.extras.get("fault_redirected_requests", 0.0))
    error_fraction = failed / stats.issued_requests
    availability = 1.0 - error_fraction

    return ServiceStats(
        replay=stats,
        slo_ms=slo_ms,
        slo_violations=violations,
        slo_violation_fraction=fraction,
        saturation_rps=saturation,
        queue_depth_times_ms=times,
        queue_depth_per_drive=per_drive,
        failed_requests=failed,
        redirected_requests=redirected,
        error_fraction=error_fraction,
        availability=availability,
    )


__all__ = [
    "DEFAULT_CHUNK_REQUESTS",
    "SCHED_STREAM_REASON",
    "ServiceStats",
    "TraceStream",
    "replay_closed_stream",
    "replay_stream",
    "run_service",
]
