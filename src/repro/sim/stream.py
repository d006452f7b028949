"""The replay core: every trace replay runs here, as a stream of chunks.

A :class:`TraceStream` is a lazy sequence of bounded columnar
:class:`~repro.sim.trace.Trace` chunks sharing one global timeline.  One
chunk loop, :func:`_replay`, consumes a stream chunk by chunk with
**warm-state continuation** -- actuator/bus availability, head position,
firmware-cache contents, per-shard clocks, scheduler queues and every
statistics fold carry across chunk boundaries -- so the returned
:class:`~repro.sim.engine.ReplayStats` is **bitwise identical** to a
one-shot replay of the concatenated trace, while memory stays proportional
to the chunk size (plus two 8-byte floats per request for the
response/outstanding statistics).

A one-shot replay (:meth:`TraceReplayEngine.replay` /
:meth:`TraceReplayEngine.replay_closed`, served by :func:`replay_once`) is
a one-chunk stream through the same loop, and every replay -- one-shot
or streamed, kernel or scalar -- folds its results through the one
aggregator here, :class:`_StreamAggregator`.  Every request row is checked
once, by :func:`_check_rows`, as its chunk enters the loop and before any
row of that chunk is served.

Path selection lives in :func:`_kernel_gate` (replay-wide) and
:func:`_replay` (per chunk).  Each chunk runs on the columnar kernel
(:func:`repro.sim.kernel._service_shard`) when the gate and the chunk's
:func:`repro.sim.kernel.eligible_shard_columns` allow it, and otherwise on
the exact scalar oracle (:class:`_Oracle`): one
:meth:`~repro.disksim.drive.DiskDrive.submit` per routed request.  Mixing
is bitwise-safe because both paths leave identical drive state.  Chunks
whose reads would touch cache state left by *earlier* chunks fall back
(the dynamic :func:`repro.sim.kernel.warm_cache_clean` gate), so cache-hit
servicing stays on the exact scalar path.  By discipline:

* **open FCFS** -- kernel chunks dispatch in arrival order; oracle chunks
  submit each request at its arrival.
* **closed FCFS, depth 1** (classic onereq) -- kernel chunks dispatch from
  the kernel's pending queue; oracle chunks submit sequentially; both on
  one carried per-shard clock.
* **scheduled** (a non-FCFS policy, or closed depth > 1) -- the kernel
  cannot carry its pending queue across chunks, so only a one-shot replay
  may run on it; a stream runs the oracle's persistent queue loops and
  reports :data:`SCHED_STREAM_REASON`.

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

from ..disksim.drive import DiskRequest, row_problem
from ..disksim.errors import ConfigError, RequestError
from ..faults import fleet_fault_extras
from .kernel import (
    _numpy,
    _service_shard,
    count_routing,
    eligible_shard_columns,
    fleet_eligibility,
    trace_columns,
)
from .trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from ..disksim.drive import CompletedRequest
    from .engine import ReplayStats, TraceReplayEngine
    from .shard import LbnRangeShard

#: Default chunk size (requests) used by stream builders.
DEFAULT_CHUNK_REQUESTS = 65536

#: Slice size for the C-speed left-fold over response times and for the
#: peak-outstanding scan at finalize.
_FOLD_SLICE = 262144


# --------------------------------------------------------------------------- #
# TraceStream
# --------------------------------------------------------------------------- #

class TraceStream:
    """A lazy, single-use sequence of bounded :class:`Trace` chunks.

    Wraps any iterable of trace chunks (a generator, a list, another
    stream) and checks nothing itself: the replay loop checks every row,
    its timestamp included, as the row's chunk enters (:func:`_check_rows`).
    """

    def __init__(self, chunks: "Iterable[Trace]") -> None:
        self._chunks = iter(chunks)

    @classmethod
    def from_trace(
        cls, trace: "Trace", chunk_requests: int = DEFAULT_CHUNK_REQUESTS
    ) -> "TraceStream":
        """Stream view of a materialized trace (see ``Trace.iter_chunks``)."""
        return cls(trace.iter_chunks(chunk_requests))

    def __iter__(self) -> Iterator["Trace"]:
        return self._chunks

    def materialize(self) -> "Trace":
        """Assemble the remaining chunks into one trace (consumes the
        stream)."""
        return Trace.from_chunks(self)


# --------------------------------------------------------------------------- #
# The request check
# --------------------------------------------------------------------------- #

def _check_rows(
    np, capacity: "int | None", chunk: "Trace", base: int = 0, previous=None
):
    """The replay loop's one request check, run on each chunk before any
    of its rows is served.

    Raises :class:`~repro.disksim.errors.RequestError` for the chunk's
    first invalid row by :func:`~repro.disksim.drive.row_problem` (which
    checks a row's timestamp before its request), named by its global index
    ``base + k``.  ``previous`` is None when the replay does not require
    its rows in time order; otherwise it is the timestamp of the row before
    the chunk (``-inf`` before the first), and each row's timestamp must not
    be below the one ahead of it.  With numpy, vectorized tests over
    :func:`trace_columns` find that row, and the check returns those columns
    as the kernel takes them, ``(lbns, counts, issue, is_read)``.  Without
    numpy, or when some row's timestamp, LBN or count does not convert, the
    rule itself runs row by row; without numpy the check returns None, and
    ``capacity`` may be None there to skip the capacity clause.
    """
    rows = range(len(chunk))
    if np is not None:
        try:
            lbns, counts, issue, op_codes = trace_columns(np, chunk)
        except (TypeError, ValueError, OverflowError):
            pass  # some row holds no float64 or int64: the rule names it
        else:
            # ``capacity - counts``: ``lbns + counts`` could overflow int64.
            bad = np.isnan(issue) | (issue < 0.0) | (op_codes == 2)
            bad |= (counts <= 0) | (lbns < 0) | (lbns > capacity - counts)
            if previous is not None:
                bad[0] |= issue[0] < previous
                bad[1:] |= issue[1:] < issue[:-1]
            rows = np.flatnonzero(bad)[:1].tolist()
    times = chunk.issue_ms
    for k in rows:
        ahead = times[k - 1] if k and previous is not None else previous
        problem = row_problem(
            chunk.ops[k], chunk.lbns[k], chunk.counts[k], capacity, times[k], ahead
        )
        if problem is not None:
            raise RequestError(f"request #{base + k}: {problem}")
    if np is None:
        return None
    return lbns, counts, issue, op_codes == 0


def _in_arrival_order(chunk: "Trace", columns):
    """``chunk`` and its checked ``columns`` stably sorted by issue time."""
    order = sorted(range(len(chunk)), key=chunk.issue_ms.__getitem__)
    chunk = Trace(
        *(
            [column[k] for k in order]
            for column in (chunk.issue_ms, chunk.lbns, chunk.counts, chunk.ops)
        )
    )
    if columns is not None:
        columns = tuple(column[order] for column in columns)
    return chunk, columns


# --------------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------------- #

class _ShardAgg:
    """Per-shard fold state: response events plus breakdown accumulators.

    The one place a served request is folded, whichever path served it:
    the oracle's requests through :meth:`_StreamAggregator.add_completed`,
    the kernel's by :func:`~repro.sim.kernel._service_shard` itself.  Only
    ``issues``/``completions`` grow with the stream (8 bytes per request
    each, in service order); every per-request timing term is added to its
    running sum as its request completes, one exact left fold over the
    shard's requests in service order, whatever the chunking.  (The
    built-in ``sum`` of floats is compensated from Python 3.12 on, so it
    could neither continue a fold across chunks nor match the kernel's
    ``+=``.)"""

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
    and streamed replays, kernel and scalar chunks all fold into its
    per-shard :class:`_ShardAgg` fold targets.  Every float statistic is a
    left fold in one fixed order (per-request within a shard, shards in
    order), and the span is read from the sorted event columns at
    :meth:`finalize`, so the finalized stats do not depend on the chunking
    or on which path served each chunk."""

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

    # ------------------------------------------------------------------ #
    def add_completed(self, shard: int, done: "CompletedRequest") -> None:
        """Fold one request the scalar oracle served on ``shard``."""
        agg = self.shards[shard]
        agg.issues.append(done.issue_time)
        agg.completions.append(done.completion)
        agg.requests += 1
        agg.seek += done.seek_ms
        agg.settle += done.settle_ms
        agg.latency += done.rotational_latency_ms
        agg.head_switch += done.head_switch_ms
        agg.transfer += done.media_transfer_ms
        agg.bus += done.bus_ms
        agg.overlap += done.bus_overlap_ms
        agg.busy += done.media_busy_ms

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
        start_ms, end_ms, peak = self._span_and_peak()
        span = max(0.0, end_ms - start_ms)
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
            start_ms=start_ms,
            end_ms=end_ms,
            response=self._summarize(issued),
            breakdown=breakdown,
            per_drive=per_drive,
            peak_outstanding=peak,
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
            # Each column is a fresh difference, never a view of the events,
            # so the merged copy may be sorted in place once the per-shard
            # columns are dropped.
            ordered = np.concatenate(columns) if len(columns) > 1 else columns[0]
            del columns, resp
            ordered.sort()
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

    def _span_and_peak(self) -> tuple[float, float, int]:
        """``(start_ms, end_ms, peak_outstanding)``: the first issue, the
        last completion and the most requests in flight at any issue, read
        from every shard's issue and completion events, each sorted.

        With numpy each event kind is concatenated into one copy and sorted
        in place (the shards' own events stay in service order:
        :func:`run_service` pairs them again after this), and the peak is
        read in bounded slices of the issues."""
        np = _numpy()
        if np is not None:
            issues = np.concatenate(
                [np.frombuffer(agg.issues, dtype=np.float64) for agg in self.shards]
            )
            issues.sort()
            comps = np.concatenate(
                [
                    np.frombuffer(agg.completions, dtype=np.float64)
                    for agg in self.shards
                ]
            )
            comps.sort()
            peak = 0
            for lo in range(0, issues.shape[0], _FOLD_SLICE):
                part = issues[lo:lo + _FOLD_SLICE]
                # Issue k (1-based) is the k-th in flight, less the
                # completions at or before it.
                outstanding = np.arange(
                    lo + 1, lo + part.shape[0] + 1
                ) - np.searchsorted(comps, part, side="right")
                peak = max(peak, int(outstanding.max()))
            return float(issues[0]), float(comps[-1]), peak
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
        return all_issues[0], all_completions[-1], peak

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
# The replay loop
# --------------------------------------------------------------------------- #

def _counted(agg: _StreamAggregator, stream: "Iterable[Trace]") -> Iterator["Trace"]:
    """Iterate non-empty chunks, counting every trace row into ``agg``."""
    for chunk in stream:
        agg.trace_requests += len(chunk)
        if len(chunk):
            yield chunk


def _as_stream(chunks) -> "Iterable[Trace]":
    """``chunks`` as an iterable of trace chunks: a whole :class:`Trace`
    streams in :data:`DEFAULT_CHUNK_REQUESTS`-row chunks."""
    if isinstance(chunks, Trace):
        return chunks.iter_chunks(DEFAULT_CHUNK_REQUESTS)
    return chunks


#: Refusal reason reported when a scheduled (non-FCFS or deep-queue)
#: replay streams through the exact scalar queue loops: the kernel cannot
#: carry its pending queue across chunk columns.
SCHED_STREAM_REASON = "scheduler not chunk-vectorizable"


def _scheduled(engine: "TraceReplayEngine", mode: str) -> bool:
    """Whether ``engine`` replays ``mode`` from a pending queue (a non-FCFS
    policy, or a closed queue deeper than one)."""
    return engine.scheduler_name != "fcfs" or (
        mode == "closed" and engine.queue_depth > 1
    )


def _kernel_gate(engine: "TraceReplayEngine", scheduled: bool, one_shot: bool):
    """Replay-wide kernel availability: ``(np, None)``, or ``(None, reason)``.

    Checked in this order: ``fast=False``; a scheduled replay that is not
    one-shot (:data:`SCHED_STREAM_REASON`); numpy; the scheduler's kernel
    hooks (scheduled replays only); the drives.  Cache state is not checked
    here: :func:`repro.sim.kernel.eligible_shard_columns` guards each chunk.
    """
    from ..disksim.sched import kernel_fallback_reason

    if engine.fast is not None and not engine.fast:
        return None, "fast disabled"
    if scheduled and not one_shot:
        return None, SCHED_STREAM_REASON
    np = _numpy()
    if np is None:
        return None, "numpy unavailable"
    reason = (
        kernel_fallback_reason(engine.scheduler) if scheduled else None
    ) or fleet_eligibility(engine.fleet)
    if reason is not None:
        return None, reason
    return np, None


class _DriveQueue:
    """One drive's persistent queue-loop state: its scheduler (bound to the
    drive), the routed rows buffered but not yet admitted, and the
    closed-loop admission flags."""

    __slots__ = ("sched", "ops", "lbns", "counts", "times", "filling", "owed")

    def __init__(self, sched, drive) -> None:
        sched.bind(drive)
        self.sched = sched
        self.ops: list = []
        self.lbns: list = []
        self.counts: list = []
        self.times: list = []
        self.filling = True
        self.owed = False

    def extend(self, ops, lbns, counts, times) -> None:
        self.ops.extend(ops)
        self.lbns.extend(lbns)
        self.counts.extend(counts)
        self.times.extend(times)

    def consume(self, i: int) -> None:
        """Drop the first ``i`` buffered rows (admitted)."""
        del self.ops[:i], self.lbns[:i], self.counts[:i], self.times[:i]


class _Oracle:
    """The exact scalar oracle: serves every chunk the kernel does not.

    One :meth:`~repro.disksim.drive.DiskDrive.submit` per routed request,
    each completed request folded straight into the aggregator, in the
    replay's discipline:

    * **open FCFS** -- each request is submitted at its arrival;
    * **closed FCFS, depth 1** (onereq) -- each request is submitted when
      the previous one on its drive completes, plus ``think_ms``, on the
      per-shard clock ``now`` that kernel chunks carry too;
    * **open scheduled** -- requests are admitted to a persistent per-drive
      queue at their timestamps, and the policy picks each dispatch when
      the mechanism frees up (or at the next arrival, when idle);
    * **closed scheduled** -- each drive keeps ``queue_depth`` requests
      outstanding: the first are admitted at time zero, every completion
      admits the next one (plus ``think_ms``).

    The scheduled loops bind a clone of the engine's scheduler to every
    drive when the oracle first serves a chunk and keep it across chunks:
    each admission is a ``push``, each dispatch a ``pop`` whose entry the
    drive serves with ``submit``.  The drives themselves hold no queue.  A
    decision a later chunk could change waits for that chunk: an open
    dispatch decided at or past the last buffered timestamp (a later
    request may arrive by then), and a closed dispatch while an admission
    is owed to a row not yet buffered.  Recomputed once the next chunk is
    buffered, the decision time is the same (neither the queue nor the
    buffer head moved), so admissions and dispatch order match an
    unchunked replay.  :meth:`drain` finishes the queues when the stream
    ends.
    """

    def __init__(
        self,
        engine: "TraceReplayEngine",
        mode: str,
        think_ms: float,
        scheduled: bool,
        agg: _StreamAggregator,
        now: list[float],
    ) -> None:
        self.engine = engine
        self.drives = engine.fleet.drives
        self.open = mode == "open"
        self.think_ms = think_ms
        self.scheduled = scheduled
        self.agg = agg
        self.now = now
        self.queues: list[_DriveQueue] | None = None

    def serve(self, chunk: "Trace") -> None:
        routed = zip(self.drives, *self.engine._route(chunk))
        add = self.agg.add_completed
        if self.scheduled:
            if self.queues is None:
                self.queues = [
                    _DriveQueue(self.engine.scheduler.clone(), drive)
                    for drive in self.drives
                ]
            for s, (drive, *columns) in enumerate(routed):
                queue = self.queues[s]
                queue.extend(*columns)
                self._dispatch(s, drive, queue, float(chunk.issue_ms[-1]))
        elif self.open:
            for s, (drive, ops, lbns, counts, times) in enumerate(routed):
                submit = drive.submit
                for op, lbn, count, t in zip(ops, lbns, counts, times):
                    add(s, submit(DiskRequest(op, lbn, count), t))
        else:
            think_ms = self.think_ms
            now = self.now
            for s, (drive, ops, lbns, counts, _times) in enumerate(routed):
                submit = drive.submit
                t = now[s]
                for op, lbn, count in zip(ops, lbns, counts):
                    done = submit(DiskRequest(op, lbn, count), t)
                    add(s, done)
                    t = done.completion + think_ms
                now[s] = t

    def drain(self) -> int:
        """Finish the persistent queues at the end of the stream; returns
        their forced-dispatch count."""
        if self.queues is None:
            return 0
        for s, (drive, queue) in enumerate(zip(self.drives, self.queues)):
            self._dispatch(s, drive, queue, None)
        return sum(queue.sched.forced_dispatches for queue in self.queues)

    def _dispatch(
        self, s: int, drive, queue: _DriveQueue, last_ts: float | None
    ) -> None:
        """Run drive ``s``'s queue loop as far as its buffered rows decide
        it.  ``last_ts`` is the last buffered timestamp, or None once the
        stream has ended: then the loop drains the queue."""
        final = last_ts is None
        sched = queue.sched
        ops, lbns, counts, times = queue.ops, queue.lbns, queue.counts, queue.times
        n = len(ops)
        i = 0
        add = self.agg.add_completed
        push = sched.push
        pop = sched.pop
        submit = drive.submit
        if self.open:
            horizon = math.inf if final else last_ts
            while i < n or len(sched):
                if len(sched):
                    now = drive.actuator_free
                else:
                    now = times[i]
                    if drive.actuator_free > now:
                        now = drive.actuator_free
                if now >= horizon:
                    break  # a later chunk may hold a request arriving by now
                while i < n and times[i] <= now:
                    push(DiskRequest(ops[i], lbns[i], counts[i]), times[i])
                    i += 1
                entry = pop(now)
                add(s, submit(entry.request, entry.issue_time))
            queue.consume(i)
            return

        depth = self.engine.queue_depth
        think_ms = self.think_ms
        now = self.now
        if queue.filling:
            while i < n and len(sched) < depth:
                push(DiskRequest(ops[i], lbns[i], counts[i]), now[s])
                i += 1
            if len(sched) < depth and not final:
                queue.consume(i)  # the fill may complete with later rows
                return
            queue.filling = False
        if queue.owed:
            if i < n:
                push(DiskRequest(ops[i], lbns[i], counts[i]), now[s])
                i += 1
            elif not final:
                return  # the owed row is still in a later chunk
            queue.owed = False
        while len(sched):
            decision = drive.actuator_free
            if now[s] > decision:
                decision = now[s]
            entry = pop(decision)
            done = submit(entry.request, entry.issue_time)
            add(s, done)
            now[s] = done.completion + think_ms
            if i < n:
                push(DiskRequest(ops[i], lbns[i], counts[i]), now[s])
                i += 1
            elif not final:
                # The admission owed here lives in a later chunk; perform
                # it before the next dispatch.
                queue.owed = True
                break
        queue.consume(i)


def _replay(
    engine: "TraceReplayEngine",
    stream: "Iterable[Trace]",
    mode: str,
    think_ms: float,
    reset: bool,
    one_shot: bool,
):
    """Replay ``stream`` in ``mode`` on ``engine``'s fleet; returns
    ``(stats, aggregator)``.

    The one chunk loop behind every replay.  Each chunk it pulls is checked
    first (:func:`_check_rows`): a chunk holding an invalid row, its
    timestamp included, raises :class:`~repro.disksim.errors.RequestError`
    naming the row's global index before any of its rows is served.  An
    open stream must arrive in time order, so its check carries the
    previous row's timestamp across chunks.  A one-shot open chunk is
    checked in the caller's row order, then sorted into arrival order; a
    closed replay never requires order.
    Each chunk then runs on the kernel
    (:func:`repro.sim.kernel._service_shard`, per shard) when the
    replay-wide :func:`_kernel_gate` and the chunk's
    :func:`~repro.sim.kernel.eligible_shard_columns` allow it, and
    otherwise on the exact scalar :class:`_Oracle`.  Both leave identical
    drive state and continue the same folds, so the paths mix chunk by
    chunk.  The next chunk is pulled only after the current one is
    served.  A scheduled replay runs on the kernel only ``one_shot`` (one
    chunk), since the kernel cannot carry its pending queue across chunks.
    Clears the engine's ``last_replay_path``/``last_fast_reason`` when it
    starts and sets them when it finishes, so a replay that raises reports
    nothing.
    """
    from ..disksim.sched import FCFSScheduler

    engine.last_replay_path = engine.last_fast_reason = None
    fleet = engine.fleet
    if reset:
        fleet.reset()
    scheduled = _scheduled(engine, mode)
    np, refusal = _kernel_gate(engine, scheduled, one_shot)
    agg = _StreamAggregator(fleet, mode)
    now = [0.0] * len(fleet.drives)
    oracle = _Oracle(engine, mode, think_ms, scheduled, agg, now)
    # An FCFS replay serves arrival order whatever the engine's scheduler
    # (an FCFS subclass included), as the oracle does; a plain FCFS
    # scheduler gives the kernel that order.
    policy = engine.scheduler if scheduled else FCFSScheduler()
    kernel_chunks = scalar_chunks = forced = 0
    previous = -math.inf if mode == "open" and not one_shot else None
    for chunk in _counted(agg, stream):
        base = agg.trace_requests - len(chunk)
        # Checked with numpy whenever it imports, kernel or not.
        checked = _check_rows(_numpy(), fleet.total_lbns, chunk, base, previous)
        if previous is not None:
            previous = float(chunk.issue_ms[-1])
        if one_shot and mode == "open" and not chunk.is_time_ordered():
            chunk, checked = _in_arrival_order(chunk, checked)
        shard_cols = None
        if np is not None:
            shard_cols, split, reason = eligible_shard_columns(np, fleet, checked)
            if refusal is None:
                refusal = reason
        del checked  # served from the chunk or shard_cols: free the unsplit columns
        if shard_cols is None:
            scalar_chunks += 1
            oracle.serve(chunk)
            continue
        kernel_chunks += 1
        count_routing(fleet, shard_cols, split)
        for s, (columns, drive) in enumerate(zip(shard_cols, fleet.drives)):
            if not int(columns[0].shape[0]):
                continue
            sched = policy.clone()
            sched.kernel_reset()
            shard_forced, now[s] = _service_shard(
                np, drive, sched, *columns, mode, engine.queue_depth,
                think_ms, agg.shards[s], now[s],
            )
            forced += shard_forced
    forced += oracle.drain()
    stats = agg.finalize()
    if not kernel_chunks:
        engine.last_replay_path = "scalar"
        engine.last_fast_reason = refusal
    else:
        if scalar_chunks:
            engine.last_replay_path = "mixed"
        elif mode == "open" and not scheduled:
            engine.last_replay_path = "kernel"
        else:
            engine.last_replay_path = "kernel_sched"
        engine.last_fast_reason = "ok"
    if scheduled:
        stats.extras["forced_dispatches"] = float(forced)
    return stats, agg


def replay_once(
    engine: "TraceReplayEngine",
    trace: "Trace",
    mode: str,
    think_ms: float,
    reset: bool,
) -> "ReplayStats":
    """One-shot replay (see :meth:`TraceReplayEngine.replay` and
    :meth:`TraceReplayEngine.replay_closed`): ``trace`` as a one-chunk
    stream.  An invalid row, a NaN or negative timestamp included, raises
    :class:`RequestError` naming its index in ``trace``; its rows need not
    be in time order (an open replay sorts them after the check)."""
    stats, _agg = _replay(engine, [trace], mode, think_ms, reset, one_shot=True)
    return stats


def replay_stream(
    engine: "TraceReplayEngine", chunks, reset: bool = True
) -> "ReplayStats":
    """Open streaming replay (see :meth:`TraceReplayEngine.replay_stream`)."""
    stats, _agg = _replay(engine, _as_stream(chunks), "open", 0.0, reset, one_shot=False)
    return stats


def replay_closed_stream(
    engine: "TraceReplayEngine",
    chunks,
    think_ms: float = 0.0,
    reset: bool = True,
) -> "ReplayStats":
    """Closed streaming replay (see
    :meth:`TraceReplayEngine.replay_closed_stream`)."""
    stats, _agg = _replay(
        engine, _as_stream(chunks), "closed", think_ms, reset, one_shot=False
    )
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
    stats, agg = _replay(engine, _as_stream(chunks), "open", 0.0, reset, one_shot=False)
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
