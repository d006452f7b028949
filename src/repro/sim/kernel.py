"""Columnar fast-path replay kernel: shard-local service with numpy.

One kernel, :func:`_service_shard`, serves every kernel-class replay: the
chunks of an open FCFS stream (reported as ``"kernel"``), closed FCFS
depth-1 chunks and every whole-trace :func:`replay_kernel_sched` replay
(``"kernel_sched"``).  It services a shard-local request stream with the
per-request work split into two phases:

* **vectorized precompute** -- everything that is a pure function of the
  request stream and the immutable drive configuration is computed with
  numpy array math up front: LBN -> (track, cylinder, surface, slot)
  translation (``searchsorted`` over the per-track tables), seek-curve
  evaluation (a per-curve lookup table), media-transfer and bus-transfer
  columns, request validation and shard routing (a request that crosses
  a shard boundary is split into one piece per drive, as
  :meth:`~repro.sim.shard.LbnRangeShard.route` splits it);
* **serial recurrence** -- only the state that genuinely chains from one
  request to the next (actuator free time, bus free time, head position,
  queue admission and the rotation-phase-dependent latency) runs in a
  tight Python loop over the precomputed columns, with the arithmetic of
  the scalar ``DiskDrive.submit`` path kept operation for operation so the
  produced :class:`~repro.sim.engine.ReplayStats` is bitwise identical to
  the scalar path.  The same loop folds the eight breakdown terms with
  plain ``+=`` in service order.

The scheduler class picks the dispatch order.  Under FCFS in open mode
every dispatch takes the oldest pending request, which is always the next
one in arrival order (a starvation bound can only force that same
request), so the kernel dispatches in arrival order: it keeps no pending
queue, and seek and head-switch times are vectorized columns over the
previous request's end track.  Every other replay (a reordering policy,
or closed mode at any depth) admits requests to a pending queue, and the
scheduler's ``kernel_select`` hook scores the whole queue against the
columns (:class:`~repro.disksim.sched.KernelQueueView`) at each dispatch,
mirroring ``Scheduler.pop``.  Both dispatch orders share the single-track
service arithmetic and the multi-track fallback below.

The kernel refuses (returns a reason, and the caller falls back to the
exact scalar path) whenever its model could diverge from the scalar one:

* numpy is not importable,
* a fault schedule is attached to some drive,
* any drive's geometry has slipped/remapped defects,
* any drive uses an out-of-order bus,
* the trace exhibits *firmware-cache-sensitive reuse*: some read's start
  LBN falls inside another read's cached-plus-readahead window
  (:func:`_cache_sensitive`, static and conservative: it ignores request
  ordering, LRU eviction and write invalidation, all of which only make
  real hits less likely), or inside a segment or prefetch window the
  cache already holds (:func:`warm_cache_clean`, which lets warm-state
  continuations and later chunks of a stream keep the kernel), so the
  scalar path could serve cache hits or prefetch streams the kernel does
  not model, or
* (:func:`replay_kernel_sched`) a scheduler subclass overrides the scalar
  policy hooks without matching kernel hooks:
  ``"scheduler not kernel-vectorizable"``.

Requests that span multiple tracks are serviced through the drive's exact
scalar code with state synced both ways, so unaligned traces still replay
through the kernel.

On caching-enabled drives the kernel performs the same
``record_read``/``record_write`` cache bookkeeping as the scalar path
(recording cannot change this replay's results -- the reuse gates
guarantee no probe would hit), so the drive ends a kernel replay in
exactly the state a scalar replay would leave, and warm-state
continuations (``reset=False``) stay consistent whichever path serves
them.
"""
from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

from ..disksim.drive import READ, WRITE, DiskRequest
from ..disksim.geometry import _numpy

if TYPE_CHECKING:  # pragma: no cover
    from ..disksim.drive import DiskDrive
    from ..disksim.geometry import DiskGeometry
    from ..disksim.seek import SeekCurve
    from .engine import ReplayStats
    from .shard import LbnRangeShard
    from .stream import _ShardAgg
    from .trace import Trace

# --------------------------------------------------------------------------- #
# Cached per-configuration tables
# --------------------------------------------------------------------------- #

#: geometry -> (first_lbn, lbn_count, spt, skew, sector_ms) int64/float64
#: arrays, one entry per track.  Keyed weakly so cached factory geometries
#: (shared across campaign points) share one table set without leaking.
_GEOMETRY_TABLES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

#: seek curve -> {n_cylinders: float64 seek-time table}.
_SEEK_TABLES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def geometry_tables(geometry: "DiskGeometry"):
    """Per-track numpy tables for a defect-free geometry (cached).

    Values are produced by the exact same scalar formulas the drive uses
    (``sector_time_ms``, ``skew_offset``), filled zone by zone, so gathers
    from these tables are bitwise identical to the scalar lookups.
    """
    np = _numpy()
    tables = _GEOMETRY_TABLES.get(geometry)
    if tables is not None:
        return tables
    n_tracks = geometry.num_tracks
    surfaces = geometry.surfaces
    first = np.asarray(geometry._track_first_lbn, dtype=np.int64)
    count = np.asarray(geometry._track_lbn_count, dtype=np.int64)
    spt = np.empty(n_tracks, dtype=np.int64)
    skew = np.empty(n_tracks, dtype=np.int64)
    sector_ms = np.empty(n_tracks, dtype=np.float64)
    stream_ms = np.empty(n_tracks, dtype=np.float64)
    specs = geometry.specs
    for zone in geometry.zones:
        lo = zone.first_track
        hi = (zone.end_cylinder + 1) * surfaces
        zone_spt = zone.sectors_per_track
        zone_sector_ms = specs.sector_time_ms(zone_spt)
        spt[lo:hi] = zone_spt
        sector_ms[lo:hi] = zone_sector_ms
        # Sustained streaming rate including skew (what record_read feeds
        # the prefetch model) -- DiskDrive.streaming_ms_per_sector's formula.
        stream_ms[lo:hi] = zone_sector_ms * (zone_spt + zone.track_skew) / zone_spt
        # skew_offset vectorized: k head switches + cylinder crossings
        # since the start of the zone (same formula as the scalar memo).
        k = np.arange(hi - lo, dtype=np.int64)
        crossings = k // surfaces
        switches = k - crossings
        skew[lo:hi] = (
            switches * zone.track_skew + crossings * zone.cylinder_skew
        ) % zone.sectors_per_track
    tables = (first, count, spt, skew, sector_ms, stream_ms)
    _GEOMETRY_TABLES[geometry] = tables
    return tables


def seek_table(curve: "SeekCurve", n_cylinders: int):
    """``table[d] == curve.seek_time(d)`` for every distance (cached)."""
    np = _numpy()
    per_curve = _SEEK_TABLES.get(curve)
    if per_curve is None:
        per_curve = {}
        _SEEK_TABLES[curve] = per_curve
    table = per_curve.get(n_cylinders)
    if table is None:
        seek_time = curve.seek_time
        table = np.asarray(
            [seek_time(d) for d in range(n_cylinders)], dtype=np.float64
        )
        per_curve[n_cylinders] = table
    return table


def seek_table_list(curve: "SeekCurve", n_cylinders: int) -> list[float]:
    """Python-list twin of :func:`seek_table` (cached) for scalar lookups."""
    per_curve = _SEEK_TABLES.setdefault(curve, {})
    key = ("list", n_cylinders)
    table = per_curve.get(key)
    if table is None:
        table = seek_table(curve, n_cylinders).tolist()
        per_curve[key] = table
    return table


def clear_kernel_tables() -> None:
    """Drop the cached geometry/seek tables (tests and benchmarks)."""
    _GEOMETRY_TABLES.clear()
    _SEEK_TABLES.clear()


# --------------------------------------------------------------------------- #
# Eligibility
# --------------------------------------------------------------------------- #

def _cache_sensitive(np, cache, lbns, counts, is_read) -> bool:
    """Conservative static reuse check for one shard-local stream.

    True when some read's start LBN lies inside another read's
    ``[start, end + readahead]`` window -- the union of the cache segment
    and prefetch ranges a read can populate -- in which case the scalar
    path *could* serve a hit or stream and the kernel must not run.
    """
    if not cache.enable_caching:
        return False
    starts = lbns[is_read]
    if starts.size < 2:
        return False
    extra = cache.readahead_sectors if cache.enable_prefetch else 0
    rights = starts + counts[is_read] + extra
    order = np.argsort(starts, kind="stable")
    starts = starts[order]
    rights = rights[order]
    covered_until = np.maximum.accumulate(rights[:-1])
    return bool(np.any(starts[1:] <= covered_until))


def warm_cache_clean(np, cache, lbns, is_read) -> bool:
    """True when every read is a *guaranteed* clean miss against the cache's
    current (possibly warm) state.

    A probe can only return a hit or an active stream when the read's start
    LBN lies inside a cached segment ``[s, e)`` or inside the prefetch
    window, which is always contained in
    ``[_prefetch_start, _prefetch_limit]`` (checked inclusively here, which
    is conservative).  Together with the static :func:`_cache_sensitive`
    check for reuse within the stream itself, this dynamic gate keeps
    warm-state continuations and later chunks of a stream on the kernel
    after earlier requests have warmed the cache.
    """
    if not cache.enable_caching:
        return True
    starts = lbns[is_read]
    if starts.size == 0:
        return True
    hot = np.zeros(starts.shape[0], dtype=bool)
    for seg_start, seg_end in cache.segments:
        hot |= (starts >= seg_start) & (starts < seg_end)
    if cache.enable_prefetch and cache._prefetch_start is not None:
        hot |= (starts >= cache._prefetch_start) & (
            starts <= cache._prefetch_limit
        )
    return not bool(hot.any())


def fleet_eligibility(fleet: "LbnRangeShard") -> "str | None":
    """Drive-level kernel refusal reason for ``fleet``, or None if eligible.

    Shared by :func:`replay_kernel_sched` and the streaming drivers
    (:mod:`repro.sim.stream`).
    """
    for drive in fleet.drives:
        if getattr(drive, "faults", None) is not None:
            # Fault schedules advance a seeded RNG per serviced request and
            # mutate remap state mid-run; only the scalar path models that.
            return "fault injection active"
        if drive.geometry.has_defects:
            return "defective geometry"
        if not drive.bus.in_order:
            return "out-of-order bus"
    return None


def trace_columns(np, fleet: "LbnRangeShard", ordered: "Trace"):
    """Validated numpy columns for a trace already in admission order.

    Returns ``((lbns, counts, issue, is_read), None)`` on success or
    ``(None, reason)`` with the kernel's refusal vocabulary.
    """
    lbns = np.asarray(ordered.lbns, dtype=np.int64)
    counts = np.asarray(ordered.counts, dtype=np.int64)
    issue = np.asarray(ordered.issue_ms, dtype=np.float64)
    n = int(lbns.shape[0])
    op_codes = np.fromiter(
        (0 if op == READ else (1 if op == WRITE else 2) for op in ordered.ops),
        dtype=np.int8,
        count=n,
    )
    if (op_codes == 2).any():
        return None, "unknown opcode"
    is_read = op_codes == 0
    if counts.min() <= 0 or lbns.min() < 0:
        return None, "invalid request"
    if int((lbns + counts).max()) > fleet.total_lbns:
        return None, "request exceeds fleet capacity"
    return (lbns, counts, issue, is_read), None


def shard_split(np, fleet: "LbnRangeShard", lbns, counts, issue, is_read):
    """Split validated columns into per-shard local columns.

    Returns ``(shard_cols, split)``: one ``(lbns, counts, issue, is_read)``
    tuple per drive, LBNs shard-local and rows in trace order, and the
    number of requests that cross a shard boundary.  A request over ``k``
    drives becomes ``k`` pieces, one per drive, each with the request's
    timestamp and op: the pieces :meth:`LbnRangeShard.route` makes.
    """
    n_shards = len(fleet.drives)
    if n_shards == 1:
        return [(lbns, counts, issue, is_read)], 0
    starts = np.asarray(
        [fleet.shard_range(s)[0] for s in range(n_shards)], dtype=np.int64
    )
    ends = np.asarray(
        [fleet.shard_range(s)[1] for s in range(n_shards)], dtype=np.int64
    )
    shard = np.searchsorted(starts, lbns, side="right") - 1
    pieces = np.searchsorted(starts, lbns + counts - 1, side="right") - shard
    split = int(np.count_nonzero(pieces > 1))
    if split:
        # Expand every request into its pieces: piece j of request i goes
        # to drive shard[i] + j.
        row = np.repeat(np.arange(lbns.shape[0]), pieces)
        first = np.cumsum(pieces) - pieces
        shard = shard[row] + (np.arange(row.shape[0]) - first[row])
        end = np.minimum(lbns[row] + counts[row], ends[shard])
        lbns = np.maximum(lbns[row], starts[shard])
        counts = end - lbns
        issue = issue[row]
        is_read = is_read[row]
    local = lbns - starts[shard]
    shard_cols = []
    for s in range(n_shards):
        mask = shard == s
        shard_cols.append((local[mask], counts[mask], issue[mask], is_read[mask]))
    return shard_cols, split


def eligible_shard_columns(
    np, fleet: "LbnRangeShard", ordered: "Trace", warm: bool = True
):
    """Kernel-eligible per-shard columns of a trace in admission order.

    Returns ``(shard_cols, split, None)`` as :func:`shard_split` does, or
    ``(None, 0, reason)`` from :func:`trace_columns` or the cache gates:
    every read must be a guaranteed miss, both against the other reads of
    its shard (:func:`_cache_sensitive`) and, with ``warm``, against what
    the drive's cache holds now (:func:`warm_cache_clean`).  A replay that
    resets the fleet before servicing passes ``warm=False``: the caches it
    will run against are pristine.  The caller adds the routing counters
    (:func:`count_routing`) once it commits to the columns.
    """
    columns, reason = trace_columns(np, fleet, ordered)
    if reason is not None:
        return None, 0, reason
    shard_cols, split = shard_split(np, fleet, *columns)
    for (lbns, counts, _issue, is_read), drive in zip(shard_cols, fleet.drives):
        if _cache_sensitive(np, drive.cache, lbns, counts, is_read) or (
            warm and not warm_cache_clean(np, drive.cache, lbns, is_read)
        ):
            return None, 0, "firmware-cache-sensitive reuse"
    return shard_cols, split, None


def count_routing(fleet: "LbnRangeShard", shard_cols, split: int) -> None:
    """Add committed kernel columns to the fleet's routing counters, as
    :meth:`LbnRangeShard.route` counts them: one routed request per piece,
    one split request per boundary-crossing request."""
    fleet.routed_requests += sum(int(cols[0].shape[0]) for cols in shard_cols)
    fleet.split_requests += split


# --------------------------------------------------------------------------- #
# Per-shard service: vectorized precompute + serial recurrence
# --------------------------------------------------------------------------- #

class _ShardOutcome:
    """Issue and completion times of one shard's kernel replay, in service
    order (the breakdown terms are folded by the kernel itself)."""

    __slots__ = ("n", "issue", "completions")

    def __init__(self) -> None:
        self.n = 0
        self.issue: list[float] = []
        self.completions: list[float] = []


def _service_shard(
    np,
    drive: "DiskDrive",
    scheduler,
    lbns,
    counts,
    issue,
    is_read,
    mode: str,
    depth: int,
    think_ms: float,
    acc: "_ShardAgg",
    now_start: float = 0.0,
) -> "tuple[_ShardOutcome, int, float]":
    """Replay one shard-local stream: the kernel's serial recurrence.

    ``lbns``/``counts``/``issue``/``is_read`` are numpy columns in
    admission order.  Every per-request quantity that does not depend on
    dispatch order is precomputed as a numpy column; the loop below keeps
    only the irreducible serial recurrence -- actuator/bus availability,
    head position, rotation phase and queue admission.  Float arithmetic
    matches the scalar ``submit`` path operation for operation, so the
    replay is bitwise identical to the scalar loops of
    :mod:`repro.sim.stream`.

    Dispatch order comes from the scheduler class.  Under FCFS in open
    mode (FCFS's ``kernel_select``, no ``kernel_removed`` override) every
    dispatch takes the oldest pending request, which is always the next
    one in arrival order -- whatever the starvation bound, which can only
    force the oldest request: the loop walks the stream in order with no
    pending queue, and seek and head-switch times are vectorized columns.
    Otherwise requests are admitted to a pending queue (at their
    timestamps in ``mode="open"``; in ``mode="closed"`` keeping up to
    ``depth`` outstanding, the next admitted ``think_ms`` after each
    completion) and the scheduler's ``kernel_select`` hook scores the
    whole queue against the columns (a
    :class:`~repro.disksim.sched.KernelQueueView`); selection mirrors
    ``Scheduler.pop`` (starvation bound, forced-dispatch accounting, seq
    tie-breaking).

    ``acc`` (the shard's ``_ShardAgg``) seeds the eight breakdown folds,
    which are continued in service order and written back to it, so a
    chunked replay continues one left fold across chunks.  Returns the
    shard outcome, the scheduler's forced-dispatch count, and the final
    closed-loop clock (``completion + think_ms`` of the last dispatch;
    ``now_start`` echoed back in open mode or on an empty shard), which
    the next chunk of a closed stream passes back as ``now_start``.
    """
    from ..disksim.sched import (
        KERNEL_SMALL_QUEUE,
        FCFSScheduler,
        KernelQueueView,
        Scheduler,
        kernel_oldest,
    )

    out = _ShardOutcome()
    n = int(lbns.shape[0])
    out.n = n
    if n == 0:
        return out, 0, now_start

    geometry = drive.geometry
    specs = drive.specs
    bus = drive.bus
    (
        tr_first, tr_count, tr_spt, tr_skew, tr_sector_ms, tr_stream_ms,
    ) = geometry_tables(geometry)
    seek_lut = seek_table(drive.seek_curve, geometry.cylinders)
    seek_lut_l = seek_table_list(drive.seek_curve, geometry.cylinders)
    surfaces = geometry.surfaces

    # ---- vectorized translation (mirrors translate_batch) -------------- #
    track = np.searchsorted(tr_first, lbns, side="right") - 1
    empty = tr_count[track] == 0
    while empty.any():
        track = np.where(empty, track - 1, track)
        empty = tr_count[track] == 0
    first = tr_first[track]
    last = lbns + counts - 1
    etrack = np.searchsorted(tr_first, last, side="right") - 1
    empty = tr_count[etrack] == 0
    while empty.any():
        etrack = np.where(empty, etrack - 1, etrack)
        empty = tr_count[etrack] == 0
    multi = lbns + counts > first + tr_count[track]

    cyl = track // surfaces
    surf = track - cyl * surfaces
    ecyl = etrack // surfaces
    esurf = etrack - ecyl * surfaces

    cmd_ms = bus.command_overhead_ms
    bus_sector = bus.sector_ms()
    write_settle = specs.write_settle_ms
    rotation = specs.rotation_ms
    zero_latency = drive.zero_latency
    head_switch_cost = specs.head_switch_ms

    spt_col = tr_spt[track]
    skew_col = tr_skew[track]
    sector_ms_col = tr_sector_ms[track]
    start_slot_col = lbns - first
    transfer_col = counts * sector_ms_col
    total_bus_col = counts * bus_sector
    settle_col = np.where(is_read, 0.0, write_settle)

    open_mode = mode == "open"
    # The base-class removal hook is a no-op; skip the call entirely rather
    # than paying a Python call per dispatch for nothing.
    krem = (
        None
        if type(scheduler).kernel_removed is Scheduler.kernel_removed
        else scheduler.kernel_removed
    )
    arrival_order = (
        open_mode
        and krem is None
        and type(scheduler).kernel_select is FCFSScheduler.kernel_select
    )
    if open_mode:
        issue_col = issue
        issue_cmd_col = issue + cmd_ms
    else:
        # Closed mode: admission times are decided by the loop below.
        issue_col = np.zeros(n, dtype=np.float64)
        issue_cmd_col = np.zeros(n, dtype=np.float64)

    # ---- python-scalar views for the serial loop ----------------------- #
    issue_l = issue_col.tolist()
    issue_cmd_l = issue_cmd_col.tolist()
    count_l = counts.tolist()
    lbn_l = lbns.tolist()
    is_read_l = is_read.tolist()
    multi_l = multi.tolist()
    settle_l = settle_col.tolist()
    spt_l = spt_col.tolist()
    skew_l = skew_col.tolist()
    sector_ms_l = sector_ms_col.tolist()
    start_slot_l = start_slot_col.tolist()
    transfer_l = transfer_col.tolist()
    total_bus_l = total_bus_col.tolist()
    stream_ms_l = tr_stream_ms[track].tolist()
    ecyl_l = ecyl.tolist()
    esurf_l = esurf.tolist()

    if arrival_order:
        # Head position before each request: the previous request's end
        # track (a multi-track request serviced by the scalar code ends
        # there too).
        prev_cyl = np.empty_like(ecyl)
        prev_surf = np.empty_like(esurf)
        prev_cyl[0] = drive.head_cylinder
        prev_surf[0] = drive.head_surface
        prev_cyl[1:] = ecyl[:-1]
        prev_surf[1:] = esurf[:-1]
        distance = np.abs(cyl - prev_cyl)
        seek_l = seek_lut[distance].tolist()
        hs_l = np.where(
            (distance == 0) & (surf != prev_surf), head_switch_cost, 0.0
        ).tolist()
    else:
        cyl_l = cyl.tolist()
        surf_l = surf.tolist()
        span_col = np.minimum(counts, spt_col)
        span_l = span_col.tolist()
        view = KernelQueueView(
            np=np,
            rotation_ms=rotation,
            head_switch_ms=head_switch_cost,
            zero_latency=zero_latency,
            lbn_key_scale=geometry.total_lbns,
            issue=issue_col,
            issue_cmd=issue_cmd_col,
            lbn=lbns,
            track=track,
            cylinder=cyl,
            surface=surf,
            start_slot=start_slot_col,
            spt=spt_col,
            sector_ms=sector_ms_col,
            skew=skew_col,
            settle=settle_col,
            span=span_col,
            seek_lut=seek_lut,
            issue_l=issue_l,
            issue_cmd_l=issue_cmd_l,
            lbn_l=lbn_l,
            track_l=track.tolist(),
            cylinder_l=cyl_l,
            surface_l=surf_l,
            start_slot_l=start_slot_l,
            spt_l=spt_l,
            sector_ms_l=sector_ms_l,
            skew_l=skew_l,
            settle_l=settle_l,
            span_l=span_l,
            seek_lut_l=seek_lut_l,
            pos_l=list(
                zip(
                    cyl_l, surf_l, settle_l, spt_l, sector_ms_l, skew_l,
                    start_slot_l, span_l,
                )
            ),
        )
        pending = view.pending
        starvation = scheduler.starvation_ms
        ksel = scheduler.kernel_select

    # Mirror the scalar path's cache bookkeeping so a later warm-state
    # continuation (reset=False) sees exactly the cache a scalar replay
    # would have left behind.  The reuse gate guarantees no probe ever
    # *hits* during this replay, so recording cannot change its results.
    cache = drive.cache
    maintain_cache = cache.enable_caching
    record_read = cache.record_read
    record_write = cache.record_write

    completions = [0.0] * n
    order: list[int] = []  # dispatch order, when it is not arrival order
    seek_sum = acc.seek
    settle_sum = acc.settle
    latency_sum = acc.latency
    hs_sum = acc.head_switch
    transfer_sum = acc.transfer
    bus_sum = acc.bus
    overlap_sum = acc.overlap
    busy_sum = busy_start = acc.busy
    fallback_busy = 0.0
    act_free = drive.actuator_free
    b_free = drive.bus_free
    # The head sits on the end track of the previous dispatch,
    # ``ecyl_l[prev]``/``esurf_l[prev]``; before the first dispatch
    # ``prev`` is -1, the drive's starting position appended past the rows.
    ecyl_l.append(drive.head_cylinder)
    esurf_l.append(drive.head_surface)
    prev = -1
    forced = 0

    any_multi = bool(multi.any())
    service_read = drive._service_read
    service_write = drive._service_write
    account = drive._account

    # ---- the serial recurrence: admission + dispatch + service --------- #
    # One monolithic loop with every piece of live state in plain locals.
    # The pop mirror (Scheduler.pop: starvation bound first, then the
    # policy, with forced-dispatch accounting and removal hooks) and the
    # single-track service arithmetic are inlined: closure cells and
    # helper-call overhead are measurable at kernel speeds.
    now = now_start
    i = 0
    if not open_mode:
        issue_np = issue_col
        issue_cmd_np = issue_cmd_col
        # The built-in hooks and kernel_oldest read the numpy issue twins
        # only once the queue outgrows KERNEL_SMALL_QUEUE, which a closed
        # queue bounded by ``depth`` never does below that threshold -- the
        # list twins are authoritative there, so the (comparatively costly)
        # per-admission numpy scalar stores are skipped.
        sync_np = depth > KERNEL_SMALL_QUEUE
        while i < n and len(pending) < depth:
            issue_cmd_v = now + cmd_ms
            issue_l[i] = now
            issue_cmd_l[i] = issue_cmd_v
            if sync_np:
                issue_np[i] = now
                issue_cmd_np[i] = issue_cmd_v
            pending.append(i)
            i += 1

    for k in range(n):  # one dispatch per request
        if arrival_order:
            idx = k
            seek_ms = seek_l[idx]
            hs_ms = hs_l[idx]
        else:
            if open_mode:
                if pending:
                    # Busy drive: decide when the mechanism frees up.
                    decision = act_free
                else:
                    # Idle drive: the next dispatch decision happens when
                    # the next request arrives.
                    decision = issue_l[i]
                    if act_free > decision:
                        decision = act_free
                while i < n and issue_l[i] <= decision:
                    pending.append(i)
                    i += 1
            else:
                decision = act_free
                if now > decision:
                    decision = now

            # ---- pop: mirror of Scheduler.pop (starvation bound first,
            # then the policy, forced-dispatch accounting, removal hooks) #
            head_cyl = ecyl_l[prev]
            head_surf = esurf_l[prev]
            view.head_cylinder = head_cyl
            view.head_surface = head_surf
            view.actuator_free = act_free
            view._arr = None
            if starvation is not None:
                opos = kernel_oldest(view)
                oidx = pending[opos]
                if decision - issue_l[oidx] > starvation:
                    if pending[ksel(view)] != oidx:
                        forced += 1
                    del pending[opos]
                    idx = oidx
                else:
                    spos = ksel(view)
                    idx = pending[spos]
                    del pending[spos]
            else:
                spos = ksel(view)
                idx = pending[spos]
                del pending[spos]
            if krem is not None:
                krem(view, idx)
            order.append(idx)

            distance = cyl_l[idx] - head_cyl
            if distance < 0:
                distance = -distance
            seek_ms = seek_lut_l[distance]
            hs_ms = 0.0
            if distance == 0 and surf_l[idx] != head_surf:
                hs_ms = head_switch_cost

        # ---- service at the current head/bus state --------------------- #
        mech_start = issue_cmd_l[idx]
        if act_free > mech_start:
            mech_start = act_free

        if any_multi and multi_l[idx]:
            # Multi-track request: exact scalar fallback with state synced
            # both ways.  The reuse gate guarantees its cache lookup misses.
            drive.head_cylinder = ecyl_l[prev]
            drive.head_surface = esurf_l[prev]
            drive.actuator_free = act_free
            drive.bus_free = b_free
            count = count_l[idx]
            t_issue = issue_l[idx]
            if is_read_l[idx]:
                done = service_read(
                    DiskRequest(READ, lbn_l[idx], count), t_issue, mech_start
                )
            else:
                done = service_write(
                    DiskRequest(WRITE, lbn_l[idx], count), t_issue, mech_start
                )
            account(done)
            act_free = drive.actuator_free
            b_free = drive.bus_free
            seek_ms = done.seek_ms
            settle = done.settle_ms
            hs_ms = done.head_switch_ms
            transfer = done.media_transfer_ms
            total_bus = done.bus_ms
            latency = done.rotational_latency_ms
            overlap = done.bus_overlap_ms
            busy = done.media_busy_ms
            fallback_busy += busy
            completion = done.completion
        else:
            # ---------------- inlined single-track service -------------- #
            count = count_l[idx]
            settle = settle_l[idx]
            spt = spt_l[idx]
            sector_ms = sector_ms_l[idx]
            transfer = transfer_l[idx]
            total_bus = total_bus_l[idx]

            if is_read_l[idx]:
                t = mech_start + seek_ms + hs_ms
            else:
                start_w = issue_cmd_l[idx]
                if b_free > start_w:
                    start_w = b_free
                first_ready = start_w + bus_sector
                bus_done = start_w + total_bus
                t = mech_start + seek_ms + write_settle + hs_ms
                if first_ready > t:
                    t = first_ready

            start_slot = start_slot_l[idx]
            head_angle = ((t % rotation) / rotation) * spt
            head_slot = (head_angle - skew_l[idx]) % spt
            rel = (head_slot - start_slot) % spt

            two_runs = False
            if rel >= count or not zero_latency:
                latency = (spt - rel) * sector_ms
                media_ms = latency + transfer
                run_cnt0 = count
                run_b0 = latency
                run_e0 = latency + transfer
            else:
                split = int(rel) + 1
                if split > count:
                    split = count
                tail = count - split
                media_ms = spt * sector_ms
                latency = media_ms - transfer
                wrap_begin = media_ms - split * sector_ms
                if tail > 0:
                    two_runs = True
                    tb = (split - rel) * sector_ms if split > rel else 0.0
                    if tb < 0.0:
                        tb = 0.0
                    tail_end = tb + tail * sector_ms
                else:
                    run_cnt0 = split
                    run_b0 = wrap_begin
                    run_e0 = media_ms

            media_end = t + media_ms

            if is_read_l[idx]:
                floor = issue_cmd_l[idx]
                if b_free > floor:
                    floor = b_free
                if two_runs:
                    a_begin = t + tb
                    a_end = t + tail_end
                    b_begin = t + wrap_begin
                    b_end = t + media_ms
                    bus_media_end = b_end if b_end > a_end else a_end
                    if a_begin < b_begin:
                        start_b = floor if floor > bus_media_end else bus_media_end
                        bus_completion = start_b + total_bus
                        overlap = 0.0
                    else:
                        bus_completion = floor + total_bus
                        alt = bus_media_end + bus_sector
                        if alt > bus_completion:
                            bus_completion = alt
                        per_b = (b_end - b_begin) / split
                        avail_b = b_begin + split * per_b
                        if avail_b < 0.0:
                            avail_b = 0.0
                        cand = avail_b if avail_b > floor else floor
                        cand = cand + (count - split) * bus_sector
                        if cand > bus_completion:
                            bus_completion = cand
                        per_a = (a_end - a_begin) / tail
                        avail_a = a_begin + tail * per_a
                        avail = avail_b if avail_b > avail_a else avail_a
                        if avail < 0.0:
                            avail = 0.0
                        cand = avail if avail > floor else floor
                        if cand > bus_completion:
                            bus_completion = cand
                        overlap = total_bus - (bus_completion - bus_media_end)
                        if overlap < 0.0:
                            overlap = 0.0
                        elif overlap > total_bus:
                            overlap = total_bus
                else:
                    b_begin = t + run_b0
                    b_end = t + run_e0
                    bus_media_end = b_end
                    bus_completion = floor + total_bus
                    alt = bus_media_end + bus_sector
                    if alt > bus_completion:
                        bus_completion = alt
                    per = (b_end - b_begin) / run_cnt0
                    avail = b_begin + run_cnt0 * per
                    if avail < 0.0:
                        avail = 0.0
                    cand = avail if avail > floor else floor
                    if cand > bus_completion:
                        bus_completion = cand
                    overlap = total_bus - (bus_completion - bus_media_end)
                    if overlap < 0.0:
                        overlap = 0.0
                    elif overlap > total_bus:
                        overlap = total_bus

                completion = bus_completion if bus_completion > media_end else media_end
                act_free = media_end
                if completion > b_free:
                    b_free = completion
                if maintain_cache:
                    record_read(lbn_l[idx], count, media_end, stream_ms_l[idx])
            else:
                completion = media_end
                mn = bus_done if bus_done < media_end else media_end
                overlap = mn - (first_ready - bus_sector)
                if overlap < 0.0:
                    overlap = 0.0
                if overlap > total_bus:
                    overlap = total_bus
                b_free = bus_done
                act_free = media_end
                if maintain_cache:
                    record_write(lbn_l[idx], count)
            busy = media_end - mech_start

        # ---- fold the breakdown terms in service order ----------------- #
        seek_sum += seek_ms
        settle_sum += settle
        latency_sum += latency
        hs_sum += hs_ms
        transfer_sum += transfer
        bus_sum += total_bus
        overlap_sum += overlap
        if busy > 0.0:
            busy_sum += busy
        completions[idx] = completion
        prev = idx

        # ---- closed-loop think time + next admission ------------------- #
        if not open_mode:
            now = completion + think_ms
            if i < n:
                issue_cmd_v = now + cmd_ms
                issue_l[i] = now
                issue_cmd_l[i] = issue_cmd_v
                if sync_np:
                    issue_np[i] = now
                    issue_cmd_np[i] = issue_cmd_v
                pending.append(i)
                i += 1

    # ---- commit drive state and aggregate counters --------------------- #
    drive.actuator_free = act_free
    drive.bus_free = b_free
    drive.head_cylinder = ecyl_l[prev]
    drive.head_surface = esurf_l[prev]

    inline = ~multi
    inline_reads = inline & is_read
    inline_writes = inline & ~is_read
    stats = drive.stats
    stats.requests += int(np.count_nonzero(inline))
    stats.reads += int(np.count_nonzero(inline_reads))
    stats.writes += int(np.count_nonzero(inline_writes))
    stats.sectors_read += int(counts[inline_reads].sum())
    stats.sectors_written += int(counts[inline_writes].sum())
    # Fallback rows already credited their busy time through _account();
    # add the inline rows' share.  (The ReplayStats breakdown uses the
    # fold, which runs in service order and is therefore bitwise identical
    # to the scalar path; the drive's own cumulative counter does not
    # depend on summation order.)
    stats.busy_ms += busy_sum - busy_start - fallback_busy

    acc.seek = seek_sum
    acc.settle = settle_sum
    acc.latency = latency_sum
    acc.head_switch = hs_sum
    acc.transfer = transfer_sum
    acc.bus = bus_sum
    acc.overlap = overlap_sum
    acc.busy = busy_sum
    if arrival_order:
        out.issue = issue_l
        out.completions = completions
    else:
        out.issue = [issue_l[k] for k in order]
        out.completions = [completions[k] for k in order]
    return out, forced, now


# --------------------------------------------------------------------------- #
# Whole-trace scheduled replay
# --------------------------------------------------------------------------- #

def replay_kernel_sched(
    fleet: "LbnRangeShard",
    trace: "Trace",
    scheduler,
    mode: str = "open",
    queue_depth: int = 1,
    think_ms: float = 0.0,
    reset: bool = True,
) -> "tuple[ReplayStats | None, str | None]":
    """Attempt an event-batched scheduled replay of ``trace``.

    The columnar counterpart of the scalar queue loops
    (``_stream_open_scheduled`` / ``_stream_closed_scheduled`` in
    :mod:`repro.sim.stream`): requests are admitted to a pending queue (at
    trace timestamps in ``mode="open"``, keeping up to ``queue_depth``
    outstanding in ``mode="closed"``) and the ``scheduler``'s vectorized
    ``kernel_select`` hook picks each dispatch from precomputed
    geometry/score columns (open FCFS dispatches in arrival order, see
    :func:`_service_shard`).  Returns ``(stats, None)`` on success or
    ``(None, reason)`` when the kernel is not applicable, with the kernel
    refusal vocabulary (see the module docstring) plus ``"empty trace"``
    and ``"scheduler not kernel-vectorizable"`` for policies that override
    the scalar hooks without matching kernel hooks.  Eligibility is decided
    before any fleet state is touched.
    """
    np = _numpy()
    if np is None:
        return None, "numpy unavailable"
    if len(trace) == 0:
        return None, "empty trace"
    from ..disksim.sched import kernel_fallback_reason
    from .stream import _StreamAggregator

    reason = kernel_fallback_reason(scheduler) or fleet_eligibility(fleet)
    if reason is not None:
        return None, reason

    if mode == "open":
        ordered = trace if trace.is_time_ordered() else trace.sorted_by_issue()
    else:
        # Closed replay ignores timestamps and admits in raw trace order.
        ordered = trace
    shard_cols, split, reason = eligible_shard_columns(
        np, fleet, ordered, warm=not reset
    )
    if reason is not None:
        return None, reason

    # ---- committed: mirror the scalar queue loops' bookkeeping --------- #
    if reset:
        fleet.reset()
    agg = _StreamAggregator(fleet, mode)
    agg.trace_requests = len(trace)
    count_routing(fleet, shard_cols, split)
    forced = 0
    for shard, ((s_lbns, s_counts, s_issue, s_read), drive) in enumerate(
        zip(shard_cols, fleet.drives)
    ):
        shard_sched = scheduler.clone()
        shard_sched.kernel_reset()
        outcome, shard_forced, _ = _service_shard(
            np, drive, shard_sched, s_lbns, s_counts, s_issue, s_read,
            mode, queue_depth, think_ms, agg.shards[shard],
        )
        agg.add_kernel(shard, outcome)
        forced += shard_forced

    stats = agg.finalize()
    stats.extras["forced_dispatches"] = float(forced)
    return stats, None


__all__ = [
    "clear_kernel_tables",
    "count_routing",
    "eligible_shard_columns",
    "fleet_eligibility",
    "geometry_tables",
    "replay_kernel_sched",
    "seek_table",
    "seek_table_list",
    "shard_split",
    "trace_columns",
    "warm_cache_clean",
]
