"""Columnar fast-path replay kernel: shard-local service with numpy.

One kernel, :func:`_service_shard`, serves every kernel-class chunk the
replay loop (:func:`repro.sim.stream._replay`) hands it: the chunks of
an open FCFS replay (reported as ``"kernel"``), closed FCFS depth-1 chunks
and the one chunk of a scheduled one-shot replay (``"kernel_sched"``).  It
services a shard-local request stream with the per-request work split into
two phases:

* **vectorized precompute** -- everything that is a pure function of the
  request stream and the immutable drive configuration is computed with
  numpy array math up front: LBN -> (track, cylinder, surface, slot)
  translation (``searchsorted`` over the per-track tables), seek-curve
  evaluation (a per-curve lookup table), media-transfer and bus-transfer
  columns, and shard routing (a request that crosses a shard boundary is
  split into one piece per drive, as
  :meth:`~repro.sim.shard.LbnRangeShard.route` splits it).  The columns
  arrive checked: the replay loop refuses a chunk holding an invalid row
  before any of it is served;
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
service arithmetic and the multi-track service below.

The kernel is refused (the replay loop reports a reason and runs the
exact scalar oracle instead) whenever its model could diverge from the
scalar one:

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
* (scheduled replays) a scheduler subclass overrides the scalar policy
  hooks without matching kernel hooks:
  ``"scheduler not kernel-vectorizable"``.

A request that spans multiple tracks is served inside the kernel too, the
way :meth:`~repro.disksim.drive.DiskDrive.submit` serves a cache miss: one
piece per LBN-holding track, with a head switch (plus a seek when the
cylinder changes) between pieces, zero-latency access only for a piece as
long as its track's slot count, and the model's own
:func:`~repro.disksim.mechanics.access_arc` and
:class:`~repro.disksim.bus.BusModel` for each piece's arc and the bus.  The
kernel never calls into the drive, so unaligned traces replay through it
at kernel speed.

On caching-enabled drives the kernel performs the same
``record_read``/``record_write`` cache bookkeeping as the scalar path
(recording cannot change this replay's results -- the reuse gates
guarantee no probe would hit), so the drive ends a kernel replay in
exactly the state a scalar replay would leave, and warm-state
continuations (``reset=False``) stay consistent whichever path serves
them.
"""
from __future__ import annotations

import warnings
import weakref
from array import array
from typing import TYPE_CHECKING

from ..disksim.drive import READ, WRITE
from ..disksim.mechanics import MediaRun, access_arc

if TYPE_CHECKING:  # pragma: no cover
    from ..disksim.drive import DiskDrive
    from ..disksim.geometry import DiskGeometry
    from ..disksim.seek import SeekCurve
    from .shard import LbnRangeShard
    from .stream import _ShardAgg
    from .trace import Trace

# --------------------------------------------------------------------------- #
# The numpy gate
# --------------------------------------------------------------------------- #

#: Sentinel meaning "the numpy import has not been attempted yet".
_NUMPY_UNRESOLVED = object()

#: Resolved numpy module, ``None`` (import failed), or the sentinel.
#: Module-level so the import is attempted exactly once per process: a
#: campaign worker without numpy degrades to the scalar path after a single
#: warning instead of re-raising ImportError on every replay.
_NUMPY_CACHE = _NUMPY_UNRESOLVED


def _numpy():
    """NumPy is optional and only accelerates the replay core (this
    kernel, and the row check and statistics of :mod:`repro.sim.stream`);
    import lazily so ``import repro`` stays cheap without it.

    The result (module or ``None``) is cached for the life of the process.
    When numpy is unavailable a single :class:`RuntimeWarning` is emitted
    and every subsequent call returns ``None`` immediately.
    """
    global _NUMPY_CACHE
    if _NUMPY_CACHE is _NUMPY_UNRESOLVED:
        try:
            import numpy
        except ImportError:
            warnings.warn(
                "numpy is not installed; falling back to the exact scalar "
                "replay path (install the 'fast' extra: "
                "pip install -e .[fast])",
                RuntimeWarning,
                stacklevel=2,
            )
            _NUMPY_CACHE = None
        else:
            _NUMPY_CACHE = numpy
    return _NUMPY_CACHE


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
    """Drive-level kernel refusal reason for ``fleet``, or None if eligible
    (checked once per replay by :mod:`repro.sim.stream`'s kernel gate)."""
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


def trace_columns(np, ordered: "Trace"):
    """The kernel's numpy columns of a trace chunk in admission order:
    ``(lbns, counts, issue, op_codes)``.

    Every column is converted strictly, through :mod:`array`.  ``lbns``
    and ``counts`` are int64: a value that is not an integer (one
    :func:`operator.index` refuses, such as ``100.5`` or ``8.0``, which
    numpy would truncate) raises :class:`TypeError`, and one outside int64
    :class:`OverflowError`.  ``issue`` is float64: a value that is not a
    number (text such as ``"1.0"``, which numpy would parse) raises
    :class:`TypeError`.  ``op_codes`` is int8 (0 read, 1 write, 2 any other
    opcode).  Nothing else is checked here: the replay loop's row check
    (:func:`repro.sim.stream._check_rows`) reads these columns.
    """
    op_codes = np.fromiter(
        (0 if op == READ else (1 if op == WRITE else 2) for op in ordered.ops),
        dtype=np.int8,
        count=len(ordered.ops),
    )
    return (
        np.frombuffer(array("q", ordered.lbns), dtype=np.int64),
        np.frombuffer(array("q", ordered.counts), dtype=np.int64),
        np.frombuffer(array("d", ordered.issue_ms), dtype=np.float64),
        op_codes,
    )


def shard_split(np, fleet: "LbnRangeShard", lbns, counts, issue, is_read):
    """Split checked columns into per-shard local columns.

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


def eligible_shard_columns(np, fleet: "LbnRangeShard", columns):
    """Kernel-eligible per-shard columns of a checked chunk.

    ``columns`` are the chunk's ``(lbns, counts, issue, is_read)`` in
    admission order, as the replay loop's row check returns them.  Returns
    ``(shard_cols, split, None)`` as :func:`shard_split` does, or ``(None,
    0, reason)`` from the cache gates: every read must be a guaranteed
    miss, both against the other reads of its shard
    (:func:`_cache_sensitive`) and against what the drive's cache holds now
    (:func:`warm_cache_clean`; a replay that resets the fleet checks a
    pristine cache, which always passes).  Nothing here touches the fleet:
    the caller adds the routing counters (:func:`count_routing`) once it
    commits to the columns.
    """
    shard_cols, split = shard_split(np, fleet, *columns)
    for (lbns, counts, _issue, is_read), drive in zip(shard_cols, fleet.drives):
        if _cache_sensitive(np, drive.cache, lbns, counts, is_read) or (
            not warm_cache_clean(np, drive.cache, lbns, is_read)
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
) -> "tuple[int, float]":
    """Replay one shard-local stream: the kernel's serial recurrence.

    ``lbns``/``counts``/``issue``/``is_read`` are numpy columns in
    admission order.  Every per-request quantity that does not depend on
    dispatch order is precomputed with numpy and handed to the loop as a
    plain list; the loop below keeps only the irreducible serial
    recurrence -- actuator/bus availability, head position, rotation phase
    and queue admission.  Translation searches the per-track table once
    per row for its start track; a row ends on that track unless it
    crosses the track's end, so only the crossing rows (``multi``) search
    again for their end track, each search walking back over
    zero-capacity spare tracks.  Only the columns the loop reads become
    lists: the LBNs when the cache records them or a pending queue scores
    them, the prefetch rate when the cache is on; in arrival order the
    issue events are copied straight from the float64 ``issue`` column.
    Float arithmetic matches the scalar ``submit`` path operation for
    operation, so the replay is bitwise identical to the scalar loops of
    :mod:`repro.sim.stream`.  Single-track rows run the
    inlined service arithmetic; a row that crosses a track boundary runs
    the piece loop of ``DiskDrive._media_access`` over the per-track tables
    (``serve_multitrack``).  Nothing here calls a ``DiskDrive`` method: the
    drive's clocks, head position and
    :class:`~repro.disksim.drive.DriveStats` are read once and written back
    once per shard, and its cache records each row as the scalar path
    records it.

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
    whole queue in one Python loop over those lists (a
    :class:`~repro.disksim.sched.KernelQueueView`); selection mirrors
    ``Scheduler.pop`` (starvation bound, forced-dispatch accounting, seq
    tie-breaking).

    ``acc`` (the shard's ``_ShardAgg``) is the one fold target: the eight
    breakdown folds are seeded from it, continued in service order and
    written back, so a chunked replay continues one left fold across
    chunks, and the issue and completion events (in service order) and the
    request count are appended to it.  Returns the scheduler's
    forced-dispatch count and the final closed-loop clock
    (``completion + think_ms`` of the last dispatch; ``now_start`` echoed
    back in open mode or on an empty shard), which the next chunk of a
    closed stream passes back as ``now_start``.
    """
    from ..disksim.sched import (
        FCFSScheduler,
        KernelQueueView,
        Scheduler,
        kernel_oldest,
    )

    n = int(lbns.shape[0])
    if n == 0:
        return 0, now_start

    geometry = drive.geometry
    specs = drive.specs
    bus = drive.bus
    (
        tr_first, tr_count, tr_spt, tr_skew, tr_sector_ms, tr_stream_ms,
    ) = geometry_tables(geometry)
    seek_lut = seek_table(drive.seek_curve, geometry.cylinders)
    seek_lut_l = seek_table_list(drive.seek_curve, geometry.cylinders)
    surfaces = geometry.surfaces

    # ---- vectorized translation (mirrors DiskGeometry.track_of_lbn) ---- #
    track = np.searchsorted(tr_first, lbns, side="right") - 1
    empty = tr_count[track] == 0
    while empty.any():
        track = np.where(empty, track - 1, track)
        empty = tr_count[track] == 0
    first = tr_first[track]
    multi = lbns + counts > first + tr_count[track]
    # A row ends on its start track unless it crosses that track's end.
    any_multi = bool(multi.any())
    etrack = track
    if any_multi:
        rows = np.flatnonzero(multi)
        end = np.searchsorted(tr_first, lbns[rows] + counts[rows] - 1, side="right") - 1
        empty = tr_count[end] == 0
        while empty.any():
            end = np.where(empty, end - 1, end)
            empty = tr_count[end] == 0
        etrack = track.copy()
        etrack[rows] = end

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
    # ---- python-scalar views for the serial loop ----------------------- #
    if open_mode:
        issue_l = issue.tolist()
        issue_cmd_l = (issue + cmd_ms).tolist()
    else:
        # Closed mode: admission times are decided by the loop below.
        issue_l = [0.0] * n
        issue_cmd_l = [0.0] * n
    # Mirror the scalar path's cache bookkeeping so a later warm-state
    # continuation (reset=False) sees exactly the cache a scalar replay
    # would have left behind.  The reuse gate guarantees no probe ever
    # *hits* during this replay, so recording cannot change its results.
    cache = drive.cache
    maintain_cache = cache.enable_caching
    record_read = cache.record_read
    record_write = cache.record_write

    count_l = counts.tolist()
    lbn_l = lbns.tolist() if maintain_cache or not arrival_order else None
    is_read_l = is_read.tolist()
    multi_l = multi.tolist()
    settle_l = settle_col.tolist()
    spt_l = spt_col.tolist()
    skew_l = skew_col.tolist()
    sector_ms_l = sector_ms_col.tolist()
    start_slot_l = start_slot_col.tolist()
    transfer_l = transfer_col.tolist()
    total_bus_l = total_bus_col.tolist()
    # The prefetch rate record_read gets: the zone of the request's last
    # sector (DiskDrive.streaming_ms_per_sector(lbn + count - 1)).
    stream_ms_l = tr_stream_ms[etrack].tolist() if maintain_cache else None

    if arrival_order:
        # Head position before each request: the previous request's end
        # track.
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
        # The head sits on the end track of the previous dispatch,
        # ``ecyl_l[prev]``/``esurf_l[prev]``; before the first dispatch
        # ``prev`` is -1, the drive's starting position appended past the
        # rows.
        ecyl_l = ecyl.tolist()
        esurf_l = esurf.tolist()
        ecyl_l.append(drive.head_cylinder)
        esurf_l.append(drive.head_surface)
        view = KernelQueueView(
            rotation_ms=rotation,
            head_switch_ms=head_switch_cost,
            zero_latency=zero_latency,
            issue_l=issue_l,
            issue_cmd_l=issue_cmd_l,
            lbn_l=lbn_l,
            track_l=track.tolist(),
            cylinder_l=cyl_l,
            seek_lut_l=seek_lut_l,
            pos_l=list(
                zip(
                    cyl_l, surf_l, settle_l, spt_l, sector_ms_l, skew_l,
                    start_slot_l, np.minimum(counts, spt_col).tolist(),
                )
            ),
        )
        pending = view.pending
        starvation = scheduler.starvation_ms
        ksel = scheduler.kernel_select

    completions = [0.0] * n
    order: list[int] = []  # dispatch order, when it is not arrival order
    seek_sum = acc.seek
    settle_sum = acc.settle
    latency_sum = acc.latency
    hs_sum = acc.head_switch
    transfer_sum = acc.transfer
    bus_sum = acc.bus
    overlap_sum = acc.overlap
    busy_sum = acc.busy
    drive_busy = drive.stats.busy_ms
    act_free = drive.actuator_free
    b_free = drive.bus_free
    prev = -1
    forced = 0

    def serve_multitrack(idx, mech_start, seek_ms, hs_ms, b_free):
        """Serve row ``idx``, which crosses a track boundary, as
        ``DiskDrive.submit`` serves a cache miss on a healthy drive with an
        in-order bus: the piece loop of ``_media_access``, then the bus and
        the ``_update_after_media`` cache bookkeeping.  Returns ``(hs_ms,
        latency, transfer, total_bus, overlap, media_end, completion,
        b_free)``.

        Pieces run over the request's tracks, skipping zero-capacity spare
        tracks as ``_split_by_track`` does.  On a defect-free geometry a
        piece's arc is exactly its sectors, so zero-latency access applies
        to a piece only when it is as long as its track's slot count.
        """
        lbn = lbns.item(idx)
        count = count_l[idx]
        end = lbn + count
        t = mech_start + seek_ms + settle_l[idx] + hs_ms
        if not is_read_l[idx]:
            first_ready, bus_done = bus.write_data_ready(issue_l[idx], b_free, count)
            t = max(t, first_ready)
        latency = 0.0
        transfer = 0.0
        runs = []
        piece_lbn = lbn
        for tk in range(track.item(idx), etrack.item(idx) + 1):
            tcount = tr_count.item(tk)
            if not tcount:
                continue
            cylinder = tk // surfaces
            if piece_lbn > lbn:
                if cylinder == prev_cyl:
                    switch = head_switch_cost
                else:
                    switch = head_switch_cost + seek_lut_l[abs(cylinder - prev_cyl)]
                hs_ms += switch
                t += switch
            first = tr_first.item(tk)
            piece_count = min(end, first + tcount) - piece_lbn
            spt = tr_spt.item(tk)
            sector_ms = tr_sector_ms.item(tk)
            arc = access_arc(
                spt=spt,
                sector_ms=sector_ms,
                arc_start_slot=piece_lbn - first,
                arc_len=piece_count,
                skew_offset=tr_skew.item(tk),
                arrival_time=t,
                rotation_ms=rotation,
                zero_latency=zero_latency and piece_count >= spt,
                rel_index_base=piece_lbn - lbn,
            )
            latency += arc.latency_ms
            transfer += piece_count * sector_ms
            for run in arc.runs:
                runs.append(
                    MediaRun(run.rel_start, run.count, t + run.t_begin, t + run.t_end)
                )
            t += arc.media_ms
            piece_lbn += piece_count
            prev_cyl = cylinder

        if is_read_l[idx]:
            result = bus.read_completion(count, runs, issue_cmd_l[idx], b_free)
            completion = max(result.completion, t)
            if maintain_cache:
                record_read(lbn, count, t, stream_ms_l[idx])
            return (
                hs_ms, latency, transfer, result.transfer_ms, result.overlap_ms,
                t, completion, max(b_free, completion),
            )
        total_bus = bus.transfer_ms(count)
        overlap = max(0.0, min(bus_done, t) - (first_ready - bus_sector))
        if maintain_cache:
            record_write(lbn, count)
        return (
            hs_ms, latency, transfer, total_bus, min(overlap, total_bus),
            t, t, bus_done,
        )

    # ---- the serial recurrence: admission + dispatch + service --------- #
    # One monolithic loop with every piece of live state in plain locals.
    # The pop mirror (Scheduler.pop: starvation bound first, then the
    # policy, with forced-dispatch accounting and removal hooks) and the
    # single-track service arithmetic are inlined: closure cells and
    # helper-call overhead are measurable at kernel speeds.
    now = now_start
    i = 0
    if not open_mode:
        while i < n and len(pending) < depth:
            issue_l[i] = now
            issue_cmd_l[i] = now + cmd_ms
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
            # The reuse gate guarantees the scalar path's cache probe misses.
            (
                hs_ms, latency, transfer, total_bus, overlap, act_free,
                completion, b_free,
            ) = serve_multitrack(idx, mech_start, seek_ms, hs_ms, b_free)
            settle = settle_l[idx]
            busy = act_free - mech_start
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
            drive_busy += busy
        completions[idx] = completion
        prev = idx

        # ---- closed-loop think time + next admission ------------------- #
        if not open_mode:
            now = completion + think_ms
            if i < n:
                issue_l[i] = now
                issue_cmd_l[i] = now + cmd_ms
                pending.append(i)
                i += 1

    # ---- commit drive state and aggregate counters --------------------- #
    drive.actuator_free = act_free
    drive.bus_free = b_free
    drive.head_cylinder = ecyl.item(prev)
    drive.head_surface = esurf.item(prev)

    reads = int(np.count_nonzero(is_read))
    stats = drive.stats
    stats.requests += n
    stats.reads += reads
    stats.writes += n - reads
    stats.sectors_read += int(counts[is_read].sum())
    stats.sectors_written += int(counts[~is_read].sum())
    # Both busy folds run per row in service order, as DiskDrive._account
    # adds to the drive's counter, so each matches the scalar path bitwise.
    stats.busy_ms = drive_busy

    acc.seek = seek_sum
    acc.settle = settle_sum
    acc.latency = latency_sum
    acc.head_switch = hs_sum
    acc.transfer = transfer_sum
    acc.bus = bus_sum
    acc.overlap = overlap_sum
    acc.busy = busy_sum
    acc.requests += n
    if arrival_order:
        acc.issues.frombytes(issue.tobytes())  # the doubles issue_l holds
        acc.completions.extend(completions)
    else:
        acc.issues.extend([issue_l[k] for k in order])
        acc.completions.extend([completions[k] for k in order])
    return forced, now


__all__ = [
    "clear_kernel_tables",
    "count_routing",
    "eligible_shard_columns",
    "fleet_eligibility",
    "geometry_tables",
    "seek_table",
    "seek_table_list",
    "shard_split",
    "trace_columns",
    "warm_cache_clean",
]
