"""The disk drive model: request service timing with full breakdown.

:class:`DiskDrive` combines the geometry, seek, rotational-mechanics, cache
and bus models into a single object that services read and write requests
and reports, for every request, how the service time decomposes into seek,
rotational latency, head-switch, media-transfer and bus-transfer components
(the quantities Figures 6, 7 and 8 of the paper are built from).

The drive owns no clock and no queue: callers provide the issue time of
every request and decide the dispatch order (see
:mod:`repro.disksim.queueing` for the onereq / tworeq / round-based
drivers, and :mod:`repro.disksim.sched` for the queue policies the replay
engine pops from).  :meth:`DiskDrive.submit` is the one way a request is
served.  Two resources are tracked between requests:

* the **actuator** (head assembly) -- only one mechanical access at a time;
  a request's seek may begin as soon as the previous request's *media*
  phase is finished, even if its bus transfer is still in flight (this is
  what gives command queueing its advantage), and
* the **bus** -- transfers are serialised FIFO.

Zero-latency (access-on-arrival) firmware is modelled per the paper: a
request that fits on one track, or any whole-track piece of a larger
request, is transferred in arrival order and thus needs no rotational
latency; partial pieces of multi-track requests are transferred in
ascending LBN order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .bus import BusModel
from .cache import FirmwareCache
from .errors import RequestError
from .geometry import DiskGeometry
from .mechanics import MediaRun, access_arc
from .seek import SeekCurve
from .specs import SECTOR_SIZE, DiskSpecs

READ = "read"
WRITE = "write"


@dataclass(frozen=True)
class DiskRequest:
    """One host request: ``count`` sectors starting at ``lbn``."""

    op: str
    lbn: int
    count: int

    def __post_init__(self) -> None:
        if self.op not in (READ, WRITE):
            raise RequestError(f"unknown opcode {self.op!r}")
        if self.count <= 0:
            raise RequestError("request count must be positive")
        if self.lbn < 0:
            raise RequestError("request LBN must be non-negative")

    @property
    def nbytes(self) -> int:
        return self.count * SECTOR_SIZE

    @classmethod
    def read(cls, lbn: int, count: int) -> "DiskRequest":
        return cls(READ, lbn, count)

    @classmethod
    def write(cls, lbn: int, count: int) -> "DiskRequest":
        return cls(WRITE, lbn, count)


@dataclass(frozen=True)
class CompletedRequest:
    """A serviced request with its full timing breakdown (milliseconds)."""

    request: DiskRequest
    issue_time: float
    mech_start: float
    seek_ms: float
    settle_ms: float
    rotational_latency_ms: float
    head_switch_ms: float
    media_transfer_ms: float
    bus_ms: float
    bus_overlap_ms: float
    media_end: float
    completion: float
    cache_hit: bool = False
    streamed: bool = False
    #: True when fault injection failed this request (fail-stop, or the
    #: recovery retry budget was exhausted).  Timing fields still describe
    #: the time the firmware spent before giving up.
    failed: bool = False

    @property
    def response_time(self) -> float:
        """Elapsed time from issue to reported completion (the onereq head
        time)."""
        return self.completion - self.issue_time

    @property
    def media_busy_ms(self) -> float:
        """Time the mechanism was dedicated to this request."""
        return max(0.0, self.media_end - self.mech_start)

    @property
    def positioning_ms(self) -> float:
        """Seek + settle + rotational latency + head switches."""
        return (
            self.seek_ms
            + self.settle_ms
            + self.rotational_latency_ms
            + self.head_switch_ms
        )


@dataclass
class _MediaTiming:
    seek_ms: float
    settle_ms: float
    latency_ms: float
    head_switch_ms: float
    transfer_ms: float
    media_start: float
    media_end: float
    runs: list[MediaRun]
    end_cylinder: int
    end_surface: int


@dataclass
class DriveStats:
    """Aggregate counters kept by the drive (useful in tests/benchmarks)."""

    requests: int = 0
    reads: int = 0
    writes: int = 0
    cache_hits: int = 0
    streamed: int = 0
    sectors_read: int = 0
    sectors_written: int = 0
    busy_ms: float = 0.0


class DiskDrive:
    """A single simulated disk drive."""

    def __init__(
        self,
        specs: DiskSpecs,
        geometry: DiskGeometry | None = None,
        seek_curve: SeekCurve | None = None,
        cache: FirmwareCache | None = None,
        bus: BusModel | None = None,
        zero_latency: bool | None = None,
        in_order_bus: bool = True,
    ) -> None:
        self.specs = specs
        self.geometry = geometry if geometry is not None else DiskGeometry(specs)
        self.seek_curve = seek_curve if seek_curve is not None else SeekCurve.for_specs(specs)
        self.bus = bus if bus is not None else BusModel(
            rate_mb_per_s=specs.bus_mb_per_s,
            command_overhead_ms=specs.command_overhead_ms,
            in_order=in_order_bus,
        )
        if cache is not None:
            self.cache = cache
        else:
            readahead = int(specs.cache_readahead_tracks * specs.max_sectors_per_track)
            self.cache = FirmwareCache(
                num_segments=specs.cache_segments, readahead_sectors=readahead
            )
        self.zero_latency = specs.zero_latency if zero_latency is None else zero_latency
        #: Optional fault-injection state (see :mod:`repro.faults`).
        #: ``None`` keeps the drive healthy and all fast paths eligible.
        self.faults = None
        self.stats = DriveStats()
        self.reset()

    # ------------------------------------------------------------------ #
    # State management
    # ------------------------------------------------------------------ #
    def reset(self, time: float = 0.0) -> None:
        """Return the drive to its power-on state at simulation ``time``."""
        self.head_cylinder = 0
        self.head_surface = 0
        self.actuator_free = time
        self.bus_free = time
        self.cache.invalidate()
        if self.faults is not None:
            self.faults.reset()
        self.stats = DriveStats()

    def attach_faults(self, state) -> None:
        """Attach fault-injection state (see :mod:`repro.faults`).

        ``None`` detaches, restoring the healthy drive.  :meth:`submit`
        applies the attached schedule to every request it serves: fail-stop
        before service, recovery and slowdown penalties after a cache miss.
        The columnar kernel refuses with ``"fault injection active"``, so
        every request goes through :meth:`submit` and the seeded fault RNG
        advances in deterministic service order.
        """
        self.faults = state

    # ------------------------------------------------------------------ #
    # Public request interface
    # ------------------------------------------------------------------ #
    def submit(self, request: DiskRequest, issue_time: float) -> CompletedRequest:
        """Service one request issued at ``issue_time``.

        Requests must be submitted in dispatch order; the drive applies its
        internal actuator/bus availability to model queueing.  With a fault
        schedule attached, a fail-stopped drive redirects the request to its
        spare or rejects it (:meth:`_fail_stop`), and a served request that
        missed the cache pays the recovery penalties (:meth:`_recover`).
        """
        self._validate(request)
        faults = self.faults
        if faults is not None and faults.failed_stop(issue_time):
            return self._fail_stop(request, issue_time)
        mech_start = max(
            issue_time + self.bus.command_overhead_ms, self.actuator_free
        )
        if request.op == READ:
            done = self._service_read(request, issue_time, mech_start)
        else:
            done = self._service_write(request, issue_time, mech_start)
        if faults is not None and not done.cache_hit:
            done = self._recover(done)
        self._account(done)
        return done

    def read(self, lbn: int, count: int, issue_time: float) -> CompletedRequest:
        return self.submit(DiskRequest.read(lbn, count), issue_time)

    def write(self, lbn: int, count: int, issue_time: float) -> CompletedRequest:
        return self.submit(DiskRequest.write(lbn, count), issue_time)

    def _fail_stop(
        self, request: DiskRequest, issue_time: float
    ) -> CompletedRequest:
        """Serve ``request`` on a fail-stopped drive: redirect it to the
        spare, or fail it after command decode (zero mechanism time)."""
        faults = self.faults
        if faults.spare is not None:
            faults.stats.redirected_requests += 1
            return faults.spare.submit(request, issue_time)
        faults.stats.failed_requests += 1
        rejected_at = issue_time + self.bus.command_overhead_ms
        # The firmware rejects after command decode: the request is
        # counted, but no sectors moved and the mechanism stayed idle.
        self.stats.requests += 1
        if request.op == READ:
            self.stats.reads += 1
        else:
            self.stats.writes += 1
        return CompletedRequest(
            request=request,
            issue_time=issue_time,
            mech_start=rejected_at,
            seek_ms=0.0,
            settle_ms=0.0,
            rotational_latency_ms=0.0,
            head_switch_ms=0.0,
            media_transfer_ms=0.0,
            bus_ms=0.0,
            bus_overlap_ms=0.0,
            media_end=rejected_at,
            completion=rejected_at,
            failed=True,
        )

    def _recover(self, done: CompletedRequest) -> CompletedRequest:
        """Apply the attached fault schedule to a request served from the
        media.  Recovery rotations (grown defects, transient retries --
        bounded by the retry budget) and slowdown penalties shift
        ``media_end``/``completion`` and the actuator/bus availability,
        exactly as firmware recovery holds the mechanism."""
        faults = self.faults
        fstats = faults.stats
        request = done.request
        failed = False
        penalty = 0.0
        rotations = faults.grown_defect_rotations(
            request.lbn, request.count, done.issue_time
        )
        retry_rotations, errored = faults.transient_rotations()
        if errored:
            fstats.transient_errors += 1
        rotations += retry_rotations
        if rotations > faults.retry_budget:
            rotations = faults.retry_budget
            failed = True
            fstats.failed_requests += 1
        if rotations:
            fstats.retries += rotations
            recovery = rotations * self.specs.rotation_ms
            fstats.recovery_ms += recovery
            penalty += recovery
        factor = faults.slowdown_factor(done.mech_start)
        if factor > 1.0:
            slow = (done.seek_ms + done.settle_ms) * (factor - 1.0)
            if slow > 0.0:
                fstats.slowdown_ms += slow
                penalty += slow
        if penalty > 0.0:
            media_end = done.media_end + penalty
            completion = done.completion + penalty
            self.actuator_free = max(self.actuator_free, media_end)
            if request.op == READ:
                self.bus_free = max(self.bus_free, completion)
            return replace(
                done, media_end=media_end, completion=completion, failed=failed
            )
        if failed:
            return replace(done, failed=True)
        return done

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _validate(self, request: DiskRequest) -> None:
        if request.lbn + request.count > self.geometry.total_lbns:
            raise RequestError(
                f"request [{request.lbn}, {request.lbn + request.count}) exceeds "
                f"device capacity of {self.geometry.total_lbns} sectors"
            )

    def _account(self, completed: CompletedRequest) -> None:
        self.stats.requests += 1
        if completed.request.op == READ:
            self.stats.reads += 1
            self.stats.sectors_read += completed.request.count
        else:
            self.stats.writes += 1
            self.stats.sectors_written += completed.request.count
        if completed.cache_hit:
            self.stats.cache_hits += 1
        if completed.streamed:
            self.stats.streamed += 1
        self.stats.busy_ms += completed.media_busy_ms

    def streaming_ms_per_sector(self, lbn: int) -> float:
        """Sustained per-sector passage time (including skew) in the zone
        containing ``lbn``."""
        zone = self.geometry.zone_of_lbn(lbn)
        sector_ms = self.specs.sector_time_ms(zone.sectors_per_track)
        return sector_ms * (zone.sectors_per_track + zone.track_skew) / zone.sectors_per_track

    def _passage_ms(self, from_lbn: int, to_lbn: int) -> float:
        """Time for the head to pass over LBNs [from_lbn, to_lbn) while
        streaming sequentially (includes skew for every track crossed)."""
        if to_lbn <= from_lbn:
            return 0.0
        total = 0.0
        current = from_lbn
        previous_track = self.geometry.track_of_lbn(from_lbn)
        while current < to_lbn:
            track = self.geometry.track_of_lbn(current)
            first, count = self.geometry.track_bounds(track)
            cylinder, _ = self.geometry.track_to_cyl_surface(track)
            zone = self.geometry.zone_of_cylinder(cylinder)
            sector_ms = self.specs.sector_time_ms(zone.sectors_per_track)
            if track != previous_track:
                total += zone.track_skew * sector_ms
                previous_track = track
            take = min(to_lbn, first + count) - current
            total += take * sector_ms
            current += take
        return total

    def _split_by_track(self, lbn: int, count: int) -> list[tuple[int, int, int]]:
        """Split a request into (track, first_lbn, sectors) pieces."""
        pieces: list[tuple[int, int, int]] = []
        current = lbn
        end = lbn + count
        while current < end:
            track = self.geometry.track_of_lbn(current)
            first, tcount = self.geometry.track_bounds(track)
            take = min(end, first + tcount) - current
            pieces.append((track, current, take))
            current += take
        return pieces

    # ------------------------------------------------------------------ #
    # Media access
    # ------------------------------------------------------------------ #
    def _media_access(
        self,
        lbn: int,
        count: int,
        mech_start: float,
        for_write: bool,
        not_before: float = 0.0,
    ) -> _MediaTiming:
        pieces = self._split_by_track(lbn, count)
        multi_track = len(pieces) > 1
        first_track = pieces[0][0]
        target_cyl, target_surf = self.geometry.track_to_cyl_surface(first_track)

        distance = abs(self.head_cylinder - target_cyl)
        seek_ms = self.seek_curve.seek_time(distance)
        settle_ms = self.specs.write_settle_ms if for_write else 0.0
        head_switch_ms = 0.0
        if distance == 0 and target_surf != self.head_surface:
            # Pure head switch, no arm movement.
            head_switch_ms += self.specs.head_switch_ms

        t = max(mech_start + seek_ms + settle_ms + head_switch_ms, not_before)
        media_start = t
        latency_ms = 0.0
        transfer_ms = 0.0
        runs: list[MediaRun] = []
        rel_base = 0
        prev_cyl, prev_surf = target_cyl, target_surf

        for index, (track, piece_lbn, piece_count) in enumerate(pieces):
            cylinder, surface = self.geometry.track_to_cyl_surface(track)
            zone = self.geometry.zone_of_cylinder(cylinder)
            spt = zone.sectors_per_track
            sector_ms = self.specs.sector_time_ms(spt)
            if index > 0:
                if cylinder == prev_cyl:
                    switch = self.specs.head_switch_ms
                else:
                    switch = self.specs.head_switch_ms + self.seek_curve.seek_time(
                        abs(cylinder - prev_cyl)
                    )
                head_switch_ms += switch
                t += switch
            start_slot = self.geometry.slot_of_lbn(piece_lbn)
            end_slot = self.geometry.slot_of_lbn(piece_lbn + piece_count - 1)
            arc_len = max(piece_count, end_slot - start_slot + 1)
            arc_len = min(arc_len, spt)
            use_zero_latency = self.zero_latency and (
                arc_len >= spt or not multi_track
            )
            arc = access_arc(
                spt=spt,
                sector_ms=sector_ms,
                arc_start_slot=start_slot,
                arc_len=arc_len,
                skew_offset=self.geometry.skew_offset(track),
                arrival_time=t,
                rotation_ms=self.specs.rotation_ms,
                zero_latency=use_zero_latency,
                rel_index_base=0,
            )
            latency_ms += arc.latency_ms
            transfer_ms += piece_count * sector_ms
            for run in arc.runs:
                # Re-express slot counts as request-relative sector indices.
                rel_start = rel_base + min(run.rel_start, piece_count)
                run_count = min(run.count, max(0, rel_base + piece_count - rel_start))
                if run_count <= 0:
                    continue
                runs.append(
                    MediaRun(
                        rel_start=rel_start,
                        count=run_count,
                        t_begin=t + run.t_begin,
                        t_end=t + run.t_end,
                    )
                )
            t += arc.media_ms
            rel_base += piece_count
            prev_cyl, prev_surf = cylinder, surface

        return _MediaTiming(
            seek_ms=seek_ms,
            settle_ms=settle_ms,
            latency_ms=latency_ms,
            head_switch_ms=head_switch_ms,
            transfer_ms=transfer_ms,
            media_start=media_start,
            media_end=t,
            runs=runs,
            end_cylinder=prev_cyl,
            end_surface=prev_surf,
        )

    # ------------------------------------------------------------------ #
    # Read / write service paths
    # ------------------------------------------------------------------ #
    def _service_read(
        self, request: DiskRequest, issue_time: float, mech_start: float
    ) -> CompletedRequest:
        lookup = self.cache.lookup(request.lbn, request.count, mech_start)
        earliest_bus = issue_time + self.bus.command_overhead_ms

        if lookup.full_hit:
            bus_result = self.bus.read_completion(
                total_sectors=request.count,
                runs=(),
                earliest_start=earliest_bus,
                bus_free=self.bus_free,
            )
            self.bus_free = bus_result.completion
            return CompletedRequest(
                request=request,
                issue_time=issue_time,
                mech_start=mech_start,
                seek_ms=0.0,
                settle_ms=0.0,
                rotational_latency_ms=0.0,
                head_switch_ms=0.0,
                media_transfer_ms=0.0,
                bus_ms=bus_result.transfer_ms,
                bus_overlap_ms=0.0,
                media_end=mech_start,
                completion=bus_result.completion,
                cache_hit=True,
            )

        if lookup.stream_from is not None:
            return self._service_streamed_read(
                request, issue_time, mech_start, lookup.hit_sectors, lookup.stream_from
            )

        timing = self._media_access(
            request.lbn, request.count, mech_start, for_write=False
        )
        bus_result = self.bus.read_completion(
            total_sectors=request.count,
            runs=timing.runs,
            earliest_start=earliest_bus,
            bus_free=self.bus_free,
        )
        completion = max(bus_result.completion, timing.media_end)
        self._update_after_media(request, timing, completion)
        return CompletedRequest(
            request=request,
            issue_time=issue_time,
            mech_start=mech_start,
            seek_ms=timing.seek_ms,
            settle_ms=timing.settle_ms,
            rotational_latency_ms=timing.latency_ms,
            head_switch_ms=timing.head_switch_ms,
            media_transfer_ms=timing.transfer_ms,
            bus_ms=bus_result.transfer_ms,
            bus_overlap_ms=bus_result.overlap_ms,
            media_end=timing.media_end,
            completion=completion,
        )

    def _service_streamed_read(
        self,
        request: DiskRequest,
        issue_time: float,
        mech_start: float,
        hit_sectors: int,
        stream_from: int,
    ) -> CompletedRequest:
        """Service a read that continues the firmware's prefetch stream:
        no seek and no rotational latency, just media passage."""
        end = request.lbn + request.count
        first_missing = request.lbn + hit_sectors
        passage = self._passage_ms(stream_from, end)
        media_end = mech_start + passage
        runs: list[MediaRun] = []
        if hit_sectors:
            runs.append(
                MediaRun(rel_start=0, count=hit_sectors,
                         t_begin=mech_start, t_end=mech_start)
            )
        missing = request.count - hit_sectors
        if missing > 0:
            lead = self._passage_ms(stream_from, first_missing)
            runs.append(
                MediaRun(
                    rel_start=hit_sectors,
                    count=missing,
                    t_begin=mech_start + lead,
                    t_end=media_end,
                )
            )
        bus_result = self.bus.read_completion(
            total_sectors=request.count,
            runs=runs,
            earliest_start=issue_time + self.bus.command_overhead_ms,
            bus_free=self.bus_free,
        )
        completion = max(bus_result.completion, media_end)
        # Head ends up on the track holding the last sector.
        last_track = self.geometry.track_of_lbn(end - 1)
        cylinder, surface = self.geometry.track_to_cyl_surface(last_track)
        self.head_cylinder, self.head_surface = cylinder, surface
        self.actuator_free = media_end
        self.bus_free = bus_result.completion
        self.cache.record_read(
            request.lbn,
            request.count,
            media_end,
            self.streaming_ms_per_sector(end - 1),
        )
        return CompletedRequest(
            request=request,
            issue_time=issue_time,
            mech_start=mech_start,
            seek_ms=0.0,
            settle_ms=0.0,
            rotational_latency_ms=0.0,
            head_switch_ms=0.0,
            media_transfer_ms=passage,
            bus_ms=bus_result.transfer_ms,
            bus_overlap_ms=bus_result.overlap_ms,
            media_end=media_end,
            completion=completion,
            streamed=True,
        )

    def _service_write(
        self, request: DiskRequest, issue_time: float, mech_start: float
    ) -> CompletedRequest:
        first_ready, bus_done = self.bus.write_data_ready(
            issue_time, self.bus_free, request.count
        )
        timing = self._media_access(
            request.lbn, request.count, mech_start, for_write=True,
            not_before=first_ready,
        )
        completion = timing.media_end
        bus_ms = self.bus.transfer_ms(request.count)
        overlap = max(0.0, min(bus_done, timing.media_end) - (first_ready - self.bus.sector_ms()))
        self.bus_free = bus_done
        self._update_after_media(request, timing, completion, is_write=True)
        return CompletedRequest(
            request=request,
            issue_time=issue_time,
            mech_start=mech_start,
            seek_ms=timing.seek_ms,
            settle_ms=timing.settle_ms,
            rotational_latency_ms=timing.latency_ms,
            head_switch_ms=timing.head_switch_ms,
            media_transfer_ms=timing.transfer_ms,
            bus_ms=bus_ms,
            bus_overlap_ms=min(overlap, bus_ms),
            media_end=timing.media_end,
            completion=completion,
        )

    def _update_after_media(
        self,
        request: DiskRequest,
        timing: _MediaTiming,
        completion: float,
        is_write: bool = False,
    ) -> None:
        self.head_cylinder = timing.end_cylinder
        self.head_surface = timing.end_surface
        self.actuator_free = timing.media_end
        if not is_write:
            self.bus_free = max(self.bus_free, completion)
            self.cache.record_read(
                request.lbn,
                request.count,
                timing.media_end,
                self.streaming_ms_per_sector(request.lbn + request.count - 1),
            )
        else:
            self.cache.record_write(request.lbn, request.count)

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def for_model(cls, name: str, **kwargs: object) -> "DiskDrive":
        """Build a drive (with defect-free geometry) for a named model."""
        from .specs import get_specs

        specs = get_specs(name)
        return cls(specs, **kwargs)  # type: ignore[arg-type]

    def clone_fresh(self) -> "DiskDrive":
        """A new drive with the same configuration and pristine state."""
        return DiskDrive(
            specs=self.specs,
            geometry=self.geometry,
            seek_curve=self.seek_curve,
            cache=replace(
                FirmwareCache(
                    num_segments=self.cache.num_segments,
                    readahead_sectors=self.cache.readahead_sectors,
                    enable_caching=self.cache.enable_caching,
                    enable_prefetch=self.cache.enable_prefetch,
                )
            ),
            bus=self.bus,
            zero_latency=self.zero_latency,
        )
