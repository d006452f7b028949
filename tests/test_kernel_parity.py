"""Kernel-vs-scalar parity suite for the columnar replay fast path.

The contract of :mod:`repro.sim.kernel` is *bitwise* agreement with the
scalar oracle, ``DiskDrive.submit``: every integer counter identical,
every timing statistic the exact same float (which trivially satisfies the
documented <= 1e-6 relative tolerance).  These tests replay the same traces through
``TraceReplayEngine(fast=False)`` and ``fast=True`` on freshly built
identical targets and compare the full ``ReplayStats.to_dict()`` payloads,
across aligned/unaligned, read/write, single-drive and 4-way-sharded
traces, open queueing regimes and warm-state continuation -- plus the
refusal cases (defects, cache-sensitive traces, missing numpy) where the
engine must silently degrade to the scalar path.  A replay that reports a
kernel path must never call ``DiskDrive.submit``: requests that cross
track boundaries are served inside the kernel too.
"""

from __future__ import annotations

import math
import random

import pytest

pytest.importorskip("numpy", reason="the columnar kernel requires numpy")

from repro.api import DriveConfig, FleetConfig, build_drive, build_fleet, stripe_trace
from repro.api.factory import clear_drive_build_cache
from repro.disksim import DiskDrive, DiskGeometry, small_test_specs
from repro.disksim.cache import FirmwareCache
from repro.disksim.sched import make_scheduler
from repro.disksim.specs import SpareScheme
from repro.sim import LbnRangeShard, Trace, TraceReplayEngine
from repro.sim.kernel import eligible_shard_columns
from repro.sim.stream import _check_rows

SMALL = dict(cylinders_per_zone=12, num_zones=3)


def nocache_drive(model: str = "Quantum Atlas 10K II") -> DiskDrive:
    specs = small_test_specs(model, **SMALL)
    return DiskDrive(specs, cache=FirmwareCache(enable_caching=False))


def caching_drive() -> DiskDrive:
    return DiskDrive(small_test_specs(**SMALL))


def spaced_aligned_trace(drive: DiskDrive, stride: int = 9, seed: int = 7) -> Trace:
    """Whole-track reads over widely spaced tracks: no two requests fall
    inside each other's cached-plus-readahead window, so the kernel engages
    even with the firmware cache enabled."""
    geometry = drive.geometry
    tracks = [
        t for t in range(0, geometry.num_tracks, stride)
        if geometry.track_bounds(t)[1] > 0
    ]
    rng = random.Random(seed)
    rng.shuffle(tracks)
    trace = Trace()
    t = 0.0
    for track in tracks:
        first, count = geometry.track_bounds(track)
        trace.append(t, first, count, "read")
        t += 0.8
    return trace


def random_trace(
    geometry: DiskGeometry,
    n: int,
    seed: int = 3,
    write_fraction: float = 0.4,
    max_sectors: int = 1200,
    interarrival_ms: float = 0.5,
) -> Trace:
    """Unaligned random requests, many of which span several tracks."""
    rng = random.Random(seed)
    trace = Trace()
    t = 0.0
    for _ in range(n):
        lbn = rng.randrange(0, geometry.total_lbns - max_sectors)
        count = rng.randint(1, max_sectors)
        op = "write" if rng.random() < write_fraction else "read"
        trace.append(t, lbn, count, op)
        t += interarrival_ms
    return trace


def multitrack_trace(geometry: DiskGeometry, seed: int = 19) -> Trace:
    """Requests that cross track boundaries, reads and writes alternating.

    Starting mid-track on every other LBN-holding track, each request ends
    mid-track 1, 2 or 3 LBN-holding tracks on: 2, 3 or 4 pieces, the middle
    ones whole tracks.  One request crosses every zone boundary, where
    ``TRACKS_PER_ZONE`` sparing leaves zero-capacity spare tracks between
    its pieces.  Random requests of up to 1200 sectors follow.
    """
    tracks = [
        bounds
        for bounds in map(geometry.track_bounds, range(geometry.num_tracks))
        if bounds[1] > 0
    ]
    rng = random.Random(seed)
    rows = []
    for k in range(0, len(tracks) - 3, 2):
        first, count = tracks[k]
        start = first + rng.randrange(1, count)
        end_first, end_count = tracks[k + 1 + k % 3]
        rows.append((start, end_first + rng.randrange(1, end_count) - start))
    for zone in range(len(geometry.zones) - 1):
        rows.append((geometry.zone_lbn_range(zone)[1] - 5, 25))
    trace = Trace()
    t = 0.0
    for i, (lbn, count) in enumerate(rows):
        trace.append(t, lbn, count, "write" if i % 2 else "read")
        t += rng.expovariate(1 / 4.0)
    tail = random_trace(geometry, 100, seed=seed).shift_to(t)
    return Trace.from_chunks([trace, tail])


def _no_submit(self, request, issue_time):
    raise AssertionError("DiskDrive.submit ran during a kernel replay")


def assert_parity(
    trace: Trace, make_target, expect_path: str = "kernel", **engine_kwargs
):
    """Replay ``trace`` both ways on identical fresh targets and compare.

    ``engine_kwargs`` (a scheduler and queue depth) make it a closed
    replay.  The fast replay runs with ``DiskDrive.submit`` disabled when
    it is expected on a kernel path.
    """

    def run(engine: TraceReplayEngine):
        if engine_kwargs:
            return engine.replay_closed(trace, think_ms=0.0)
        return engine.replay(trace)

    scalar_engine = TraceReplayEngine(make_target(), fast=False, **engine_kwargs)
    scalar = run(scalar_engine)
    fast_engine = TraceReplayEngine(make_target(), fast=True, **engine_kwargs)
    with pytest.MonkeyPatch.context() as patch:
        if expect_path.startswith("kernel"):
            patch.setattr(DiskDrive, "submit", _no_submit)
        fast = run(fast_engine)
    assert fast_engine.last_replay_path == expect_path, fast_engine.last_fast_reason
    a, b = scalar.to_dict(), fast.to_dict()
    # Integer counters: bitwise.
    for key in (
        "trace_requests", "issued_requests", "split_requests", "reads",
        "writes", "cache_hits", "streamed", "sectors", "peak_outstanding",
    ):
        assert a[key] == b[key], key
    # Timing statistics: the kernel mirrors the scalar arithmetic exactly,
    # so the full payloads (floats included) must match bitwise -- a far
    # stronger guarantee than the documented 1e-6 relative tolerance.
    assert a == b
    for key in ("start_ms", "end_ms", "makespan_ms"):
        assert math.isclose(a[key], b[key], rel_tol=1e-6)
    return scalar, fast


# --------------------------------------------------------------------------- #
# Parity across trace shapes
# --------------------------------------------------------------------------- #

def test_aligned_reads_engage_kernel_with_cache_enabled():
    trace = spaced_aligned_trace(caching_drive())
    assert len(trace) > 8
    assert_parity(trace, caching_drive)


def test_unaligned_single_track_requests():
    geometry = nocache_drive().geometry
    # Partial-track requests that never cross a track boundary.
    rng = random.Random(11)
    trace = Trace()
    t = 0.0
    for _ in range(300):
        track = rng.randrange(geometry.num_tracks)
        first, count = geometry.track_bounds(track)
        if count == 0:
            continue
        offset = rng.randrange(count)
        take = rng.randint(1, count - offset)
        trace.append(t, first + offset, take, "read" if rng.random() < 0.7 else "write")
        t += 0.6
    assert_parity(trace, nocache_drive)


@pytest.mark.parametrize(
    "mode", [{}, {"scheduler": "sptf", "queue_depth": 4}], ids=["open-fcfs", "closed-sptf-4"]
)
@pytest.mark.parametrize("zero_latency", [True, False], ids=["zero-latency", "ordinary"])
@pytest.mark.parametrize("scheme", SpareScheme.ALL)
def test_unaligned_multitrack_requests_stay_in_kernel(scheme, zero_latency, mode):
    specs = small_test_specs(**SMALL).scaled(spare_scheme=scheme, spare_count=6)

    def make_drive():
        return DiskDrive(
            specs, cache=FirmwareCache(enable_caching=False), zero_latency=zero_latency
        )

    trace = multitrack_trace(make_drive().geometry)
    scalar, fast = assert_parity(
        trace, make_drive, "kernel_sched" if mode else "kernel", **mode
    )
    assert scalar.reads > 0 and scalar.writes > 0


def test_non_zero_latency_model():
    drive = nocache_drive("Seagate Cheetah X15")
    assert not drive.zero_latency
    trace = random_trace(drive.geometry, 250, seed=5)
    assert_parity(trace, lambda: nocache_drive("Seagate Cheetah X15"))


def test_heavy_queueing_regime():
    # Zero interarrival: every request queues behind the previous one.
    trace = random_trace(nocache_drive().geometry, 300, interarrival_ms=0.0)
    assert_parity(trace, nocache_drive)


def test_unsorted_trace_is_sorted_identically():
    geometry = nocache_drive().geometry
    trace = random_trace(geometry, 200, seed=9)
    rng = random.Random(1)
    order = list(range(len(trace)))
    rng.shuffle(order)
    shuffled = Trace(
        [trace.issue_ms[i] for i in order],
        [trace.lbns[i] for i in order],
        [trace.counts[i] for i in order],
        [trace.ops[i] for i in order],
    )
    assert not shuffled.is_time_ordered()
    assert_parity(shuffled, nocache_drive)


def test_four_way_sharded_trace():
    def make_fleet():
        return LbnRangeShard([nocache_drive() for _ in range(4)])

    local = random_trace(nocache_drive().geometry, 400, seed=13)
    striped = stripe_trace(local, make_fleet())
    scalar, fast = assert_parity(striped, make_fleet)
    assert len(scalar.per_drive) == 4
    assert all(entry["requests"] > 0 for entry in scalar.per_drive)


def test_warm_state_continuation_reset_false():
    trace_a = random_trace(nocache_drive().geometry, 150, seed=21)
    trace_b = random_trace(nocache_drive().geometry, 150, seed=22)

    scalar_engine = TraceReplayEngine(nocache_drive(), fast=False)
    scalar_engine.replay(trace_a)
    scalar = scalar_engine.replay(trace_b, reset=False)

    fast_engine = TraceReplayEngine(nocache_drive(), fast=True)
    fast_engine.replay(trace_a)
    assert fast_engine.last_replay_path == "kernel"
    fast = fast_engine.replay(trace_b, reset=False)
    assert fast_engine.last_replay_path == "kernel"
    assert scalar.to_dict() == fast.to_dict()


def test_warm_continuation_on_caching_drive_matches_scalar_sequence():
    """A kernel replay must leave the firmware cache exactly as a scalar
    replay would, so a ``reset=False`` continuation that re-reads earlier
    LBNs sees the same hits whichever path served the first replay."""
    trace_a = spaced_aligned_trace(caching_drive(), seed=7)
    # Trace B re-reads trace A's most recent LBNs (still inside the LRU
    # segment list): cache-sensitive against A's end state.
    trace_b = Trace(
        [t + 1000.0 for t in trace_a.issue_ms[-8:]],
        trace_a.lbns[-8:],
        trace_a.counts[-8:],
        trace_a.ops[-8:],
    )

    scalar_engine = TraceReplayEngine(caching_drive(), fast=False)
    scalar_engine.replay(trace_a)
    scalar = scalar_engine.replay(trace_b, reset=False)
    assert scalar.cache_hits + scalar.streamed > 0

    fast_engine = TraceReplayEngine(caching_drive(), fast=True)
    fast_engine.replay(trace_a)
    assert fast_engine.last_replay_path == "kernel"
    fast = fast_engine.replay(trace_b, reset=False)
    # The continuation is cache-sensitive, so it must refuse the kernel --
    # and the scalar service must see the cache state the kernel recorded.
    assert fast_engine.last_replay_path == "scalar"
    assert scalar.to_dict() == fast.to_dict()


# --------------------------------------------------------------------------- #
# Refusal cases: the engine must degrade to the scalar path
# --------------------------------------------------------------------------- #

def test_defective_geometry_refuses_fast_path():
    specs = small_test_specs(**SMALL)
    geometry = DiskGeometry.with_random_defects(specs, defect_count=10, seed=3)

    def make_drive():
        return DiskDrive(specs, geometry=geometry)

    trace = random_trace(geometry, 120, seed=4, max_sectors=64)
    engine = TraceReplayEngine(make_drive(), fast=True)
    fast = engine.replay(trace)
    assert engine.last_replay_path == "scalar"
    assert engine.last_fast_reason == "defective geometry"
    scalar = TraceReplayEngine(make_drive(), fast=False).replay(trace)
    assert scalar.to_dict() == fast.to_dict()


def test_cache_heavy_trace_refuses_fast_path():
    drive = caching_drive()
    geometry = drive.geometry
    first, count = geometry.track_bounds(0)
    trace = Trace()
    for i in range(40):  # re-read the same track: guaranteed reuse
        trace.append(i * 1.0, first, count, "read")
    engine = TraceReplayEngine(drive, fast=True)
    stats = engine.replay(trace)
    assert engine.last_replay_path == "scalar"
    assert engine.last_fast_reason == "firmware-cache-sensitive reuse"
    assert stats.cache_hits > 0  # the scalar path did model the hits
    # With caching disabled the same trace is eligible again.
    engine2 = TraceReplayEngine(nocache_drive(), fast=True)
    engine2.replay(trace)
    assert engine2.last_replay_path == "kernel"


def test_sequential_readahead_stream_refuses_fast_path():
    drive = caching_drive()
    geometry = drive.geometry
    trace = Trace()
    t = 0.0
    lbn = 0
    for _ in range(30):  # sequential whole-track reads ride the prefetch
        track = geometry.track_of_lbn(lbn)
        first, count = geometry.track_bounds(track)
        trace.append(t, first, count, "read")
        lbn = first + count
        t += 2.0
    engine = TraceReplayEngine(drive, fast=True)
    stats = engine.replay(trace)
    assert engine.last_replay_path == "scalar"
    assert engine.last_fast_reason == "firmware-cache-sensitive reuse"
    assert stats.cache_hits + stats.streamed > 0


def test_warm_cache_continuation_gated_per_read():
    """Without reset the kernel checks every read against what the warm
    cache holds: a continuation whose reads all miss keeps the kernel and
    matches the scalar path bitwise, a re-read of cached LBNs is refused."""
    trace = spaced_aligned_trace(caching_drive())
    geometry = caching_drive().geometry
    # Whole tracks 5 past each of trace's (every 9th) tracks: outside every
    # cached track and the readahead window behind it.
    misses = Trace()
    for i, track in enumerate(range(5, geometry.num_tracks, 9)):
        first, count = geometry.track_bounds(track)
        misses.append(1000.0 + i, first, count, "read")
    rereads = Trace(
        [t + 1000.0 for t in trace.issue_ms[-8:]],
        trace.lbns[-8:],
        trace.counts[-8:],
        trace.ops[-8:],
    )
    for warm_trace, path, reason in (
        (misses, "kernel", "ok"),
        (rereads, "scalar", "firmware-cache-sensitive reuse"),
    ):
        scalar_engine = TraceReplayEngine(caching_drive(), fast=False)
        scalar_engine.replay(trace)
        scalar = scalar_engine.replay(warm_trace, reset=False)
        assert (scalar.cache_hits > 0) == (path == "scalar")
        engine = TraceReplayEngine(caching_drive(), fast=True)
        engine.replay(trace)
        assert engine.last_replay_path == "kernel"
        fast = engine.replay(warm_trace, reset=False)
        assert (engine.last_replay_path, engine.last_fast_reason) == (path, reason)
        assert fast.to_dict() == scalar.to_dict()


def test_fast_false_pins_scalar_path():
    trace = spaced_aligned_trace(caching_drive())
    engine = TraceReplayEngine(caching_drive(), fast=False)
    engine.replay(trace)
    assert engine.last_replay_path == "scalar"
    assert engine.last_fast_reason == "fast disabled"


def test_closed_replay_reports_kernel_sched_path():
    """Classic closed FCFS depth-1 replay is a degenerate schedule the
    event-batched kernel reproduces bitwise, so it reports kernel_sched."""
    trace = spaced_aligned_trace(caching_drive())
    engine = TraceReplayEngine(caching_drive(), fast=True)
    engine.replay(trace)
    assert engine.last_replay_path == "kernel"
    assert engine.last_fast_reason == "ok"
    engine.replay_closed(trace)
    assert engine.last_replay_path == "kernel_sched"
    assert engine.last_fast_reason == "ok"


def test_out_of_order_bus_refuses_fast_path():
    def make_drive():
        specs = small_test_specs(**SMALL)
        return DiskDrive(specs, in_order_bus=False)

    trace = spaced_aligned_trace(make_drive())
    engine = TraceReplayEngine(make_drive(), fast=True)
    engine.replay(trace)
    assert engine.last_replay_path == "scalar"
    assert engine.last_fast_reason == "out-of-order bus"


def test_kernel_refusal_reports_reason_without_mutating_fleet():
    import numpy as np

    drive = caching_drive()
    fleet = LbnRangeShard([drive])
    first, count = drive.geometry.track_bounds(0)
    trace = Trace.from_records([(0.0, first, count, "read")] * 5)
    columns = _check_rows(np, fleet.total_lbns, trace, 0)
    shard_cols, split, reason = eligible_shard_columns(np, fleet, columns)
    assert shard_cols is None
    assert reason == "firmware-cache-sensitive reuse"
    assert drive.stats.requests == 0  # eligibility never touches the fleet
    assert fleet.routed_requests == 0
    engine = TraceReplayEngine(fleet, scheduler=make_scheduler("sptf"))
    engine.replay(trace)
    assert (engine.last_replay_path, engine.last_fast_reason) == (
        "scalar", "firmware-cache-sensitive reuse"
    )


# --------------------------------------------------------------------------- #
# Drive-build cache
# --------------------------------------------------------------------------- #

def test_drive_build_cache_shares_immutable_parts():
    clear_drive_build_cache()
    config = DriveConfig(cylinders_per_zone=12, num_zones=3)
    a = build_drive(config)
    b = build_drive(config)
    assert a.geometry is b.geometry
    assert a.seek_curve is b.seek_curve
    assert a.cache is not b.cache  # mutable state is never shared
    other = build_drive(DriveConfig(cylinders_per_zone=10, num_zones=3))
    assert other.geometry is not a.geometry
    clear_drive_build_cache()
    c = build_drive(config)
    assert c.geometry is not a.geometry


def test_scenario_hash_ignores_fast_option():
    """options['fast'] is an execution knob: pinning it must not split a
    ResultStore (results are bitwise identical either way)."""
    from repro.api import Scenario, scenario_hash

    base = Scenario("x").drive(cylinders_per_zone=8, num_zones=2)
    assert (
        scenario_hash(base.config)
        == scenario_hash(Scenario("x", config=base.config).fast(True).config)
        == scenario_hash(Scenario("x", config=base.config).fast(False).config)
    )
    # Other options still differentiate scenarios.
    other = Scenario("x", config=base.config).options(stripe=False)
    assert scenario_hash(other.config) != scenario_hash(base.config)


def test_campaign_records_byte_identical_fast_on_and_off(tmp_path):
    """A 16-point campaign (workers=4) persists byte-identical ResultStore
    records whether the kernel is pinned on or forced off."""
    from repro.api import CampaignConfig, ScenarioConfig, WorkloadConfig, run_campaign
    from repro.api.scenario import build_trace

    base = ScenarioConfig(
        name="kernel-parity",
        kind="replay",
        drive=DriveConfig(
            cylinders_per_zone=8, num_zones=2, enable_caching=False
        ),
        workload=WorkloadConfig(
            name="synthetic", params={"n_requests": 40}, interarrival_ms=1.0
        ),
        seed=1,
    )
    campaign = CampaignConfig(
        name="kernel-parity",
        base=base,
        grid={
            "workload.params.n_requests": [30, 40, 50, 60],
            "seed": [1, 2, 3, 4],
        },
    )
    points = campaign.expand()
    assert len(points) == 16

    # Sanity: the kernel actually engages for these points.
    probe = points[0].config
    engine = TraceReplayEngine(build_fleet(probe.fleet, probe.drive), fast=True)
    engine.replay(build_trace(probe))
    assert engine.last_replay_path == "kernel"

    store_on = tmp_path / "store-on"
    store_off = tmp_path / "store-off"
    on = run_campaign(campaign, workers=4, store=str(store_on), fast=True)
    off = run_campaign(campaign, workers=4, store=str(store_off), fast=False)
    assert on.executed == off.executed == 16

    for point in points:
        record_on = (store_on / f"{point.hash}.json").read_bytes()
        record_off = (store_off / f"{point.hash}.json").read_bytes()
        assert record_on == record_off, point.overrides


def test_cached_factory_fleet_is_bitwise_identical_to_handwired():
    clear_drive_build_cache()
    config = DriveConfig(cylinders_per_zone=12, num_zones=3)
    trace = random_trace(build_drive(config).geometry, 200, seed=17, max_sectors=64)

    def handwired():
        specs = small_test_specs(**SMALL)
        return DiskDrive(specs)

    cached = TraceReplayEngine(build_fleet(FleetConfig(n_drives=2), config), fast=False)
    direct = TraceReplayEngine(
        LbnRangeShard([handwired(), handwired()]), fast=False
    )
    striped = stripe_trace(trace, build_fleet(FleetConfig(n_drives=2), config))
    assert cached.replay(striped).to_dict() == direct.replay(striped).to_dict()
