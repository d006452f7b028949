"""Scheduler invariants: conservation, starvation bounds, policy wins,
deterministic tie-breaking, and FCFS identity with the pre-scheduler engine.

The policies themselves live in :mod:`repro.disksim.sched`; the replay
wiring in :class:`repro.sim.engine.TraceReplayEngine` and the facade wiring
in ``options["scheduler"]`` / ``Scenario.scheduler()`` are covered here too.
"""

from __future__ import annotations

import copy
import random

import pytest

from _numpy_gate import HAVE_NUMPY
from repro.api import Scenario, run_scenario
from repro.disksim import (
    DiskDrive,
    DiskRequest,
    FCFSScheduler,
    FirmwareCache,
    SchedulerError,
    SPTFScheduler,
    SSTFScheduler,
    TraxtentBatchScheduler,
    available_schedulers,
    get_scheduler,
    make_scheduler,
)
from repro.disksim.errors import RequestError
from repro.sim import Trace, TraceReplayEngine

POLICIES = ("fcfs", "sstf", "sptf", "clook", "traxtent")


def random_trace(drive, n=200, seed=9, interarrival_ms=0.5, writes=False):
    """Uniform random single-track-size requests over the whole drive."""
    rng = random.Random(seed)
    trace = Trace()
    total = drive.geometry.total_lbns
    for i in range(n):
        count = rng.choice((16, 32, 64))
        lbn = rng.randrange(0, total - count)
        op = "write" if writes and rng.random() < 0.3 else "read"
        trace.append(i * interarrival_ms, lbn, count, op)
    return trace


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #

class TestRegistry:
    def test_five_policies_registered(self):
        assert available_schedulers() == list(POLICIES)

    def test_get_scheduler_resolves_case_insensitively(self):
        assert get_scheduler("SSTF") is SSTFScheduler

    def test_unknown_policy_raises(self):
        with pytest.raises(SchedulerError, match="unknown scheduler"):
            get_scheduler("elevator")

    def test_make_scheduler_defaults_to_fcfs(self):
        assert isinstance(make_scheduler(None), FCFSScheduler)

    def test_make_scheduler_passes_instances_through(self):
        proto = SPTFScheduler(starvation_ms=50.0)
        assert make_scheduler(proto) is proto

    def test_instance_plus_starvation_rejected(self):
        with pytest.raises(SchedulerError, match="starvation_ms"):
            make_scheduler(SPTFScheduler(), starvation_ms=10.0)

    def test_bad_starvation_bound_rejected(self):
        with pytest.raises(SchedulerError, match="positive"):
            SSTFScheduler(starvation_ms=0.0)

    def test_clone_preserves_parameters(self):
        clone = SSTFScheduler(starvation_ms=25.0).clone()
        assert isinstance(clone, SSTFScheduler)
        assert clone.starvation_ms == 25.0
        assert len(clone) == 0


# --------------------------------------------------------------------------- #
# A drive's queue: a scheduler bound to it, served with DiskDrive.submit
# --------------------------------------------------------------------------- #

class TestDriveQueue:
    def test_push_on_unbound_scheduler_raises(self):
        with pytest.raises(SchedulerError, match="not bound"):
            SSTFScheduler().push(DiskRequest.read(0, 16), 0.0)

    def test_pending_and_dispatch(self, small_drive):
        sched = FCFSScheduler()
        sched.bind(small_drive)
        sched.push(DiskRequest.read(0, 16), 0.0)
        sched.push(DiskRequest.read(64, 16), 0.0)
        assert len(sched) == 2
        entry = sched.pop(0.0)
        done = small_drive.submit(entry.request, entry.issue_time)
        assert done.request.lbn == 0
        assert len(sched) == 1
        entry = sched.pop(done.completion)
        small_drive.submit(entry.request, entry.issue_time)
        assert sched.pop(1e9) is None


# --------------------------------------------------------------------------- #
# Policy selection order (unit level, no servicing)
# --------------------------------------------------------------------------- #

def _queue_on(drive, policy, entries):
    """Bind a policy to ``drive`` and push (lbn, count, t) tuples; return
    it."""
    sched = make_scheduler(policy)
    sched.bind(drive)
    for lbn, count, t in entries:
        sched.push(DiskRequest.read(lbn, count), t)
    return sched


def _drain_lbns(sched, now=0.0):
    order = []
    while len(sched):
        order.append(sched.pop(now).request.lbn)
    return order


class TestSelectionOrder:
    def test_fcfs_is_arrival_order(self, small_drive):
        lbns = [500, 20, 900, 100]
        sched = _queue_on(
            small_drive, "fcfs", [(lbn, 16, i * 1.0) for i, lbn in enumerate(lbns)]
        )
        assert _drain_lbns(sched, now=10.0) == lbns

    def test_sstf_picks_nearest_cylinder(self, small_drive):
        geometry = small_drive.geometry
        # One request per cylinder-distance bucket from the head (cyl 0).
        tracks = [geometry.track_bounds(t)[0] for t in (0, 4, 8, 12)]
        sched = _queue_on(
            small_drive, "sstf", [(lbn, 8, 0.0) for lbn in reversed(tracks)]
        )
        order = _drain_lbns(sched)
        cylinders = [
            geometry.track_to_cyl_surface(geometry.track_of_lbn(lbn))[0]
            for lbn in order
        ]
        # Head never moves (no servicing), so the drain is sorted by
        # distance from cylinder 0 with deterministic ties.
        assert cylinders == sorted(cylinders)

    def test_clook_ascends_then_wraps(self, small_specs):
        drive = DiskDrive(small_specs)
        geometry = drive.geometry
        surfaces = small_specs.surfaces
        # head sits on cylinder 3; queue requests on cylinders 1, 2, 4, 6.
        drive.head_cylinder = 3
        per_cyl = {
            cyl: geometry.track_bounds(cyl * surfaces)[0] for cyl in (1, 2, 4, 6)
        }
        sched = _queue_on(
            drive, "clook", [(lbn, 8, 0.0) for lbn in per_cyl.values()]
        )
        order = _drain_lbns(sched)
        ordered_cyls = [
            geometry.track_to_cyl_surface(geometry.track_of_lbn(lbn))[0]
            for lbn in order
        ]
        assert ordered_cyls == [4, 6, 1, 2]

    def test_traxtent_batches_whole_track_in_lbn_order(self, small_drive):
        geometry = small_drive.geometry
        first_a, count_a = geometry.track_bounds(0)
        first_b, _ = geometry.track_bounds(6)
        third = count_a // 4
        # Arrival order interleaves track 0 and track 6; the oldest request
        # anchors a track-0 batch that drains in ascending LBN order.
        entries = [
            (first_a + 2 * third, 8, 0.0),
            (first_b, 8, 1.0),
            (first_a, 8, 2.0),
            (first_a + third, 8, 3.0),
        ]
        sched = _queue_on(small_drive, "traxtent", entries)
        assert _drain_lbns(sched, now=5.0) == [
            first_a,
            first_a + third,
            first_a + 2 * third,
            first_b,
        ]

    def test_sptf_picks_least_positioning_time(self, small_specs):
        # Single-track reads on a cache-off drive without zero-latency
        # firmware, the head off cylinder 0: each pick must have the least
        # positioning time that submit reports for the candidates on a copy
        # of the drive, ties going to the earliest admitted request.
        drive = DiskDrive(
            small_specs, cache=FirmwareCache(enable_caching=False), zero_latency=False
        )
        drive.head_cylinder = 7
        geometry = drive.geometry
        rng = random.Random(17)
        entries = []
        while len(entries) < 12:
            first, count = geometry.track_bounds(rng.randrange(geometry.num_tracks))
            if count:
                sectors = rng.randint(1, count)
                entries.append((first + rng.randrange(count - sectors + 1), sectors, 0.0))
        entries.append(entries[5])  # an exact tie
        sched = _queue_on(drive, "sptf", entries)
        while len(sched):
            candidates = list(sched.queue)
            costs = [
                copy.deepcopy(drive).submit(e.request, e.issue_time).positioning_ms
                for e in candidates
            ]
            least = min(range(len(candidates)), key=lambda k: (costs[k], candidates[k].seq))
            entry = sched.pop(0.0)
            assert entry is candidates[least]
            drive.submit(entry.request, entry.issue_time)

    def test_deterministic_tie_break_by_sequence(self, small_drive):
        # Two identical requests: every policy must pick the earlier one.
        for policy in POLICIES:
            sched = _queue_on(
                small_drive, policy, [(128, 16, 0.0), (128, 16, 0.0)]
            )
            first = sched.pop(0.0)
            second = sched.pop(0.0)
            assert (first.seq, second.seq) == (0, 1), policy


# --------------------------------------------------------------------------- #
# Starvation bound
# --------------------------------------------------------------------------- #

class TestStarvationBound:
    def test_forced_dispatch_of_oldest(self, small_drive):
        geometry = small_drive.geometry
        far = geometry.track_bounds(geometry.num_tracks - 1)[0]
        sched = make_scheduler("sstf", starvation_ms=10.0)
        sched.bind(small_drive)
        sched.push(DiskRequest.read(far, 8), 0.0)   # far, old
        sched.push(DiskRequest.read(0, 8), 5.0)     # near, young
        # Within the bound SSTF still prefers the near request ...
        assert sched.pop(9.0).request.lbn == 0
        sched.push(DiskRequest.read(0, 8), 9.0)
        # ... but once the far request's age exceeds the bound it is forced.
        assert sched.pop(11.0).request.lbn == far
        assert sched.forced_dispatches == 1

    def test_forced_count_measures_overrides_not_coincidences(self, small_specs):
        # Under FCFS the oldest request is always the policy's own pick, so
        # even an absurdly tight bound must report zero forced dispatches.
        trace = random_trace(DiskDrive(small_specs), n=80, seed=2)
        engine = TraceReplayEngine(
            DiskDrive(small_specs),
            scheduler=FCFSScheduler(starvation_ms=0.001),
            queue_depth=8,
        )
        stats = engine.replay_closed(trace)
        assert stats.extras["forced_dispatches"] == 0.0

    def test_bound_caps_starvation_under_adversarial_arrivals(self, small_specs):
        # A far-cylinder request at t=0 plus a continuous stream of
        # near-cylinder arrivals (distinct LBNs, so no cache hits) that
        # keeps the queue non-empty: pure SSTF always prefers a near
        # request, starving the far one until the arrival stream ends.
        drive = DiskDrive(small_specs)
        geometry = drive.geometry
        far = geometry.track_bounds(geometry.num_tracks - 1)[0]
        near = [geometry.track_bounds(t) for t in range(8)]
        trace = Trace()
        trace.append(0.0, far, 64, "read")
        for i in range(150):
            first, count = near[i % 8]
            trace.append(i * 3.5, first + (i * 97) % (count - 64), 64, "read")

        unbounded = TraceReplayEngine(DiskDrive(small_specs), scheduler="sstf")
        stats_unbounded = unbounded.replay(trace)
        bounded = TraceReplayEngine(
            DiskDrive(small_specs), scheduler="sstf", starvation_ms=25.0
        )
        stats_bounded = bounded.replay(trace)

        # Unbounded: the far request is the last dispatch, so the worst
        # response spans (essentially) the whole replay.
        assert stats_unbounded.extras["forced_dispatches"] == 0.0
        assert stats_unbounded.response["max"] >= 0.95 * stats_unbounded.makespan_ms
        # Bounded: aged requests are force-dispatched (the policy degrades
        # toward FCFS under overload) and the worst response collapses.
        assert stats_bounded.extras["forced_dispatches"] >= 1.0
        assert stats_bounded.response["max"] < 0.75 * stats_unbounded.response["max"]


# --------------------------------------------------------------------------- #
# Replay-level invariants
# --------------------------------------------------------------------------- #

class TestReplayInvariants:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_open_replay_conserves_requests(self, small_specs, policy):
        drive = DiskDrive(small_specs)
        trace = random_trace(drive, n=150, writes=True)
        engine = TraceReplayEngine(drive, scheduler=policy)
        stats = engine.replay(trace)
        assert stats.issued_requests == len(trace)
        assert stats.reads + stats.writes == len(trace)
        assert stats.sectors == sum(trace.counts)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_closed_replay_conserves_requests(self, small_specs, policy):
        drive = DiskDrive(small_specs)
        trace = random_trace(drive, n=120)
        engine = TraceReplayEngine(drive, scheduler=policy, queue_depth=6)
        stats = engine.replay_closed(trace)
        assert stats.issued_requests == len(trace)
        assert stats.sectors == sum(trace.counts)
        assert stats.mode == "closed"

    @pytest.mark.parametrize("policy", POLICIES)
    def test_replay_is_deterministic(self, small_specs, policy):
        drive_a, drive_b = DiskDrive(small_specs), DiskDrive(small_specs)
        trace = random_trace(drive_a, n=120, writes=True)
        stats_a = TraceReplayEngine(drive_a, scheduler=policy).replay(trace)
        stats_b = TraceReplayEngine(drive_b, scheduler=policy).replay(trace)
        assert stats_a.to_dict() == stats_b.to_dict()

    def test_multi_drive_scheduled_replay_conserves(self, small_specs):
        fleet = [DiskDrive(small_specs) for _ in range(3)]
        # Random trace over the combined global space.
        from repro.sim import LbnRangeShard

        shard = LbnRangeShard(fleet)
        rng = random.Random(3)
        trace = Trace()
        for i in range(200):
            lbn = rng.randrange(0, shard.total_lbns - 64)
            trace.append(i * 0.3, lbn, 32, "read")
        engine = TraceReplayEngine(shard, scheduler="sptf")
        stats = engine.replay(trace)
        assert stats.issued_requests >= len(trace)
        assert stats.issued_requests == len(trace) + stats.split_requests

    def test_non_fcfs_takes_kernel_sched_path(self, small_specs):
        pytest.importorskip("numpy")
        from repro.disksim import FirmwareCache

        # Caching off: random LBN reuse would otherwise (correctly) refuse
        # the kernel as firmware-cache-sensitive.
        drive = DiskDrive(small_specs, cache=FirmwareCache(enable_caching=False))
        trace = random_trace(drive, n=80)
        engine = TraceReplayEngine(drive, scheduler="clook", fast=True)
        engine.replay(trace)
        assert engine.last_replay_path == "kernel_sched"
        assert engine.last_fast_reason == "ok"

    def test_sptf_beats_fcfs_mean_service_time(self, small_specs):
        trace = random_trace(DiskDrive(small_specs), n=250, seed=21)
        fcfs = TraceReplayEngine(
            DiskDrive(small_specs), scheduler="fcfs", queue_depth=8
        ).replay_closed(trace)
        sptf = TraceReplayEngine(
            DiskDrive(small_specs), scheduler="sptf", queue_depth=8
        ).replay_closed(trace)
        assert sptf.response["mean"] < fcfs.response["mean"]
        assert sptf.makespan_ms < fcfs.makespan_ms

    def test_depth_one_degenerates_to_fcfs(self, small_specs):
        # With one request outstanding there is nothing to reorder: every
        # policy must reproduce the classic onereq numbers exactly.
        trace = random_trace(DiskDrive(small_specs), n=100, seed=5)
        reference = TraceReplayEngine(DiskDrive(small_specs)).replay_closed(trace)
        for policy in POLICIES:
            engine = TraceReplayEngine(
                DiskDrive(small_specs), scheduler=policy, queue_depth=1
            )
            stats = engine.replay_closed(trace)
            payload = stats.to_dict()
            payload["extras"].pop("forced_dispatches", None)
            assert payload == reference.to_dict(), policy

    def test_queue_depth_must_be_positive(self, small_specs):
        with pytest.raises(RequestError, match="queue_depth"):
            TraceReplayEngine(DiskDrive(small_specs), queue_depth=0)


# --------------------------------------------------------------------------- #
# Facade wiring: FCFS identity and scheduled scenarios
# --------------------------------------------------------------------------- #

def _scenario(policy=None, **extra):
    # Caching off keeps every policy eligible for the scheduled kernel.
    scenario = (
        Scenario("sched-facade")
        .drive(
            "Quantum Atlas 10K II",
            cylinders_per_zone=12,
            num_zones=3,
            enable_caching=False,
        )
        .workload("synthetic", n_requests=120, interarrival_ms=0.8)
        .traxtent(False)
        .seed(17)
    )
    if policy is not None:
        scenario = scenario.scheduler(policy, **extra)
    return scenario


class TestFacadeWiring:
    def test_fcfs_option_is_bitwise_identical_to_plain(self):
        plain = run_scenario(_scenario().config)
        fcfs = run_scenario(_scenario("fcfs").config)
        assert fcfs.replay.to_dict() == plain.replay.to_dict()
        assert fcfs.details["scheduler"] == "fcfs"
        assert set(fcfs.details) == {"scheduler", "replay_path", "fast_reason"}

    def test_fcfs_closed_option_is_bitwise_identical_to_plain(self):
        plain = run_scenario(_scenario().closed().config)
        fcfs = run_scenario(_scenario("fcfs").closed().config)
        assert fcfs.replay.to_dict() == plain.replay.to_dict()

    def test_non_fcfs_reports_kernel_sched_path(self):
        result = run_scenario(_scenario("sptf").config)
        assert result.details["scheduler"] == "sptf"
        # Without numpy every replay takes the scalar path.
        assert result.details["replay_path"] == (
            "kernel_sched" if HAVE_NUMPY else "scalar"
        )
        assert result.details["fast_reason"] == (
            "ok" if HAVE_NUMPY else "numpy unavailable"
        )

    def test_fast_flag_does_not_change_scheduled_results(self):
        from repro.api.result import VOLATILE_DETAIL_KEYS

        on = run_scenario(_scenario("clook").config, fast=True)
        off = run_scenario(_scenario("clook").config, fast=False)
        on_d, off_d = on.to_dict(), off.to_dict()
        # Only the execution-path metadata may differ between the two runs.
        assert on_d["details"]["replay_path"] == (
            "kernel_sched" if HAVE_NUMPY else "scalar"
        )
        assert off_d["details"]["replay_path"] == "scalar"
        assert off_d["details"]["fast_reason"] == "fast disabled"
        for payload in (on_d, off_d):
            payload["details"] = {
                key: value
                for key, value in payload["details"].items()
                if key not in VOLATILE_DETAIL_KEYS
            }
        assert on_d == off_d

    def test_unknown_policy_fails_fast_in_builder(self):
        with pytest.raises(SchedulerError, match="unknown scheduler"):
            _scenario("elevator")

    def test_unknown_policy_fails_in_runner(self):
        config = _scenario().options(scheduler="bogus").config
        with pytest.raises(SchedulerError, match="unknown scheduler"):
            run_scenario(config)

    def test_queue_depth_on_open_replay_is_rejected(self):
        from repro.api import ConfigError

        config = _scenario("sptf", queue_depth=8).config  # open mode
        with pytest.raises(ConfigError, match="closed replay only"):
            run_scenario(config)

    def test_starvation_without_policy_is_rejected(self):
        from repro.api import ConfigError

        config = _scenario().options(starvation_ms=20.0).config
        with pytest.raises(ConfigError, match="needs options\\['scheduler'\\]"):
            run_scenario(config)

    def test_policy_name_is_case_normalized_before_hashing(self):
        from repro.api import scenario_hash

        upper = _scenario().options(scheduler="SPTF").config
        lower = _scenario("sptf").config
        assert upper.options["scheduler"] == "sptf"
        assert scenario_hash(upper) == scenario_hash(lower)

    def test_scheduler_on_efficiency_kind_is_rejected(self):
        # A policy on a non-replay scenario would be silently ignored while
        # still forking the scenario hash -- it must refuse loudly instead.
        from repro.api import ConfigError

        config = _scenario().efficiency(n_requests=20).options(
            scheduler="sptf"
        ).config
        with pytest.raises(ConfigError, match="replay scenarios only"):
            run_scenario(config)

    def test_scheduler_knobs_land_in_options(self):
        config = _scenario("sstf", starvation_ms=40.0, queue_depth=4).config
        assert config.options["scheduler"] == "sstf"
        assert config.options["starvation_ms"] == 40.0
        assert config.options["queue_depth"] == 4

    def test_traxtent_batch_scheduler_instancing(self, small_specs):
        # The engine clones the prototype per drive: the prototype's queue
        # never fills, and per-drive schedulers stay independent.
        proto = TraxtentBatchScheduler(starvation_ms=100.0)
        fleet = [DiskDrive(small_specs) for _ in range(2)]
        from repro.sim import LbnRangeShard

        shard = LbnRangeShard(fleet)
        trace = Trace()
        rng = random.Random(8)
        for i in range(100):
            lbn = rng.randrange(0, shard.total_lbns - 32)
            trace.append(i * 0.4, lbn, 16, "read")
        engine = TraceReplayEngine(shard, scheduler=proto)
        stats = engine.replay(trace)
        assert len(proto) == 0
        assert stats.issued_requests >= len(trace)
