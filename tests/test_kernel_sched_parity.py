"""Event-batched scheduled kernel vs the scalar queue loop: bitwise parity.

The scheduled kernel (``repro.sim.kernel._service_shard`` dispatching from
its pending queue, ``last_replay_path == "kernel_sched"``) scores
candidates from precomputed per-request columns but must remain an *exact*
re-implementation of the scalar queue loop: every test here replays the
same trace twice -- ``fast=True`` (kernel) and ``fast=False`` (scalar) --
and requires ``ReplayStats.to_dict()`` equality, which covers every float
(seek/settle/switch/transfer sums, response percentiles) and the extras
(forced dispatches).  Coverage axes:

* policy x firmware kind (zero latency or not) x queue depth x track
  alignment (closed replay),
* open replay with same-timestamp bursts,
* closed queues 64 deep under every policy,
* starvation-bound forced dispatches,
* deterministic sequence tie-breaking on duplicate LBNs,
* multi-drive fleets, FCFS depth-1 (classic onereq), every
  honest-fallback reason (numpy absent, custom scheduler), and warm-cache
  continuations (kept on the kernel when every read misses).

The suite is dual-mode: with numpy installed the fast side runs through
``kernel_sched``; without numpy it honestly degrades to the scalar loop
(``"numpy unavailable"``) and every parity assertion still holds.  CI runs
it both ways: with numpy in the tier-1 legs, without it in the
``no-numpy`` job.
"""

from __future__ import annotations

import random

import pytest

from _numpy_gate import HAVE_NUMPY, block_numpy, needs_numpy
from repro.disksim import DiskDrive, FirmwareCache, small_test_specs
from repro.disksim.sched import Scheduler
from repro.sim import Trace, TraceReplayEngine

POLICIES = ("fcfs", "sstf", "sptf", "clook", "traxtent")
SMALL = dict(cylinders_per_zone=12, num_zones=3)


def cacheless_drive(zero_latency: bool | None = None) -> DiskDrive:
    """A fresh small drive with the firmware cache off.

    Random traces reuse LBN windows, so with caching on the kernel would
    (correctly) refuse as firmware-cache-sensitive; caching off keeps every
    eligibility decision about the *scheduler*, which is what these tests
    exercise.  ``zero_latency`` overrides the firmware kind; ``None`` keeps
    the Atlas 10K II's own zero-latency firmware.
    """
    return DiskDrive(
        small_test_specs(**SMALL),
        cache=FirmwareCache(enable_caching=False),
        zero_latency=zero_latency,
    )


def random_trace(
    drive: DiskDrive,
    n: int = 120,
    seed: int = 9,
    interarrival_ms: float = 0.5,
    aligned: bool = False,
    duplicates: bool = False,
) -> Trace:
    rng = random.Random(seed)
    geometry = drive.geometry
    trace = Trace()
    tracks = None
    if aligned:
        tracks = [
            geometry.track_bounds(track)
            for track in range(geometry.num_tracks)
        ]
        tracks = [(first, count) for first, count in tracks if count > 0]
    for i in range(n):
        if aligned:
            lbn, count = tracks[rng.randrange(len(tracks))]
        else:
            count = rng.choice((8, 16, 64))
            lbn = rng.randrange(0, geometry.total_lbns - count)
        if duplicates and i % 3:
            # Two thirds of the trace re-reads one hot LBN: ties in both
            # the SSTF/SPTF score and the C-LOOK key, broken by sequence.
            lbn, count = 4096, 16
        op = "write" if rng.random() < 0.25 else "read"
        trace.append(i * interarrival_ms, lbn, count, op)
    return trace


def replay_both(
    trace: Trace,
    mode: str = "closed",
    drives: int = 1,
    zero_latency: bool | None = None,
    **engine_kwargs,
) -> tuple[dict, dict, "TraceReplayEngine"]:
    """(kernel payload, scalar payload, kernel engine) for one scenario."""
    payloads = []
    engines = []
    for fast in (True, False):
        if drives == 1:
            target = cacheless_drive(zero_latency)
        else:
            target = [cacheless_drive(zero_latency) for _ in range(drives)]
        engine = TraceReplayEngine(target, fast=fast, **engine_kwargs)
        if mode == "closed":
            stats = engine.replay_closed(trace, think_ms=0.0)
        else:
            stats = engine.replay(trace)
        payloads.append(stats.to_dict())
        engines.append(engine)
    assert engines[1].last_replay_path == "scalar"
    assert engines[1].last_fast_reason == "fast disabled"
    return payloads[0], payloads[1], engines[0]


#: What the fast side reports: the kernel with numpy, honest scalar without.
FAST_PATH = "kernel_sched" if HAVE_NUMPY else "scalar"
FAST_REASON = "ok" if HAVE_NUMPY else "numpy unavailable"


# --------------------------------------------------------------------------- #
# The core sweep: policy x firmware x depth x alignment
# --------------------------------------------------------------------------- #

# The zero-latency cases (the test drive's own firmware) keep the bare
# policy id; the firmware that waits for the first sector adds a suffix.
@pytest.mark.parametrize(
    "policy, zero_latency",
    [pytest.param(policy, True, id=policy) for policy in POLICIES]
    + [
        pytest.param(policy, False, id=f"{policy}-nonzero-latency")
        for policy in POLICIES
    ],
)
@pytest.mark.parametrize("depth", (1, 4, 8))
@pytest.mark.parametrize("aligned", (False, True))
def test_closed_parity_policy_depth_alignment(
    policy, zero_latency, depth, aligned
):
    trace = random_trace(cacheless_drive(), aligned=aligned)
    kernel, scalar, engine = replay_both(
        trace, scheduler=policy, queue_depth=depth, zero_latency=zero_latency
    )
    assert engine.last_replay_path == FAST_PATH, engine.last_fast_reason
    assert engine.last_fast_reason == FAST_REASON
    assert kernel == scalar


@pytest.mark.parametrize("policy", ("sstf", "sptf", "clook"))
def test_open_parity_with_bursts(policy):
    # Same-timestamp bursts build real queues in open mode.
    drive = cacheless_drive()
    rng = random.Random(5)
    trace = Trace()
    t = 0.0
    for burst in range(30):
        for _ in range(rng.randrange(1, 7)):
            lbn = rng.randrange(0, drive.geometry.total_lbns - 64)
            trace.append(t, lbn, 16, "read")
        t += rng.choice((0.1, 2.0, 8.0))
    kernel, scalar, engine = replay_both(trace, mode="open", scheduler=policy)
    assert engine.last_replay_path == FAST_PATH
    assert kernel == scalar


@pytest.mark.parametrize("policy", POLICIES)
def test_deep_queue_matches(policy):
    # Far deeper than any campaign or figure queue: every pending request
    # is rescored at each dispatch.
    depth = 64
    trace = random_trace(cacheless_drive(), n=3 * depth, interarrival_ms=0.0)
    kernel, scalar, engine = replay_both(
        trace, scheduler=policy, queue_depth=depth
    )
    assert engine.last_replay_path == FAST_PATH
    assert kernel == scalar


# --------------------------------------------------------------------------- #
# Starvation bounds and tie-breaking
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("policy", ("sstf", "sptf", "clook", "traxtent"))
def test_starvation_forced_dispatches_match(policy):
    trace = random_trace(cacheless_drive(), n=150, interarrival_ms=0.1)
    kernel, scalar, engine = replay_both(
        trace, scheduler=policy, queue_depth=8, starvation_ms=3.0
    )
    assert engine.last_replay_path == FAST_PATH
    # The bound must actually bite for this test to mean anything.
    assert kernel["extras"]["forced_dispatches"] > 0
    assert kernel == scalar


@pytest.mark.parametrize("policy", POLICIES)
def test_duplicate_lbn_ties_break_by_sequence(policy):
    trace = random_trace(
        cacheless_drive(), n=90, interarrival_ms=0.0, duplicates=True
    )
    kernel, scalar, engine = replay_both(trace, scheduler=policy, queue_depth=6)
    assert engine.last_replay_path == FAST_PATH
    assert kernel == scalar


# --------------------------------------------------------------------------- #
# Fleets and the classic FCFS disciplines
# --------------------------------------------------------------------------- #

def test_fleet_parity_with_starvation():
    from repro.sim import LbnRangeShard

    probe = LbnRangeShard([cacheless_drive() for _ in range(3)])
    rng = random.Random(3)
    trace = Trace()
    for i in range(240):
        lbn = rng.randrange(0, probe.total_lbns - 64)
        trace.append(i * 0.2, lbn, 32, "read")
    kernel, scalar, engine = replay_both(
        trace, drives=3, scheduler="sptf", queue_depth=6, starvation_ms=4.0
    )
    assert engine.last_replay_path == FAST_PATH
    assert kernel == scalar


def test_fcfs_closed_depth1_is_classic_onereq():
    # Depth-1 FCFS closed replay is the classic onereq discipline; the
    # scheduled kernel must reproduce the heap-driven loop bitwise, with
    # no forced dispatches recorded.
    trace = random_trace(cacheless_drive(), n=100)
    kernel, scalar, engine = replay_both(trace, scheduler="fcfs", queue_depth=1)
    assert engine.last_replay_path == FAST_PATH
    assert "forced_dispatches" not in kernel.get("extras", {})
    assert kernel == scalar


# --------------------------------------------------------------------------- #
# Honest fallbacks
# --------------------------------------------------------------------------- #

def test_numpy_absent_falls_back_to_scalar(monkeypatch):
    from repro.sim import kernel as kernel_module

    trace = random_trace(cacheless_drive(), n=60)
    reference = TraceReplayEngine(
        cacheless_drive(), scheduler="sptf", queue_depth=4, fast=False
    ).replay_closed(trace, think_ms=0.0)

    block_numpy(monkeypatch)
    try:
        engine = TraceReplayEngine(
            cacheless_drive(), scheduler="sptf", queue_depth=4, fast=True
        )
        with pytest.warns(RuntimeWarning, match="numpy is not installed"):
            stats = engine.replay_closed(trace, think_ms=0.0)
        assert engine.last_replay_path == "scalar"
        assert engine.last_fast_reason == "numpy unavailable"
        assert stats.to_dict() == reference.to_dict()
    finally:
        kernel_module._NUMPY_CACHE = kernel_module._NUMPY_UNRESOLVED


@needs_numpy
def test_custom_scheduler_subclass_is_refused_honestly():
    class GreedyNewest(Scheduler):
        """Pops the most recently queued request: no kernel columns."""

        name = "greedy-newest"

        def _select(self, now):
            return self.queue[-1]

    trace = random_trace(cacheless_drive(), n=60)
    engine = TraceReplayEngine(
        cacheless_drive(), scheduler=GreedyNewest(), queue_depth=4, fast=True
    )
    stats = engine.replay_closed(trace, think_ms=0.0)
    assert engine.last_replay_path == "scalar"
    assert engine.last_fast_reason == "scheduler not kernel-vectorizable"
    reference = TraceReplayEngine(
        cacheless_drive(), scheduler=GreedyNewest(), queue_depth=4, fast=False
    ).replay_closed(trace, think_ms=0.0)
    assert stats.to_dict() == reference.to_dict()


@needs_numpy
def test_warm_cache_continuation_gated_per_read():
    # Without reset, the kernel checks every read against what the warm
    # firmware cache holds: a continuation whose reads all miss keeps the
    # kernel and matches the scalar loop bitwise, and a re-read of cached
    # LBNs is refused.
    geometry = DiskDrive(small_test_specs(**SMALL)).geometry

    def whole_tracks(tracks) -> Trace:
        trace = Trace()
        for i, track in enumerate(tracks):
            first, count = geometry.track_bounds(track)
            trace.append(float(i), first, count, "read")
        return trace

    # Every 9th track; the misses sit 5 tracks past each one, outside the
    # readahead window behind it.
    warm_up = whole_tracks(range(0, geometry.num_tracks, 9))
    misses = whole_tracks(range(5, geometry.num_tracks, 9))
    for continuation, path, reason in (
        (misses, "kernel_sched", "ok"),
        (warm_up, "scalar", "firmware-cache-sensitive reuse"),
    ):
        engines, payloads = [], []
        for fast in (True, False):
            engine = TraceReplayEngine(
                DiskDrive(small_test_specs(**SMALL)),
                scheduler="sstf", queue_depth=4, fast=fast,
            )
            engine.replay_closed(warm_up, think_ms=0.0)
            stats = engine.replay_closed(continuation, think_ms=0.0, reset=False)
            engines.append(engine)
            payloads.append(stats.to_dict())
        fast_engine = engines[0]
        assert (fast_engine.last_replay_path, fast_engine.last_fast_reason) == (
            path, reason
        )
        assert (payloads[1]["cache_hits"] > 0) == (path == "scalar")
        assert payloads[0] == payloads[1]
