"""Streaming trace pipeline: chunked replay parity, arrival processes,
raw-trace import, and the open-loop storage-service scenario.

The heart of this file is the bitwise parity suite: streamed replay of any
chunking of a trace must produce a ``ReplayStats`` payload *identical* to
the one-shot replay of that trace -- across open/closed modes, FCFS and
reordering schedulers, single drives and sharded fleets, fault schedules,
kernel and scalar chunk paths.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

import pytest

from _numpy_gate import HAVE_NUMPY, needs_numpy
from repro.api import (
    ResultStore,
    Scenario,
    ScenarioConfig,
    run_scenario,
    scenario_hash,
)
from repro.api.cli import main as cli_main
from repro.disksim import DiskDrive, small_test_specs
from repro.disksim.drive import CompletedRequest, DiskRequest
from repro.disksim.errors import ConfigError, RequestError
from repro.disksim.sched import FCFSScheduler
from repro.faults import (
    DriveFaultConfig,
    FaultConfig,
    TransientFaultConfig,
    attach_fleet_faults,
)
from repro.sim import (
    LbnRangeShard,
    Trace,
    TraceReplayEngine,
    TraceStream,
    import_blktrace,
    iter_blktrace_chunks,
)
from repro.sim.stream import (
    SCHED_STREAM_REASON,
    _StreamAggregator,
    run_service,
)
from repro.workloads.arrivals import (
    ARRIVALS,
    arrival_config,
    arrival_stream,
    available_arrivals,
    get_arrival,
)

SAMPLE_BLKTRACE = "examples/sample.blktrace"

#: Seeded fault schedules for a 3-drive fleet.
FAULTS = {
    "transient": FaultConfig(
        seed=3,
        drives={
            index: DriveFaultConfig(
                transient=TransientFaultConfig(probability=0.2, max_retries=2)
            )
            for index in range(3)
        },
    ),
    "fail-stop": FaultConfig(
        seed=3, drives={1: DriveFaultConfig(fail_stop_ms=20.0, spare=True)}
    ),
}

#: Fleet sizes for the parity tests, plus the 3-drive fleet under each
#: fault schedule.
FLEETS = [
    pytest.param(1, None, id="1"),
    pytest.param(3, None, id="3"),
    pytest.param(3, "transient", id="3-transient"),
    pytest.param(3, "fail-stop", id="3-fail-stop"),
]


# --------------------------------------------------------------------------- #
# Builders
# --------------------------------------------------------------------------- #

def build_fleet(
    n_drives: int, caching: bool = True, faults: str | None = None
) -> LbnRangeShard:
    drives = []
    for _ in range(n_drives):
        drive = DiskDrive(small_test_specs())
        drive.cache.enable_caching = caching
        drives.append(drive)
    fleet = LbnRangeShard(drives)
    if faults is not None:
        attach_fleet_faults(
            fleet, FAULTS[faults], spare_factory=lambda: DiskDrive(small_test_specs())
        )
    return fleet


def build_trace(fleet: LbnRangeShard, n_requests: int, seed: int) -> Trace:
    """Shard-local random mix (no boundary crossers, kernel-eligible)."""
    rng = random.Random(seed)
    trace = Trace()
    t = 0.0
    for _ in range(n_requests):
        shard = rng.randrange(len(fleet.drives))
        lo, hi = fleet.shard_range(shard)
        trace.append(
            t,
            rng.randrange(lo, hi - 64),
            rng.choice([1, 8, 16, 64]),
            "read" if rng.random() < 0.7 else "write",
        )
        t += rng.random() * 0.3
    return trace


# --------------------------------------------------------------------------- #
# Trace chunking primitives
# --------------------------------------------------------------------------- #

def test_iter_chunks_round_trip():
    fleet = build_fleet(1)
    trace = build_trace(fleet, 101, seed=1)
    for chunk_requests in (1, 7, 100, 101, 500):
        rebuilt = Trace.from_chunks(trace.iter_chunks(chunk_requests))
        assert rebuilt.issue_ms == trace.issue_ms
        assert rebuilt.lbns == trace.lbns
        assert rebuilt.counts == trace.counts
        assert rebuilt.ops == trace.ops
    sizes = [len(c) for c in trace.iter_chunks(25)]
    assert sizes == [25, 25, 25, 25, 1]


def test_iter_chunks_rejects_bad_size():
    with pytest.raises(RequestError):
        list(Trace().iter_chunks(0))


# --------------------------------------------------------------------------- #
# TraceStream validation (loud ConfigError at the offending request)
# --------------------------------------------------------------------------- #

def make_chunks(times):
    trace = Trace()
    for t in times:
        trace.issue_ms.append(t)
        trace.lbns.append(0)
        trace.counts.append(1)
        trace.ops.append("read")
    return list(trace.iter_chunks(3))


def test_stream_rejects_nan_timestamp():
    with pytest.raises(ConfigError, match=r"NaN timestamp at request #4"):
        list(TraceStream(make_chunks([0.0, 1.0, 2.0, 3.0, math.nan, 5.0])))


def test_stream_rejects_negative_timestamp():
    with pytest.raises(ConfigError, match=r"negative timestamp .* request #1"):
        list(TraceStream(make_chunks([0.0, -0.5, 1.0])))


def test_stream_rejects_non_monotonic_within_chunk():
    with pytest.raises(ConfigError, match=r"non-monotonic timestamp at request #2"):
        list(TraceStream(make_chunks([0.0, 2.0, 1.0])))


def test_stream_rejects_non_monotonic_across_chunks():
    # Chunks of 3: the regression is the first element of the second chunk.
    with pytest.raises(ConfigError, match=r"non-monotonic timestamp at request #3"):
        list(TraceStream(make_chunks([0.0, 1.0, 2.0, 1.5, 3.0])))


def test_stream_unordered_allowed_when_not_required():
    chunks = make_chunks([5.0, 1.0, 3.0])
    assert sum(len(c) for c in TraceStream(chunks, require_ordered=False)) == 3


def test_stream_scalar_validation_without_numpy(monkeypatch):
    import repro.sim.stream as stream_mod

    monkeypatch.setattr(stream_mod, "_numpy", lambda: None)
    with pytest.raises(ConfigError, match=r"request #4"):
        list(TraceStream(make_chunks([0.0, 1.0, 2.0, 3.0, 2.5])))
    with pytest.raises(ConfigError, match=r"NaN timestamp at request #0"):
        list(TraceStream(make_chunks([math.nan])))


# --------------------------------------------------------------------------- #
# Bitwise streaming parity
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("n_drives,faults", FLEETS)
@pytest.mark.parametrize("policy", ["fcfs", "sptf"])
@pytest.mark.parametrize("chunk_requests", [1, 37, 5000])
def test_stream_parity_open(n_drives, faults, policy, chunk_requests):
    fleet = build_fleet(n_drives, faults=faults)
    trace = build_trace(fleet, 300, seed=11)
    engine = TraceReplayEngine(fleet, scheduler=policy)
    reference = engine.replay(trace)
    streamed = engine.replay_stream(trace.iter_chunks(chunk_requests))
    assert streamed.to_dict() == reference.to_dict()


@pytest.mark.parametrize("n_drives,faults", FLEETS)
@pytest.mark.parametrize("policy,depth", [("fcfs", 1), ("fcfs", 4), ("sptf", 4)])
@pytest.mark.parametrize("chunk_requests", [1, 37, 5000])
def test_stream_parity_closed(n_drives, faults, policy, depth, chunk_requests):
    fleet = build_fleet(n_drives, faults=faults)
    trace = build_trace(fleet, 300, seed=13)
    engine = TraceReplayEngine(fleet, scheduler=policy, queue_depth=depth)
    reference = engine.replay_closed(trace, think_ms=0.2)
    streamed = engine.replay_closed_stream(
        trace.iter_chunks(chunk_requests), think_ms=0.2
    )
    assert streamed.to_dict() == reference.to_dict()


@needs_numpy
@pytest.mark.parametrize("mode", ["open", "closed"])
@pytest.mark.parametrize("n_drives", [1, 3])
def test_stream_parity_kernel_path(mode, n_drives):
    """With caching off every chunk is kernel-eligible: the streamed run
    must take the kernel path chunk by chunk and still match bitwise."""
    fleet = build_fleet(n_drives, caching=False)
    trace = build_trace(fleet, 300, seed=17)
    engine = TraceReplayEngine(fleet)
    if mode == "open":
        reference = engine.replay(trace)
        streamed = engine.replay_stream(trace.iter_chunks(41))
        assert engine.last_replay_path == "kernel"
    else:
        reference = engine.replay_closed(trace, think_ms=0.1)
        streamed = engine.replay_closed_stream(trace.iter_chunks(41), think_ms=0.1)
        assert engine.last_replay_path == "kernel_sched"
    assert engine.last_fast_reason == "ok"
    assert streamed.to_dict() == reference.to_dict()


def straddling_trace(fleet: LbnRangeShard, seed: int) -> Trace:
    """:func:`build_trace` with seven rows moved onto drive boundaries and,
    on three drives, one row spanning all three: a split request that
    makes two extra pieces."""
    trace = build_trace(fleet, 200, seed=seed)
    rows = random.Random(seed).sample(range(len(trace)), 8)
    n_boundaries = len(fleet.drives) - 1
    for k, row in enumerate(rows[:7]):
        boundary = fleet.shard_range(1 + k % n_boundaries)[0]
        trace.lbns[row] = boundary - 1 - k
        trace.counts[row] = 2 + 3 * k
    if len(fleet.drives) == 3:
        start, end = fleet.shard_range(1)
        trace.lbns[rows[7]] = start - 8
        trace.counts[rows[7]] = end - start + 16
    return trace


@pytest.mark.parametrize("n_drives", [2, 3])
@pytest.mark.parametrize(
    "mode,policy,depth,one_shot_path,chunked_path",
    [
        pytest.param(
            "open", "fcfs", 1, ("kernel", "ok"), ("kernel", "ok"), id="open-fcfs"
        ),
        pytest.param(
            "closed", "fcfs", 1, ("kernel_sched", "ok"), ("kernel_sched", "ok"),
            id="closed-fcfs-1",
        ),
        # A chunked scheduled replay runs the scalar queue loops.
        pytest.param(
            "open", "sptf", 4, ("kernel_sched", "ok"),
            ("scalar", SCHED_STREAM_REASON), id="open-sptf-4",
        ),
        pytest.param(
            "closed", "sptf", 4, ("kernel_sched", "ok"),
            ("scalar", SCHED_STREAM_REASON), id="closed-sptf-4",
        ),
    ],
)
def test_kernel_splits_boundary_crossing_requests(
    n_drives, mode, policy, depth, one_shot_path, chunked_path
):
    """The kernel serves a request that crosses drive boundaries as one
    piece per drive, in trace order, and counts the split the way
    ``LbnRangeShard.route`` does: bitwise equal to ``fast=False``."""
    trace = straddling_trace(build_fleet(n_drives), seed=23)
    spanning = 1 if n_drives == 3 else 0

    def replay(fast, chunk_requests=None):
        fleet = build_fleet(n_drives, caching=False)
        engine = TraceReplayEngine(
            fleet, fast=fast, scheduler=policy, queue_depth=depth
        )
        chunks = trace if chunk_requests is None else trace.iter_chunks(chunk_requests)
        if mode == "open":
            run = engine.replay if chunk_requests is None else engine.replay_stream
            stats = run(chunks)
        else:
            run = (
                engine.replay_closed
                if chunk_requests is None
                else engine.replay_closed_stream
            )
            stats = run(chunks, think_ms=0.1)
        path = (engine.last_replay_path, engine.last_fast_reason)
        return stats.to_dict(), fleet.split_requests, fleet.routed_requests, path

    oracle = replay(False)
    stats, split, routed, _path = oracle
    assert split == 7 + spanning
    # Every split row adds one piece; the spanning row adds a second.
    assert routed == len(trace) + split + spanning
    assert stats["split_requests"] == split
    for chunk_requests, path in ((None, one_shot_path), (37, chunked_path)):
        got = replay(None, chunk_requests)
        assert got[:3] == oracle[:3]
        if HAVE_NUMPY:
            assert got[3] == path


class _QueuedFCFS(FCFSScheduler):
    """FCFS under its own name, with a (no-op) removal hook: a replay takes
    the pending-queue paths, the scalar queue loop (``Scheduler.pop``) or,
    one-shot, the kernel's mirror of it."""

    name = "queued-fcfs"

    def _on_removed(self, entry) -> None:
        pass

    def kernel_removed(self, view, idx) -> None:
        pass


class _NewestFirstFCFS(FCFSScheduler):
    """Named ``fcfs``, but its kernel hook would pick the newest request."""

    def kernel_select(self, view) -> int:
        return len(view.pending) - 1


def overloaded_trace(n_drives: int) -> Trace:
    """300 requests at a hundredth of ``build_trace``'s spacing: arrivals
    far outrun service, so nearly every request waits in a queue."""
    local = build_trace(build_fleet(n_drives, caching=False), 300, seed=29)
    return Trace(
        [t / 100.0 for t in local.issue_ms], local.lbns, local.counts, local.ops
    )


@needs_numpy
@pytest.mark.parametrize("n_drives", [1, 3])
def test_fcfs_starvation_bound_keeps_arrival_order(n_drives):
    """FCFS always dispatches the oldest request, so a starvation bound
    can never bend its schedule.  Under overload the bound trips on nearly
    every dispatch of the paths that apply it -- the scalar queue loop
    (``Scheduler.pop``) and the kernel's pending-queue mirror of it -- and
    both must match the kernel's arrival-order dispatch, one-shot and
    chunked, and the scalar ``submit`` oracle, bitwise and with no forced
    dispatches."""
    bound = 5.0
    trace = overloaded_trace(n_drives)
    engine = TraceReplayEngine(
        build_fleet(n_drives, caching=False), scheduler="fcfs", starvation_ms=bound
    )
    queue_loop = TraceReplayEngine(
        build_fleet(n_drives, caching=False), fast=False,
        scheduler=_QueuedFCFS(starvation_ms=bound),
    ).replay(trace)
    queued = TraceReplayEngine(
        build_fleet(n_drives, caching=False), scheduler=_QueuedFCFS(starvation_ms=bound)
    )
    queue_kernel = queued.replay(trace)
    assert (queued.last_replay_path, queued.last_fast_reason) == ("kernel_sched", "ok")
    assert queue_loop.peak_outstanding >= 0.9 * len(trace)
    assert queue_loop.response["p50"] > 10 * bound
    for stats in (queue_loop, queue_kernel):
        assert stats.extras.pop("forced_dispatches") == 0.0
    assert queue_kernel.to_dict() == queue_loop.to_dict()
    oracle = TraceReplayEngine(
        build_fleet(n_drives, caching=False), fast=False,
        scheduler="fcfs", starvation_ms=bound,
    ).replay(trace)
    assert oracle.to_dict() == queue_loop.to_dict()
    for stats in (engine.replay(trace), engine.replay_stream(trace.iter_chunks(41))):
        assert (engine.last_replay_path, engine.last_fast_reason) == ("kernel", "ok")
        assert stats.extras == {}
        assert stats.to_dict() == queue_loop.to_dict()


@needs_numpy
def test_open_fcfs_subclass_keeps_arrival_order():
    """An open replay under a scheduler named ``fcfs`` serves arrival order
    on every chunk path, as the scalar oracle does: the kernel chunks
    ignore the subclass's hooks too."""
    trace = overloaded_trace(3)
    scalar = TraceReplayEngine(
        build_fleet(3, caching=False), fast=False, scheduler=_NewestFirstFCFS()
    ).replay(trace)
    engine = TraceReplayEngine(
        build_fleet(3, caching=False), scheduler=_NewestFirstFCFS()
    )
    for stats in (engine.replay(trace), engine.replay_stream(trace.iter_chunks(41))):
        assert engine.last_replay_path == "kernel"
        assert stats.to_dict() == scalar.to_dict()


def test_aggregator_fold_continues_across_chunks():
    """A breakdown column folds left to right whatever the chunking.  The
    built-in ``sum`` is compensated from Python 3.12 on: continued chunk by
    chunk it would read 0.0 here, over the whole column 1.0."""
    seeks = [1e16, 1.0, -1e16]

    def seek_fold(chunks) -> float:
        agg = _StreamAggregator(build_fleet(1), "open")
        for chunk in chunks:
            for seek in chunk:
                agg.add_completed(0, CompletedRequest(
                    DiskRequest.read(0, 1), issue_time=0.0, mech_start=0.0,
                    seek_ms=seek, settle_ms=0.0, rotational_latency_ms=0.0,
                    head_switch_ms=0.0, media_transfer_ms=0.0, bus_ms=0.0,
                    bus_overlap_ms=0.0, media_end=0.0, completion=1.0,
                ))
        return agg.shards[0].seek

    one_chunk = seek_fold([seeks])
    assert one_chunk == seek_fold([[seek] for seek in seeks])
    assert one_chunk == 0.0 + 1e16 + 1.0 + -1e16


@needs_numpy
def test_stream_warm_cache_reuse_falls_back_bitwise():
    """Reads that revisit LBNs cached by *earlier chunks* must leave the
    kernel path (the dynamic warm-cache gate) and still match bitwise."""
    fleet = build_fleet(1, caching=True)
    trace = Trace()
    t = 0.0
    for i in range(240):
        trace.append(t, (i * 8) % 800, 8, "read")  # wraps: cross-chunk reuse
        t += 0.5
    engine = TraceReplayEngine(fleet)
    reference = engine.replay(trace)
    assert reference.cache_hits > 0  # the reuse actually hits the cache
    streamed = engine.replay_stream(trace.iter_chunks(50))
    assert streamed.to_dict() == reference.to_dict()
    assert engine.last_fast_reason == "firmware-cache-sensitive reuse"


@needs_numpy
def test_stream_mixed_path():
    """First chunk kernel-clean, second chunk re-reads it: the stream mixes
    kernel and scalar chunks and reports the 'mixed' path."""
    fleet = build_fleet(1, caching=True)
    trace = Trace()
    t = 0.0
    # Spacing must clear the prefetch window (readahead_sectors) so the
    # first chunk passes the static reuse gate.
    for i in range(50):  # chunk 1: distinct forward reads
        trace.append(t, i * 1500, 8, "read")
        t += 1.0
    for i in range(50):  # chunk 2: the same LBNs again
        trace.append(t, i * 1500, 8, "read")
        t += 1.0
    engine = TraceReplayEngine(fleet)
    reference = engine.replay(trace)
    streamed = engine.replay_stream(trace.iter_chunks(50))
    assert streamed.to_dict() == reference.to_dict()
    assert engine.last_replay_path == "mixed"
    assert engine.last_fast_reason == "ok"


def test_stream_scheduled_reason_and_forced_dispatches():
    fleet = build_fleet(1)
    trace = build_trace(fleet, 150, seed=19)
    engine = TraceReplayEngine(fleet, scheduler="sptf", starvation_ms=5.0)
    reference = engine.replay(trace)
    streamed = engine.replay_stream(trace.iter_chunks(20))
    assert streamed.to_dict() == reference.to_dict()
    assert engine.last_replay_path == "scalar"
    assert engine.last_fast_reason == "scheduler not chunk-vectorizable"
    assert "forced_dispatches" in streamed.extras


def test_stream_fast_false_pins_scalar():
    fleet = build_fleet(2, caching=False)
    trace = build_trace(fleet, 200, seed=23)
    engine = TraceReplayEngine(fleet, fast=False)
    reference = engine.replay(trace)
    streamed = engine.replay_stream(trace.iter_chunks(33))
    assert streamed.to_dict() == reference.to_dict()
    assert engine.last_replay_path == "scalar"
    assert engine.last_fast_reason == "fast disabled"


def test_stream_empty_rejected(small_drive):
    engine = TraceReplayEngine(small_drive)
    with pytest.raises(RequestError):
        engine.replay_stream(iter([]))
    with pytest.raises(RequestError):
        engine.replay_closed_stream(iter([Trace()]))


def test_stream_parity_no_numpy(monkeypatch):
    """Scalar-only hosts stream through the exact scalar oracle, bitwise
    equal to the kernel's one-shot replay."""
    import repro.sim.stream as stream_mod

    # Cache off, so the reference runs on the kernel wherever numpy imports.
    fleet = build_fleet(2, caching=False)
    trace = build_trace(fleet, 200, seed=29)
    engine = TraceReplayEngine(fleet)
    reference = engine.replay(trace)
    if HAVE_NUMPY:
        assert engine.last_replay_path in ("kernel", "kernel_sched")
    monkeypatch.setattr(stream_mod, "_numpy", lambda: None)
    streamed = engine.replay_stream(trace.iter_chunks(31))
    assert streamed.to_dict() == reference.to_dict()
    assert (engine.last_replay_path, engine.last_fast_reason) == (
        "scalar", "numpy unavailable"
    )


# --------------------------------------------------------------------------- #
# Arrival processes
# --------------------------------------------------------------------------- #

def test_arrival_registry():
    assert available_arrivals() == ["bursty", "diurnal", "multiclient", "poisson"]
    assert get_arrival("POISSON").name == "poisson"
    with pytest.raises(ConfigError, match="unknown arrival process"):
        get_arrival("zipf")
    with pytest.raises(ConfigError, match="unknown parameters"):
        arrival_config("poisson", burst_rate_rps=5.0)


#: SHA-256 of ``repr((issue_ms, lbns, counts, ops))`` of each process's
#: 300-request stream (seed 5): a reordered or extra RNG draw moves it.
ARRIVAL_DIGESTS = {
    "poisson": "f0d7a19ff935547ed556f8728163190eaf08d77b13c121b251e70ae78bef7f41",
    "bursty": "755188949031756cc43c4e67834a1d4fab21006c28c8910337b495b420673f2d",
    "diurnal": "0eac554cb95ff99072dabe20234b881c68fd15d8511f2d7a1d61b03b77d302d8",
    "multiclient": "3602a05b7a67147568430bd3770971536a3102c64089c4b27d64f7bda8971519",
}


@pytest.mark.parametrize("name", ["poisson", "bursty", "diurnal", "multiclient"])
def test_arrival_streams_are_valid_and_deterministic(name):
    # Chunks of 64 and one chunk holding the whole stream give the same
    # columns, pinned by digest.
    for chunk_requests in (64, 300):
        trace = Trace.from_chunks(
            arrival_stream(
                name, 100_000, chunk_requests=chunk_requests, n_requests=300, seed=5
            )
        )
        columns = repr((trace.issue_ms, trace.lbns, trace.counts, trace.ops))
        assert hashlib.sha256(columns.encode()).hexdigest() == ARRIVAL_DIGESTS[name]
    chunks_a = list(
        arrival_stream(name, 100_000, chunk_requests=64, n_requests=300, seed=5)
    )
    chunks_b = list(
        arrival_stream(name, 100_000, chunk_requests=64, n_requests=300, seed=5)
    )
    total = sum(len(c) for c in chunks_a)
    assert total == 300
    assert [c.issue_ms for c in chunks_a] == [c.issue_ms for c in chunks_b]
    assert [c.lbns for c in chunks_a] == [c.lbns for c in chunks_b]
    # Globally monotone, non-negative, chunk-bounded -- TraceStream agrees.
    assert all(len(c) <= 64 for c in chunks_a)
    merged = Trace.from_chunks(TraceStream(chunks_a))
    assert merged.is_time_ordered()
    assert merged.issue_ms[0] >= 0.0
    # A different seed moves the arrivals.
    other = Trace.from_chunks(
        arrival_stream(name, 100_000, chunk_requests=64, n_requests=300, seed=6)
    )
    assert other.issue_ms != merged.issue_ms


def test_arrival_streams_are_lazy():
    # A billion-request stream must hand over its first chunk instantly.
    stream = arrival_stream(
        "poisson", 1_000_000, chunk_requests=100, n_requests=1_000_000_000
    )
    first = next(iter(stream))
    assert len(first) == 100


def test_arrival_validation():
    with pytest.raises(ConfigError, match="rate_rps"):
        list(arrival_stream("poisson", 100_000, rate_rps=0.0))
    with pytest.raises(ConfigError, match="rate_rps"):
        list(arrival_stream("poisson", 100_000, rate_rps=math.nan))
    with pytest.raises(ConfigError, match="n_requests"):
        list(arrival_stream("poisson", 100_000, n_requests=-1))
    with pytest.raises(ConfigError, match="read_fraction"):
        list(arrival_stream("bursty", 100_000, read_fraction=1.5))
    with pytest.raises(ConfigError, match="peak_rate_rps"):
        list(arrival_stream("diurnal", 100_000, base_rate_rps=10.0, peak_rate_rps=1.0))
    with pytest.raises(ConfigError, match="n_clients"):
        list(arrival_stream("multiclient", 100_000, n_clients=0))
    with pytest.raises(ConfigError, match="smaller than one request"):
        list(arrival_stream("poisson", 4, request_sectors=8))


def test_bursty_rate_modulation():
    """The burst state must actually raise the local arrival rate."""
    trace = Trace.from_chunks(
        arrival_stream(
            "bursty",
            1_000_000,
            n_requests=4000,
            base_rate_rps=50.0,
            burst_rate_rps=5000.0,
            mean_quiet_ms=400.0,
            mean_burst_ms=400.0,
            seed=3,
        )
    )
    gaps = sorted(
        b - a for a, b in zip(trace.issue_ms, trace.issue_ms[1:])
    )
    # A 100x rate split yields a strongly bimodal gap distribution: most
    # requests land in bursts (gap ~ 1000/5000 = 0.2 ms) while the quiet
    # state leaves multi-millisecond gaps between bursts.
    median = gaps[len(gaps) // 2]
    assert median < 1.0
    assert gaps[-1] > 4.0


# --------------------------------------------------------------------------- #
# Raw-trace import
# --------------------------------------------------------------------------- #

def test_blktrace_round_trip_bitwise():
    """Import the checked-in sample, replay it, and match a hand-built
    equivalent Trace bitwise."""
    imported = import_blktrace(SAMPLE_BLKTRACE)
    assert len(imported) == 200

    hand_built = Trace()
    with open(SAMPLE_BLKTRACE, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            ts, _dev, lbn, nblocks, op = line.split()
            hand_built.append(
                float(ts) * 1000.0,
                int(lbn),
                int(nblocks),
                "read" if op == "R" else "write",
            )
    assert imported.issue_ms == hand_built.issue_ms
    assert imported.lbns == hand_built.lbns
    assert imported.counts == hand_built.counts
    assert imported.ops == hand_built.ops

    # The sample spans LBNs up to ~120k; 35 cylinders/zone covers its LBN span.
    drive_a = DiskDrive(small_test_specs(cylinders_per_zone=35))
    drive_b = DiskDrive(small_test_specs(cylinders_per_zone=35))
    stats_imported = TraceReplayEngine(drive_a).replay(imported)
    stats_hand = TraceReplayEngine(drive_b).replay(hand_built)
    assert stats_imported.to_dict() == stats_hand.to_dict()


def test_blktrace_chunked_matches_whole_file():
    whole = import_blktrace(SAMPLE_BLKTRACE)
    chunked = Trace.from_chunks(iter_blktrace_chunks(SAMPLE_BLKTRACE, 37))
    assert chunked.issue_ms == whole.issue_ms
    assert chunked.lbns == whole.lbns
    drive = DiskDrive(small_test_specs(cylinders_per_zone=35))
    engine = TraceReplayEngine(drive)
    reference = engine.replay(whole)
    streamed = engine.replay_stream(iter_blktrace_chunks(SAMPLE_BLKTRACE, 37))
    assert streamed.to_dict() == reference.to_dict()


@pytest.mark.parametrize(
    "line,message",
    [
        ("1.0 8,0 100 8", "expected 5 fields"),
        ("abc 8,0 100 8 R", "timestamp 'abc' is not a number"),
        ("nan 8,0 100 8 R", "timestamp is NaN"),
        ("-1.0 8,0 100 8 R", "negative timestamp"),
        ("1.0 8,0 -5 8 R", "negative LBN"),
        ("1.0 8,0 100 0 R", "block count must be positive"),
        ("1.0 8,0 100 8 X", "unknown opcode"),
    ],
)
def test_blktrace_malformed_lines(line, message):
    with pytest.raises(ConfigError, match="line 3") as err:
        import_blktrace(["# header", "0.5 8,0 1 1 R", line])
    assert message.split("'")[0].rstrip() in str(err.value)


def test_blktrace_skips_comments_and_blanks():
    trace = import_blktrace(["# c", "", "0.001 8,0 10 8 R", "  ", "0.002 0 20 4 w"])
    assert len(trace) == 2
    assert trace.issue_ms == [1.0, 2.0]
    assert trace.ops == ["read", "write"]


def test_raw_file_workload_scenario(tmp_path):
    config = ScenarioConfig.from_dict(
        {
            "name": "raw-file-replay",
            "kind": "replay",
            "drive": {"model": "Quantum Atlas 10K II"},
            "workload": {"name": "raw-file", "params": {"path": SAMPLE_BLKTRACE}},
        }
    )
    result = run_scenario(config)
    assert result.kind == "replay"
    assert result.metrics["requests"] == 200.0
    with pytest.raises(ConfigError, match="needs 'path'"):
        run_scenario(
            ScenarioConfig.from_dict(
                {"name": "x", "workload": {"name": "raw-file"}}
            )
        )


# --------------------------------------------------------------------------- #
# p999 (satellite: tail percentile on a known distribution)
# --------------------------------------------------------------------------- #

def test_p999_on_known_distribution():
    from repro.analysis.stats import percentile, summarize

    values = [float(v) for v in range(1, 1001)]  # 1..1000
    random.Random(0).shuffle(values)
    summary = summarize(values)
    assert summary["p999"] == 999.0  # rank ceil(0.999*1000)=999 -> ordered[998]
    assert summary["p99"] == 990.0
    assert summary["p999"] == percentile(values, 0.999)
    assert summary["p99"] <= summary["p999"] <= summary["max"]


# --------------------------------------------------------------------------- #
# The service scenario
# --------------------------------------------------------------------------- #

def make_service_config(**overrides):
    data = {
        "name": "svc",
        "kind": "service",
        "drive": {
            "model": "Quantum Atlas 10K II",
            "cylinders_per_zone": 4,
            "num_zones": 2,
        },
        "fleet": {"n_drives": 2},
        "workload": {
            "name": "poisson",
            "params": {"n_requests": 1200, "rate_rps": 150.0},
        },
        "seed": 7,
        "options": {"slo_ms": 25.0, "chunk_requests": 256, "queue_samples": 16},
    }
    data.update(overrides)
    return ScenarioConfig.from_dict(data)


def test_service_scenario_runs():
    result = run_scenario(make_service_config())
    assert result.kind == "service"
    m = result.metrics
    assert m["requests"] >= 1200.0
    assert m["throughput_rps"] > 0.0
    assert m["saturation_rps"] >= m["throughput_rps"]
    assert 0.0 <= m["slo_violation_fraction"] <= 1.0
    assert m["response_p50_ms"] <= m["response_p99_ms"] <= m["response_p999_ms"]
    assert result.details["slo_ms"] == 25.0
    assert result.details["arrival_process"] == "poisson"
    assert len(result.details["queue_depth_times_ms"]) == 16
    assert len(result.details["queue_depth_per_drive"]) == 2
    assert all(
        len(series) == 16 for series in result.details["queue_depth_per_drive"]
    )
    # The SLO fraction is consistent with its own counts.
    assert result.details["slo_violations"] / m["requests"] == pytest.approx(
        m["slo_violation_fraction"]
    )
    json.dumps(result.to_dict())  # JSON-clean end to end


def test_service_stats_match_streamed_replay():
    """ServiceStats wraps the exact streamed ReplayStats: re-running the
    same arrival stream through replay_stream gives the same payload."""
    config = make_service_config()
    result = run_scenario(config)
    fleet = LbnRangeShard(
        [
            DiskDrive(small_test_specs(cylinders_per_zone=4, num_zones=2))
            for _ in range(2)
        ]
    )
    engine = TraceReplayEngine(fleet)
    stream = arrival_stream(
        "poisson",
        fleet.total_lbns,
        chunk_requests=256,
        n_requests=1200,
        rate_rps=150.0,
        seed=7,
    )
    stats = engine.replay_stream(stream)
    assert result.replay.to_dict() == stats.to_dict()


def test_service_requires_open_mode():
    with pytest.raises(ConfigError, match="open-loop"):
        run_scenario(make_service_config(mode="closed"))


def test_service_rejects_queue_depth():
    config = make_service_config()
    config.options["queue_depth"] = 4
    with pytest.raises(ConfigError, match="queue_depth"):
        run_scenario(config)


def test_service_workload_source():
    """A registered workload (not an arrival process) streams its trace."""
    result = (
        Scenario("svc-wl")
        .drive("Quantum Atlas 10K II", cylinders_per_zone=4, num_zones=2)
        .workload("synthetic", n_requests=600, interarrival_ms=0.9)
        .service(slo_ms=40.0)
        .run()
    )
    assert result.kind == "service"
    assert result.details["arrival_process"] is None
    assert result.metrics["requests"] == 600.0


def test_service_scheduler_option():
    config = make_service_config()
    config.options["scheduler"] = "sptf"
    result = run_scenario(config)
    assert result.details["scheduler"] == "sptf"
    assert result.details["fast_reason"] == "scheduler not chunk-vectorizable"


def test_service_store_round_trip_and_stable_hash(tmp_path):
    config = make_service_config()
    store = ResultStore(tmp_path / "results")
    result = run_scenario(config)
    key = scenario_hash(config)
    store.put(key, config, result.to_dict())
    record = store.get(key)
    assert record is not None
    assert record["result"]["kind"] == "service"
    assert record["result"]["metrics"] == result.to_dict()["metrics"]
    # Volatile path metadata never reaches the record.
    assert "replay_path" not in record["result"]["details"]
    assert "fast_reason" not in record["result"]["details"]
    # fast on/off forks neither the hash nor the stored payload.
    fast_off = make_service_config()
    fast_off.options["fast"] = False
    key_off = scenario_hash(fast_off)
    assert key_off == key
    result_off = run_scenario(fast_off)
    store_off = ResultStore(tmp_path / "results-off")
    store_off.put(key_off, fast_off, result_off.to_dict())
    record_off = store_off.get(key_off)
    assert record_off["result"] == record["result"]


def test_service_seed_override_changes_arrivals():
    base = run_scenario(make_service_config())
    other = run_scenario(make_service_config(seed=8))
    assert (
        base.metrics["response_p99_ms"] != other.metrics["response_p99_ms"]
        or base.metrics["response_mean_ms"] != other.metrics["response_mean_ms"]
    )


def test_run_service_validation(small_drive):
    engine = TraceReplayEngine(small_drive)
    with pytest.raises(ConfigError, match="slo_ms"):
        run_service(engine, iter([]), slo_ms=0.0)
    with pytest.raises(ConfigError, match="queue_samples"):
        run_service(engine, iter([]), queue_samples=0)


# --------------------------------------------------------------------------- #
# CLI discovery
# --------------------------------------------------------------------------- #

def test_cli_list_advertises_service_and_arrivals(capsys):
    assert cli_main(["list", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scenario_kinds"] == ["replay", "efficiency", "service"]
    arrivals = {entry["name"]: entry for entry in payload["arrivals"]}
    assert set(arrivals) == set(ARRIVALS)
    assert arrivals["poisson"]["params"]["rate_rps"] == 200.0
    assert "n_requests" in arrivals["bursty"]["params"]
    workloads = [w["name"] for w in payload["workloads"]]
    assert "raw-file" in workloads
