"""Tests for the trace-replay engine (repro.sim)."""

from __future__ import annotations

import math
import random

import pytest

from repro.analysis.stats import percentile, percentiles, summarize
from repro.api import DriveConfig, ScenarioConfig, WorkloadConfig, run_scenario
from repro.disksim import DiskDrive, DiskGeometry, DiskRequest, RequestError
from repro.disksim.errors import ConfigError
from repro.sim import LbnRangeShard, Trace, TraceReplayEngine, TraceRecordingDrive
from repro.sim.stream import _StreamAggregator
from repro.workloads import Postmark, PostmarkConfig, filebench_to_trace, synthetic_to_trace
from repro.workloads.synthetic import RandomWorkloadSpec


def make_random_trace(
    geometry: DiskGeometry,
    n: int,
    seed: int = 1,
    write_fraction: float = 0.2,
    max_sectors: int = 64,
    interarrival_ms: float = 0.1,
    lbn_span: tuple[int, int] | None = None,
) -> Trace:
    start, end = lbn_span if lbn_span else (0, geometry.total_lbns)
    rng = random.Random(seed)
    trace = Trace()
    t = 0.0
    for _ in range(n):
        op = "write" if rng.random() < write_fraction else "read"
        trace.append(t, rng.randrange(start, end - max_sectors), rng.randint(1, max_sectors), op)
        t += interarrival_ms
    return trace


# --------------------------------------------------------------------------- #
# Trace model
# --------------------------------------------------------------------------- #
def test_trace_basics(small_drive):
    trace = Trace()
    trace.append(0.0, 10, 4, "read")
    trace.append(1.0, 50, 2, "write")
    assert len(trace) == 2
    assert trace.total_sectors == 6
    assert trace.read_fraction == 0.5
    assert trace.is_time_ordered()
    rec = trace[1]
    assert (rec.issue_ms, rec.lbn, rec.count, rec.op) == (1.0, 50, 2, "write")
    with pytest.raises(RequestError):
        trace.append(2.0, -1, 4, "read")
    with pytest.raises(RequestError):
        trace.append(2.0, 0, 0, "read")
    with pytest.raises(RequestError):
        trace.append(2.0, 0, 1, "erase")


def test_trace_sorting_and_slicing():
    trace = Trace([3.0, 1.0, 2.0], [30, 10, 20], [1, 1, 1], ["read"] * 3)
    assert not trace.is_time_ordered()
    ordered = trace.sorted_by_issue()
    assert ordered.issue_ms == [1.0, 2.0, 3.0]
    assert ordered.lbns == [10, 20, 30]
    assert trace.slice(1).lbns == [10, 20]


def test_recording_drive_captures_requests(small_drive):
    recorder = TraceRecordingDrive(small_drive)
    recorder.read(0, 8, 0.0)
    recorder.write(100, 4, 5.0)
    recorder.submit(DiskRequest.read(50, 2), 9.0)
    trace = recorder.trace
    assert len(trace) == 3
    assert trace.ops == ["read", "write", "read"]
    assert trace.lbns == [0, 100, 50]
    # Proxy passes everything else through to the wrapped drive.
    assert recorder.geometry is small_drive.geometry
    assert small_drive.stats.requests == 3


# --------------------------------------------------------------------------- #
# Open replay against the per-request oracle
# --------------------------------------------------------------------------- #
def submit_loop(fleet: LbnRangeShard, trace: Trace):
    """Open replay by hand: every routed piece served by ``DiskDrive.submit``
    in arrival order, folded by the replay aggregator."""
    fleet.reset()
    agg = _StreamAggregator(fleet, "open")
    agg.trace_requests = len(trace)
    for t, lbn, count, op in trace:
        for shard, local_lbn, piece in fleet.route(lbn, count):
            done = fleet.drives[shard].submit(DiskRequest(op, local_lbn, piece), t)
            agg.add_completed(shard, done)
    return agg.finalize()


@pytest.mark.parametrize("fast", [None, False])
@pytest.mark.parametrize("n_drives", [1, 3])
def test_out_of_order_bus_replays_like_submit(small_specs, n_drives, fast):
    """The kernel refuses an out-of-order bus; whatever serves the replay
    instead must model that bus exactly as ``DiskDrive.submit`` does."""

    def fleet() -> LbnRangeShard:
        return LbnRangeShard(
            [DiskDrive(small_specs, in_order_bus=False) for _ in range(n_drives)]
        )

    trace = make_random_trace(
        DiskGeometry(small_specs), 400, seed=41, interarrival_ms=2.0,
        lbn_span=(0, fleet().total_lbns),
    )
    expected = submit_loop(fleet(), trace).to_dict()
    engine = TraceReplayEngine(fleet(), fast=fast)
    assert engine.replay(trace).to_dict() == expected
    assert engine.replay_stream(trace.iter_chunks(53)).to_dict() == expected


def test_out_of_order_bus_changes_an_open_scenario():
    """Whole-track reads that land mid-track arrive out of LBN order: an
    out-of-order bus starts sending them sooner than an in-order one."""

    def replay(in_order_bus: bool) -> dict:
        config = ScenarioConfig(
            name="bus",
            drive=DriveConfig(
                cylinders_per_zone=12,
                num_zones=3,
                enable_caching=False,
                in_order_bus=in_order_bus,
            ),
            workload=WorkloadConfig(
                name="synthetic", params={"n_requests": 200}, interarrival_ms=2.0
            ),
            seed=5,
        )
        return run_scenario(config).replay.to_dict()

    assert replay(in_order_bus=False) != replay(in_order_bus=True)


#: Invalid second rows of a two-request trace; a callable LBN is a function
#: of the fleet's capacity.
INVALID_REQUESTS = [
    pytest.param(64, 8, "erase", id="unknown-opcode"),
    pytest.param(64, 0, "read", id="non-positive-count"),
    pytest.param(-1, 8, "read", id="negative-lbn"),
    pytest.param(lambda total: total - 7, 8, "read", id="past-capacity"),
    pytest.param(lambda total: total, 8, "read", id="starts-past-capacity"),
]


def rejection(n_drives: int, total: int, lbn: int, count: int, op: str) -> str:
    """The message a replay raises for an invalid row: the request's own
    checks come first, then the capacity check of the fleet router (several
    drives) or of the drive (one drive, whose fleet routes unchecked)."""
    if op == "erase":
        return "unknown opcode 'erase'"
    if count <= 0:
        return "request count must be positive"
    if lbn < 0 and n_drives == 1:
        return "request LBN must be non-negative"
    owner = "fleet" if n_drives > 1 else "device"
    return f"request [{lbn}, {lbn + count}) exceeds {owner} capacity of {total} sectors"


#: Every replay discipline: ``(mode, policy, closed queue depth)``.
DISCIPLINES = [
    ("open", "fcfs", 1),
    ("open", "sptf", 1),
    ("closed", "fcfs", 1),
    ("closed", "fcfs", 4),
    ("closed", "sptf", 4),
]


@pytest.mark.parametrize("fast", [None, False])
@pytest.mark.parametrize("n_drives", [1, 3])
@pytest.mark.parametrize("lbn,count,op", INVALID_REQUESTS)
def test_replay_rejects_invalid_requests(small_specs, n_drives, fast, lbn, count, op):
    """Every discipline raises the same error for the same invalid row."""
    for mode, policy, depth in DISCIPLINES:
        fleet = LbnRangeShard([DiskDrive(small_specs) for _ in range(n_drives)])
        row_lbn = lbn(fleet.total_lbns) if callable(lbn) else lbn
        message = rejection(n_drives, fleet.total_lbns, row_lbn, count, op)
        # The constructor takes the columns as given; Trace.append would refuse.
        trace = Trace([0.0, 1.0], [0, row_lbn], [8, count], ["read", op])
        engine = TraceReplayEngine(
            fleet, fast=fast, scheduler=policy, queue_depth=depth
        )
        try:
            (engine.replay if mode == "open" else engine.replay_closed)(trace)
        except RequestError as error:
            assert str(error) == message, (mode, policy, depth)
        else:
            pytest.fail(f"{mode} {policy} depth {depth} accepted the row")


# --------------------------------------------------------------------------- #
# Replay engine
# --------------------------------------------------------------------------- #
def test_replay_deterministic(medium_specs):
    """Same trace, fresh fleet => bitwise-identical stats."""
    trace = make_random_trace(DiskGeometry(medium_specs), 2000, seed=13)
    runs = []
    for _ in range(2):
        fleet = LbnRangeShard([DiskDrive(medium_specs) for _ in range(2)])
        runs.append(TraceReplayEngine(fleet).replay(trace).to_dict())
    assert runs[0] == runs[1]


def test_single_drive_replay_matches_sequential(medium_specs):
    """Engine open replay on one drive == naive per-request loop."""
    geometry = DiskGeometry(medium_specs)
    trace = make_random_trace(geometry, 800, seed=17, write_fraction=0.25)
    naive = DiskDrive(medium_specs, geometry=geometry)
    sequential = [
        naive.submit(DiskRequest(op, lbn, count), t)
        for t, lbn, count, op in zip(trace.issue_ms, trace.lbns, trace.counts, trace.ops)
    ]
    engine = TraceReplayEngine(DiskDrive(medium_specs, geometry=geometry))
    stats = engine.replay(trace)
    assert stats.issued_requests == len(trace)
    assert stats.split_requests == 0
    responses = sorted(d.response_time for d in sequential)
    assert stats.response["max"] == responses[-1]
    assert stats.response["mean"] == pytest.approx(sum(responses) / len(responses))
    assert stats.end_ms == max(d.completion for d in sequential)
    assert engine.fleet.drives[0].stats == naive.stats


def test_sharded_fleet_conserves_request_count(medium_specs):
    fleet = LbnRangeShard([DiskDrive(medium_specs) for _ in range(4)])
    geometry = fleet.drives[0].geometry
    per_drive = geometry.total_lbns
    # Requests that never straddle an ownership boundary.
    rng = random.Random(23)
    trace = Trace()
    for i in range(2000):
        shard = rng.randrange(4)
        lbn = shard * per_drive + rng.randrange(per_drive - 64)
        trace.append(i * 0.05, lbn, rng.randint(1, 64), "read")
    stats = TraceReplayEngine(fleet).replay(trace)
    assert stats.trace_requests == 2000
    assert stats.issued_requests == 2000
    assert stats.split_requests == 0
    assert sum(d.stats.requests for d in fleet.drives) == 2000
    assert all(d.stats.requests > 0 for d in fleet.drives)
    assert sum(d.stats.sectors_read for d in fleet.drives) == trace.total_sectors


def test_sharded_fleet_splits_boundary_requests(medium_specs):
    fleet = LbnRangeShard([DiskDrive(medium_specs) for _ in range(2)])
    per_drive = fleet.drives[0].geometry.total_lbns
    trace = Trace()
    trace.append(0.0, per_drive - 8, 16, "read")  # straddles drive 0 / drive 1
    trace.append(1.0, 0, 8, "read")
    stats = TraceReplayEngine(fleet).replay(trace)
    assert stats.trace_requests == 2
    assert stats.issued_requests == 3
    assert stats.split_requests == 1
    # Sector conservation across the split.
    assert sum(d.stats.sectors_read for d in fleet.drives) == trace.total_sectors


def test_shard_routing():
    fleet = LbnRangeShard.for_model("Quantum Atlas 10K", 2)
    per_drive = fleet.drives[0].geometry.total_lbns
    assert fleet.total_lbns == 2 * per_drive
    assert fleet.shard_of(0) == 0
    assert fleet.shard_of(per_drive) == 1
    pieces = fleet.route(per_drive - 4, 8)
    assert [(p.shard, p.lbn, p.count) for p in pieces] == [
        (0, per_drive - 4, 4),
        (1, 0, 4),
    ]
    with pytest.raises(RequestError):
        fleet.route(fleet.total_lbns - 2, 4)


def test_closed_replay_onereq_equivalence(medium_specs):
    """Closed replay on a single drive reproduces run_onereq timing."""
    from repro.disksim import run_onereq

    geometry = DiskGeometry(medium_specs)
    trace = make_random_trace(geometry, 300, seed=29, write_fraction=0.0)
    requests = [DiskRequest("read", lbn, c) for lbn, c in zip(trace.lbns, trace.counts)]
    reference = run_onereq(DiskDrive(medium_specs, geometry=geometry), requests)
    engine = TraceReplayEngine(DiskDrive(medium_specs, geometry=geometry))
    stats = engine.replay_closed(trace)
    assert stats.mode == "closed"
    assert stats.peak_outstanding == 1
    assert stats.end_ms == reference.completed[-1].completion
    assert stats.response["max"] == max(c.response_time for c in reference.completed)


def test_replay_stats_shape(medium_specs):
    trace = make_random_trace(DiskGeometry(medium_specs), 500, seed=31)
    stats = TraceReplayEngine(DiskDrive(medium_specs)).replay(trace)
    payload = stats.to_dict()
    assert payload["requests_per_second"] > 0
    assert 0.0 < payload["efficiency"] <= 1.0
    assert set(payload["response"]) == {
        "mean", "min", "max", "p50", "p90", "p95", "p99", "p999",
    }
    assert payload["breakdown"]["media_transfer_ms"] > 0
    assert len(payload["per_drive"]) == 1
    assert payload["per_drive"][0]["requests"] == 500
    # Percentiles are consistent with the single-percentile helper.
    assert payload["response"]["p50"] <= payload["response"]["p99"] <= payload["response"]["max"]


def test_empty_trace_rejected(small_drive):
    with pytest.raises(RequestError):
        TraceReplayEngine(small_drive).replay(Trace())


@pytest.mark.parametrize("mode", ["open", "closed"])
@pytest.mark.parametrize(
    "bad,message",
    [
        pytest.param(math.nan, r"NaN timestamp at request #2", id="nan"),
        pytest.param(-5.0, r"negative timestamp -5\.0 at request #2", id="negative"),
    ],
)
def test_malformed_timestamps_fail_loudly(small_drive, mode, bad, message):
    # The index is the row's position in the caller's (unsorted) trace,
    # checked before open replay sorts it; closed replay ignores timestamps
    # but still rejects malformed ones.
    trace = Trace.from_records(
        [(4.0, 0, 8, "read"), (1.0, 64, 8, "read"), (bad, 128, 8, "read"), (2.0, 256, 8, "write")]
    )
    engine = TraceReplayEngine(small_drive)
    replay = engine.replay if mode == "open" else engine.replay_closed
    with pytest.raises(ConfigError, match=message):
        replay(trace)


# --------------------------------------------------------------------------- #
# Workload adapters
# --------------------------------------------------------------------------- #
def test_synthetic_to_trace_modes(medium_drive):
    spec = RandomWorkloadSpec(n_requests=100, queue_depth=1)
    closed = synthetic_to_trace(medium_drive, spec)
    assert len(closed) == 100
    assert closed.is_time_ordered()
    assert closed.issue_ms[1] > 0.0  # issue times follow completions
    open_trace = synthetic_to_trace(medium_drive, spec, interarrival_ms=2.0)
    assert open_trace.issue_ms[:3] == [0.0, 2.0, 4.0]


def test_ffs_workload_traces_replay(medium_specs):
    drive = DiskDrive(medium_specs)
    trace = Postmark.to_trace(drive, PostmarkConfig(initial_files=50, transactions=100))
    assert len(trace) > 0
    assert trace.is_time_ordered()
    stats = TraceReplayEngine(DiskDrive(medium_specs)).replay(trace)
    assert stats.issued_requests == len(trace)

    scan = filebench_to_trace(DiskDrive(medium_specs), "scan", file_mb=32)
    assert len(scan) > 0
    assert scan.read_fraction > 0.3
    with pytest.raises(ValueError):
        filebench_to_trace(DiskDrive(medium_specs), "fsck")


# --------------------------------------------------------------------------- #
# Stats helpers
# --------------------------------------------------------------------------- #
def test_percentiles_helper_matches_single():
    values = [float(v) for v in [9, 1, 7, 3, 5, 8, 2, 6, 4, 10]]
    fractions = (0.1, 0.5, 0.9, 1.0)
    assert percentiles(values, fractions) == [percentile(values, f) for f in fractions]
    with pytest.raises(ValueError):
        percentiles([], (0.5,))
    with pytest.raises(ValueError):
        percentiles(values, (0.0,))


def test_summarize_shape():
    summary = summarize([4.0, 2.0, 8.0, 6.0])
    assert summary["min"] == 2.0
    assert summary["max"] == 8.0
    assert summary["mean"] == 5.0
    assert summary["p50"] == 4.0
