"""Which path every public replay entry point takes, and why.

One table pins ``(engine.last_replay_path, engine.last_fast_reason)`` for
every entry point -- ``replay``, ``replay_closed``, ``replay_stream`` and
``replay_closed_stream`` over several chunks, and ``run_service`` in one
chunk and in several -- under FCFS and SPTF, closed depth 1 and 4, and four
gates: a clean cache-off fleet, a cache-on fleet replaying a trace that
re-reads its own LBNs, a fault schedule, and ``fast=False``.  One more row
replays requests that cross track boundaries on a cache-off fleet: they
stay on the kernel.  Every case
also equals its ``fast=False`` replay bitwise, so a label can only move
together with a deliberate change of path.  The rows include the pairs the
repository benchmark pins (``perfbench/workloads.py``): service FCFS on the
kernel, service SPTF on the scalar queue loop, an open cache-on replay
refused for reuse, and closed FCFS/SPTF queues on the kernel or, under
faults, the scalar path.

Without numpy every replay the kernel would have served reports
``"numpy unavailable"``; ``fast=False`` and streamed scheduled replays keep
their own reasons, which are decided first.
"""

from __future__ import annotations

import random

import pytest

from _numpy_gate import HAVE_NUMPY
from repro.disksim import DiskDrive, small_test_specs
from repro.faults import DriveFaultConfig, FaultConfig, TransientFaultConfig, attach_fleet_faults
from repro.sim import LbnRangeShard, Trace, TraceReplayEngine
from repro.sim.stream import SCHED_STREAM_REASON, run_service

SMALL = dict(cylinders_per_zone=12, num_zones=3)
N_DRIVES = 2
REQUESTS = 120
CHUNK = 40

KERNEL = ("kernel", "ok")
KERNEL_SCHED = ("kernel_sched", "ok")
REUSE = ("scalar", "firmware-cache-sensitive reuse")
FAULTS = ("scalar", "fault injection active")
OFF = ("scalar", "fast disabled")
QUEUE_LOOP = ("scalar", SCHED_STREAM_REASON)
NO_NUMPY = ("scalar", "numpy unavailable")

GATES = ("clean", "reuse", "faults", "off")

#: ``(entry, policy, closed depth, expected pair per gate in GATES order)``.
TABLE = [
    ("replay", "fcfs", 1, (KERNEL, REUSE, FAULTS, OFF)),
    ("replay", "sptf", 1, (KERNEL_SCHED, REUSE, FAULTS, OFF)),
    ("replay_stream", "fcfs", 1, (KERNEL, REUSE, FAULTS, OFF)),
    ("replay_stream", "sptf", 1, (QUEUE_LOOP, QUEUE_LOOP, QUEUE_LOOP, OFF)),
    ("service_one_chunk", "fcfs", 1, (KERNEL, REUSE, FAULTS, OFF)),
    ("service_one_chunk", "sptf", 1, (QUEUE_LOOP, QUEUE_LOOP, QUEUE_LOOP, OFF)),
    ("service", "fcfs", 1, (KERNEL, REUSE, FAULTS, OFF)),
    ("service", "sptf", 1, (QUEUE_LOOP, QUEUE_LOOP, QUEUE_LOOP, OFF)),
    ("replay_closed", "fcfs", 1, (KERNEL_SCHED, REUSE, FAULTS, OFF)),
    ("replay_closed", "fcfs", 4, (KERNEL_SCHED, REUSE, FAULTS, OFF)),
    ("replay_closed", "sptf", 1, (KERNEL_SCHED, REUSE, FAULTS, OFF)),
    ("replay_closed", "sptf", 4, (KERNEL_SCHED, REUSE, FAULTS, OFF)),
    ("replay_closed_stream", "fcfs", 1, (KERNEL_SCHED, REUSE, FAULTS, OFF)),
    ("replay_closed_stream", "fcfs", 4, (QUEUE_LOOP, QUEUE_LOOP, QUEUE_LOOP, OFF)),
    ("replay_closed_stream", "sptf", 1, (QUEUE_LOOP, QUEUE_LOOP, QUEUE_LOOP, OFF)),
    ("replay_closed_stream", "sptf", 4, (QUEUE_LOOP, QUEUE_LOOP, QUEUE_LOOP, OFF)),
]

CASES = [
    pytest.param(entry, policy, depth, gate, pairs[k], id=f"{entry}-{policy}-{depth}-{gate}")
    for entry, policy, depth, pairs in TABLE
    for k, gate in enumerate(GATES)
] + [
    pytest.param("replay", "fcfs", 1, "multitrack", KERNEL, id="replay-fcfs-1-multitrack"),
]


def build_fleet(gate: str) -> LbnRangeShard:
    drives = [DiskDrive(small_test_specs(**SMALL)) for _ in range(N_DRIVES)]
    for drive in drives:
        drive.cache.enable_caching = gate == "reuse"
    fleet = LbnRangeShard(drives)
    if gate == "faults":
        attach_fleet_faults(fleet, FaultConfig(seed=5, drives={
            0: DriveFaultConfig(
                transient=TransientFaultConfig(probability=0.2, max_retries=2)
            ),
        }))
    return fleet


def build_trace(gate: str, fleet: LbnRangeShard) -> Trace:
    """Time-ordered arrivals fast enough to queue.  The reuse trace reads
    three LBNs over and over, so every chunk re-reads its own LBNs; every
    request of the multitrack trace crosses a track boundary."""
    rng = random.Random(17)
    hot = [rng.randrange(fleet.total_lbns - 64) for _ in range(3)]
    trace = Trace()
    t = 0.0
    for _ in range(REQUESTS):
        t += rng.expovariate(1 / 2.0)
        if gate == "reuse":
            trace.append(t, rng.choice(hot), 16, "read")
        else:
            if gate == "multitrack":
                count = rng.randint(600, 900)
            else:
                count = rng.choice([1, 8, 64])
            op = "read" if rng.random() < 0.7 else "write"
            trace.append(t, rng.randrange(fleet.total_lbns - count), count, op)
    return trace


def run(entry: str, engine: TraceReplayEngine, trace: Trace) -> dict:
    if entry == "replay":
        return engine.replay(trace).to_dict()
    if entry == "replay_closed":
        return engine.replay_closed(trace, think_ms=0.5).to_dict()
    if entry == "replay_stream":
        return engine.replay_stream(trace.iter_chunks(CHUNK)).to_dict()
    if entry == "replay_closed_stream":
        return engine.replay_closed_stream(trace.iter_chunks(CHUNK), think_ms=0.5).to_dict()
    chunk = len(trace) if entry == "service_one_chunk" else CHUNK
    return run_service(engine, trace.iter_chunks(chunk)).to_dict()


@pytest.mark.parametrize("entry,policy,depth,gate,expected", CASES)
def test_replay_path_labels(entry, policy, depth, gate, expected):
    if not HAVE_NUMPY and expected not in (OFF, QUEUE_LOOP):
        expected = NO_NUMPY
    fleet = build_fleet(gate)
    trace = build_trace(gate, fleet)
    options = dict(scheduler=policy, queue_depth=depth)
    engine = TraceReplayEngine(fleet, fast=False if gate == "off" else None, **options)
    result = run(entry, engine, trace)
    assert (engine.last_replay_path, engine.last_fast_reason) == expected
    oracle = TraceReplayEngine(build_fleet(gate), fast=False, **options)
    assert run(entry, oracle, trace) == result
