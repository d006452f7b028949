"""Replay-engine throughput: the columnar kernels against the scalar oracle.

Two gates, each timed and checked by the perf harness (``harness.py``:
interleaved CPU-time pairs, the median per-pair speedup, its floor and
the 20 % bound against the committed ``BENCH_replay.json``).

:func:`test_replay_throughput` (section ``kernel``) replays a 50k-request
synthetic trace of whole-track-aligned reads in the first zone (the
paper's signature workload shape) with the columnar kernel (``fast=True``)
on one drive (row ``1-drive``) and striped over the 4-drive fleet (row
``4-drive``), each against the naive loop: one ``DiskDrive.submit`` call
per request, the scalar oracle a ``fast=False`` replay runs, over the
trace's first 10k rows.  The drives' firmware cache is off: the trace
re-reads first-zone tracks, so with caching on the kernel correctly
refuses it; with caching off it is reuse-free and eligible.  Every row
must reach 10x, and each kernel replay is checked bitwise against a
``fast=False`` replay of the same trace.

:func:`test_scheduled_replay_throughput` (section ``scheduled``) measures
the event-batched *scheduled* kernel: a depth-8 closed replay of 8000
track-aligned whole-track reads for every scheduling policy (one row
each), ``kernel_sched`` against the scalar queue loop.  Every policy must
reach 8x, with bitwise-identical ``ReplayStats``.

Each committed section is the per-row median of 10 separate runs of that
same measurement, written by ``refresh_baseline.py`` in this directory.
They were measured on a 2-vCPU x86-64 Linux container under CPython
3.11.7 with numpy 2.4.6; each section records the commit and Python it
measured.  Whether their ratios hold on other hardware or another Python
is not known.
"""

from __future__ import annotations

import random

from harness import KERNEL, SCHEDULED, record_and_check, time_pairs
from repro import DriveConfig, FleetConfig, build_drive, build_fleet
from repro.api import stripe_trace
from repro.disksim import DiskDrive, DiskRequest
from repro.sim import Trace, TraceReplayEngine

MODEL = "Quantum Atlas 10K II"
DRIVE_CONFIG = DriveConfig(model=MODEL)
#: Kernel measurement drive: identical timing model, firmware cache off so
#: the reference trace has no cache-sensitive reuse (see module docstring).
KERNEL_DRIVE_CONFIG = DriveConfig(model=MODEL, enable_caching=False)
TRACE_REQUESTS = 50_000
NAIVE_REQUESTS = 10_000
N_DRIVES = 4
INTERARRIVAL_MS = 0.05

# Scheduled-replay benchmark (test_scheduled_replay_throughput)
SCHED_POLICIES = ("fcfs", "sstf", "sptf", "clook", "traxtent")
SCHED_REQUESTS = 8_000
SCHED_DEPTH = 8


def aligned_tracks(drive: DiskDrive) -> list[tuple[int, int]]:
    """(first_lbn, sectors) of every data track in the first zone."""
    geometry = drive.geometry
    start, end = geometry.zone_lbn_range(0)
    first_track = geometry.track_of_lbn(start)
    last_track = geometry.track_of_lbn(end - 1)
    tracks = []
    for track in range(first_track, last_track + 1):
        first, count = geometry.track_bounds(track)
        if count > 0:
            tracks.append((first, count))
    return tracks


def build_aligned_trace(drive: DiskDrive, n: int, seed: int = 42) -> Trace:
    tracks = aligned_tracks(drive)
    rng = random.Random(seed)
    trace = Trace()
    t = 0.0
    for _ in range(n):
        lbn, count = tracks[rng.randrange(len(tracks))]
        trace.append(t, lbn, count, "read")
        t += INTERARRIVAL_MS
    return trace


def measure_kernel() -> dict:
    """One run of the kernel gate: this run's ``kernel`` section.

    Per row, one untimed kernel replay checks its path and that its
    statistics equal a ``fast=False`` replay's bitwise, and warms it up;
    then :func:`time_pairs` times its kernel/naive pairs."""
    reference = build_drive(DRIVE_CONFIG)
    trace = build_aligned_trace(reference, TRACE_REQUESTS)
    # The whole trace is whole-track requests by construction.
    assert trace.aligned_fraction(reference.geometry) == 1.0
    naive_drive = build_drive(DRIVE_CONFIG)
    naive_rows = list(zip(trace.issue_ms, trace.lbns, trace.counts))[:NAIVE_REQUESTS]

    def naive() -> None:
        naive_drive.reset()
        for t, lbn, count in naive_rows:
            naive_drive.submit(DiskRequest.read(lbn, count), t)

    naive()
    fleet = build_fleet(FleetConfig(n_drives=N_DRIVES), KERNEL_DRIVE_CONFIG)
    rows = {}
    for target, replayed in (
        (build_drive(KERNEL_DRIVE_CONFIG), trace),
        (fleet, stripe_trace(trace, fleet)),
    ):
        engine = TraceReplayEngine(target, fast=True)
        stats = engine.replay(replayed)
        assert engine.last_replay_path == "kernel", engine.last_fast_reason
        assert stats.issued_requests == len(replayed)
        scalar = TraceReplayEngine(target, fast=False).replay(replayed)
        assert stats.to_dict() == scalar.to_dict()
        times = time_pairs(lambda: engine.replay(replayed), naive)
        rows[f"{len(engine.fleet)}-drive"] = KERNEL.row(times, len(replayed), NAIVE_REQUESTS)
    return KERNEL.measured(
        rows, model=MODEL, requests=len(trace), naive_requests=NAIVE_REQUESTS
    )


def test_replay_throughput():
    record_and_check(
        KERNEL,
        measure_kernel(),
        f"Replay throughput, kernel vs naive loop: {TRACE_REQUESTS} whole-track "
        f"reads ({NAIVE_REQUESTS} for the naive loop), {MODEL}",
    )


# --------------------------------------------------------------------------- #
# Scheduled replay: scalar queue loop vs event-batched kernel, per policy
# --------------------------------------------------------------------------- #

def build_sched_trace(drive: DiskDrive, n: int, seed: int = 1234) -> Trace:
    """``n`` whole-track 256-sector reads over random large tracks.

    The paper's signature access shape -- track-aligned, extent-sized --
    restricted to tracks that actually hold >= 256 sectors so every request
    is a single-track access on both the scalar and kernel paths.
    """
    geometry = drive.geometry
    tracks = []
    for track in range(geometry.num_tracks):
        first, count = geometry.track_bounds(track)
        if count >= 256:
            tracks.append(first)
    rng = random.Random(seed)
    trace = Trace()
    for i in range(n):
        trace.append(i * INTERARRIVAL_MS, tracks[rng.randrange(len(tracks))], 256, "read")
    return trace


def _sched_replayer(trace: Trace, policy: str, fast: bool):
    """A function that replays ``trace`` closed under ``policy`` on one
    cache-off drive (each replay resets it), checks the path it ran and
    returns the statistics."""
    engine = TraceReplayEngine(
        build_drive(KERNEL_DRIVE_CONFIG),
        scheduler=policy,
        queue_depth=SCHED_DEPTH,
        fast=fast,
    )
    expected = "kernel_sched" if fast else "scalar"

    def replay():
        stats = engine.replay_closed(trace, think_ms=0.0)
        assert engine.last_replay_path == expected, (
            policy, engine.last_replay_path, engine.last_fast_reason
        )
        return stats

    return replay


def measure_scheduled() -> dict:
    """One run of the scheduled gate: this run's ``scheduled`` section.

    Per policy, one untimed replay of each side checks that their
    statistics are bitwise identical and warms both up; then
    :func:`time_pairs` times its kernel/scalar pairs."""
    trace = build_sched_trace(build_drive(KERNEL_DRIVE_CONFIG), SCHED_REQUESTS)
    assert len(trace) == SCHED_REQUESTS
    # Every request starts on a track boundary and fits inside its track
    # (build_sched_trace only samples tracks holding >= 256 sectors).
    assert all(count == 256 for count in trace.counts)
    policies = {}
    for policy in SCHED_POLICIES:
        kernel = _sched_replayer(trace, policy, fast=True)
        scalar = _sched_replayer(trace, policy, fast=False)
        # The whole point of the kernel: bitwise-identical statistics.
        assert kernel().to_dict() == scalar().to_dict(), policy
        policies[policy] = SCHEDULED.row(time_pairs(kernel, scalar), len(trace))
    return SCHEDULED.measured(policies, requests=SCHED_REQUESTS, queue_depth=SCHED_DEPTH)


def test_scheduled_replay_throughput():
    record_and_check(
        SCHEDULED,
        measure_scheduled(),
        "Scheduled replay throughput, kernel_sched vs scalar queue loop: "
        f"{SCHED_REQUESTS} whole-track reads, depth {SCHED_DEPTH}, {MODEL}",
    )
