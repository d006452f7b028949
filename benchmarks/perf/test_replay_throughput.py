"""Replay-engine throughput benchmark: naive loop vs columnar kernel.

Replays a >=50k-request synthetic trace (whole-track-aligned reads in the
first zone, the paper's signature workload shape) three ways:

* **naive**          -- one ``DiskDrive.submit`` call per request, the
  scalar oracle a ``fast=False`` replay runs (measured on a 10k slice of
  the same trace),
* **kernel**         -- the columnar numpy kernel (``fast=True``) on a
  single drive with the firmware cache disabled (the reference trace
  re-reads first-zone tracks, so with caching enabled the kernel correctly
  refuses; disabling the cache makes the trace reuse-free and eligible),
* **kernel_sharded** -- the kernel on the 4-drive fleet.

The kernel is measured twice: ``seconds_cold`` includes the one-time
per-geometry table construction (cached per process), ``seconds`` is the
steady-state run campaigns actually see.

Two regression gates run in the same measurement:

* the kernel must beat the naive loop by >= 10x, and
* the kernel's *naive-normalized* speedup must not regress more than 20 %
  below the committed baseline in ``BENCH_replay.json`` (normalizing by
  the same-run naive rps cancels machine speed, so the gate is meaningful
  on heterogeneous CI hardware).  A committed baseline without the section
  a gate reads fails that gate: it does not pass.

The kernel's result is also checked bitwise against a ``fast=False``
replay of the same trace, which runs the naive loop.

A second benchmark, :func:`test_scheduled_replay_throughput`, measures the
event-batched *scheduled* kernel: a depth-8 closed replay of 8000
track-aligned whole-track reads for every scheduling policy, scalar queue
loop vs ``kernel_sched``.  Each policy is timed as :data:`SCHED_PAIRS`
interleaved pairs, one kernel replay and one scalar replay, in CPU seconds
of this process (:func:`time_pairs`), and its speedup is the median
per-pair ratio.  The two sides of a pair run back to back, so a shared host
that slows down or speeds up between pairs does so for both; CPU time
leaves out the time the process waits descheduled.  A busy host can still
slow the two sides by different factors (README, "Regenerating the perf
baseline"), and a busy phase that lasts a whole run moves its median.
The scheduled kernel must beat the scalar queue loop by >= 8x on every
policy, produce bitwise-identical ``ReplayStats``, and its per-policy
speedups are regression-gated at 20 % against the committed baseline.

The committed ``scheduled`` baseline is the per-policy median of 10
separate runs of that same measurement, written by
``refresh_scheduled_baseline.py`` in this directory.  It was measured on a
2-vCPU x86-64 Linux container under CPython 3.11.7 with numpy 2.4.6; the
section records the commit and Python it measured.  Whether its ratios
hold on other hardware or another Python is not known.

The gates only read the committed ``BENCH_replay.json``.  Everything a run
writes goes to the untracked :data:`OUT_DIR` (CI uploads it): this run's
sections of ``BENCH_replay.json`` (:func:`write_bench_section`, each
benchmark its own section), one ``BENCH_history.jsonl`` line per benchmark
recording the commit measured (:func:`append_history`), and the text
reports (:func:`write_report`).  The ``scheduled`` baseline changes only
through the refresh command, and every other section only by copying it
from there into the committed file by hand, in a change that says so.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import platform
import random
import statistics
import time

from compare import quartiles  # perfbench/compare.py, put on sys.path by conftest.py
from repro import DriveConfig, FleetConfig, build_drive, build_fleet
from repro.api import stripe_trace
from repro.disksim import DiskDrive, DiskRequest
from repro.sim import Trace, TraceReplayEngine
from run import git_commit  # perfbench/run.py, put on sys.path by conftest.py

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
#: The committed baseline the gates read; no test writes it.
BENCH_PATH = REPO_ROOT / "BENCH_replay.json"
#: Everything a perf run writes (listed in ``.gitignore``).
OUT_DIR = REPO_ROOT / "benchmarks" / "perf" / "out"
RUN_PATH = OUT_DIR / "BENCH_replay.json"
HISTORY_PATH = OUT_DIR / "BENCH_history.jsonl"

MODEL = "Quantum Atlas 10K II"
DRIVE_CONFIG = DriveConfig(model=MODEL)
#: Kernel measurement drive: identical timing model, firmware cache off so
#: the reference trace has no cache-sensitive reuse (see module docstring).
KERNEL_DRIVE_CONFIG = DriveConfig(model=MODEL, enable_caching=False)
TRACE_REQUESTS = 50_000
NAIVE_REQUESTS = 10_000
N_DRIVES = 4
INTERARRIVAL_MS = 0.05
MIN_KERNEL_SPEEDUP = 10.0
#: Committed-baseline regression gate on naive-normalized speedups.
MAX_REGRESSION = 0.20
#: Every mode is timed this many times and the fastest run is reported
#: (standard best-of-N to keep the speedup ratios stable under CI noise).
REPEATS = 3

# Scheduled-replay benchmark (test_scheduled_replay_throughput)
SCHED_POLICIES = ("fcfs", "sstf", "sptf", "clook", "traxtent")
SCHED_REQUESTS = 8_000
SCHED_DEPTH = 8
#: The scheduled kernel must beat the scalar queue loop by this factor on
#: every policy (the hardest is SPTF, whose per-candidate positioning
#: score keeps the most work inside the serial recurrence).
MIN_SCHED_SPEEDUP = 8.0
#: Interleaved kernel/scalar pairs timed per policy, after one untimed
#: replay of each side.
SCHED_PAIRS = 15
#: How the scheduled section is measured; the committed baseline names it.
SCHED_TIMING = "process_time, interleaved pairs, median per-pair ratio"
#: The committed scheduled baseline is the median of this many runs, each
#: in its own interpreter (``refresh_scheduled_baseline.py``).
SCHED_BASELINE_RUNS = 10

def _load_bench(path: pathlib.Path) -> dict:
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}
    return data if isinstance(data, dict) else {}


COMMITTED_BASELINE = _load_bench(BENCH_PATH)


def _best_of(repeats: int, run) -> float:
    """Fastest wall-clock seconds of ``repeats`` invocations of ``run``."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best


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


def head_commit(root: pathlib.Path = REPO_ROOT) -> str:
    """The commit measured: ``GITHUB_SHA`` when CI sets it, else HEAD read
    from ``.git`` by perfbench's ``git_commit`` without starting a git
    process ("" when unreadable)."""
    return os.environ.get("GITHUB_SHA") or git_commit(root) or ""


def append_history(fields: dict) -> None:
    """Append one line to the cross-run perf trajectory: when, which
    commit and which Python, then the benchmark's own ``fields``."""
    line = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "commit": head_commit(),
        "python": platform.python_version(),
        **fields,
    }
    HISTORY_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(HISTORY_PATH, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line) + "\n")


def write_bench_section(section: dict) -> None:
    """Replace the top-level keys ``section`` holds in this run's
    ``BENCH_replay.json`` and keep every other benchmark's keys as they
    are."""
    merged = _load_bench(RUN_PATH)
    merged.update(section)
    RUN_PATH.parent.mkdir(parents=True, exist_ok=True)
    RUN_PATH.write_text(json.dumps(merged, indent=2) + "\n")


def write_report(name: str, text: str) -> None:
    """Print a perf report and keep it as ``<name>.txt`` in :data:`OUT_DIR`."""
    print(f"\n{text}\n")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")


def missing_baseline(section: str) -> str:
    return (
        f"committed {BENCH_PATH.name} has no '{section}' baseline: "
        "the gate cannot run without it"
    )


def section_rps(section: dict, key: str) -> "float | None":
    """``section[key]["rps"]``, or None when either is missing."""
    return (section.get(key) or {}).get("rps")


def rps_sides(*sides: tuple[str, "float | None", "float | None"]) -> str:
    """``name <current> rps (committed <baseline> rps)`` for each
    ``(name, current, committed)`` side of a ratio, so a failing gate shows
    which side moved."""

    def rps(value) -> str:
        return f"{value:.0f} rps" if value else "no rps"

    return ", ".join(
        f"{name} {rps(current)} (committed {rps(committed)})"
        for name, current, committed in sides
    )


def _check_regressions(baseline: dict, payload: dict) -> list[str]:
    """Compare the kernel's naive-normalized speedup against the committed
    baseline."""
    reference = (baseline.get("kernel") or {}).get("speedup_vs_naive")
    if not reference:
        return [missing_baseline("kernel")]
    current = payload["kernel"]["speedup_vs_naive"]
    if current < reference * (1.0 - MAX_REGRESSION):
        sides = rps_sides(
            ("naive", section_rps(payload, "naive"), section_rps(baseline, "naive")),
            ("kernel", section_rps(payload, "kernel"), section_rps(baseline, "kernel")),
        )
        return [
            f"kernel speedup regressed >20%: {current:.2f}x vs committed "
            f"baseline {reference:.2f}x; {sides}"
        ]
    return []


def test_replay_throughput():
    reference = build_drive(DRIVE_CONFIG)
    trace = build_aligned_trace(reference, TRACE_REQUESTS)
    assert len(trace) >= 50_000
    # The whole trace is whole-track requests by construction.
    aligned_fraction = trace.aligned_fraction(reference.geometry)
    assert aligned_fraction == 1.0

    # --- naive per-request loop (the seed baseline) -------------------- #
    naive_drive = build_drive(DRIVE_CONFIG)

    def run_naive() -> None:
        naive_drive.reset()
        for t, lbn, count in zip(
            trace.issue_ms[:NAIVE_REQUESTS],
            trace.lbns[:NAIVE_REQUESTS],
            trace.counts[:NAIVE_REQUESTS],
        ):
            naive_drive.submit(DiskRequest.read(lbn, count), t)

    naive_s = _best_of(REPEATS, run_naive)
    naive_rps = NAIVE_REQUESTS / naive_s

    # --- columnar kernel, single drive (cache-free: reuse-eligible) ----- #
    kernel_engine = TraceReplayEngine(build_drive(KERNEL_DRIVE_CONFIG), fast=True)
    t0 = time.perf_counter()
    kernel_stats = kernel_engine.replay(trace)
    kernel_cold_s = time.perf_counter() - t0
    assert kernel_engine.last_replay_path == "kernel", kernel_engine.last_fast_reason
    kernel_s = _best_of(REPEATS, lambda: kernel_engine.replay(trace))
    kernel_rps = len(trace) / kernel_s

    # Exactness check against the scalar oracle on the same drive.
    scalar_check = TraceReplayEngine(
        build_drive(KERNEL_DRIVE_CONFIG), fast=False
    ).replay(trace)
    assert kernel_stats.to_dict() == scalar_check.to_dict()

    # --- columnar kernel, 4-drive fleet ---------------------------------- #
    kernel_fleet = build_fleet(FleetConfig(n_drives=N_DRIVES), KERNEL_DRIVE_CONFIG)
    fleet_trace = stripe_trace(trace, kernel_fleet)
    kernel_fleet_engine = TraceReplayEngine(kernel_fleet, fast=True)
    kernel_sharded_stats = kernel_fleet_engine.replay(fleet_trace)
    assert kernel_fleet_engine.last_replay_path == "kernel"
    kernel_sharded_s = _best_of(
        REPEATS, lambda: kernel_fleet_engine.replay(fleet_trace)
    )
    kernel_sharded_rps = len(fleet_trace) / kernel_sharded_s

    assert kernel_stats.issued_requests == len(trace)
    assert kernel_sharded_stats.issued_requests == len(fleet_trace)
    assert sum(d.stats.requests for d in kernel_fleet.drives) == len(fleet_trace)

    speedup_kernel = kernel_rps / naive_rps
    speedup_kernel_sharded = kernel_sharded_rps / naive_rps

    payload = {
        "model": MODEL,
        "python": platform.python_version(),
        "trace": {**trace.describe(), "aligned_fraction": aligned_fraction},
        "naive": {"requests": NAIVE_REQUESTS, "seconds": naive_s, "rps": naive_rps},
        "kernel": {
            "requests": len(trace),
            "seconds": kernel_s,
            "seconds_cold": kernel_cold_s,
            "rps": kernel_rps,
            "speedup_vs_naive": speedup_kernel,
            "sim": kernel_stats.to_dict(),
        },
        "kernel_sharded": {
            "drives": N_DRIVES,
            "requests": len(fleet_trace),
            "seconds": kernel_sharded_s,
            "rps": kernel_sharded_rps,
            "speedup_vs_naive": speedup_kernel_sharded,
            "sim": kernel_sharded_stats.to_dict(),
        },
        "min_kernel_speedup_required": MIN_KERNEL_SPEEDUP,
        "max_regression_allowed": MAX_REGRESSION,
    }
    append_history(
        {
            "naive_rps": naive_rps,
            "kernel_rps": kernel_rps,
            "kernel_speedup": speedup_kernel,
            "kernel_sharded_rps": kernel_sharded_rps,
        }
    )
    write_bench_section(payload)
    regressions = _check_regressions(COMMITTED_BASELINE, payload)

    lines = [
        "Replay throughput (wall-clock requests/second)",
        f"  trace: {len(trace)} whole-track reads, {MODEL}",
        f"  naive per-request loop : {naive_rps:>10.0f} rps",
        f"  kernel single drive    : {kernel_rps:>10.0f} rps  ({speedup_kernel:.2f}x, "
        f"cold {len(trace) / kernel_cold_s:.0f} rps)",
        f"  kernel {N_DRIVES}-drive fleet   : {kernel_sharded_rps:>10.0f} rps  "
        f"({speedup_kernel_sharded:.2f}x)",
        f"  sim throughput (fleet) : {kernel_sharded_stats.requests_per_second:>10.0f} "
        "req/s of simulated time",
        f"  artifacts: {RUN_PATH.relative_to(REPO_ROOT)}, "
        f"{HISTORY_PATH.relative_to(REPO_ROOT)}",
    ]
    write_report("BENCH_replay", "\n".join(lines))

    assert speedup_kernel >= MIN_KERNEL_SPEEDUP, (
        f"kernel replay only {speedup_kernel:.2f}x faster than the naive "
        f"loop (need >= {MIN_KERNEL_SPEEDUP}x): {kernel_rps:.0f} vs {naive_rps:.0f} rps"
    )
    assert not regressions, "; ".join(regressions)


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


def time_pairs(first, second, pairs: int, clock=time.process_time) -> list:
    """``(first, second)`` seconds of ``pairs`` interleaved runs of two
    functions.

    Pair ``i`` runs ``first`` before ``second`` when ``i`` is even and after
    it when ``i`` is odd, so a steady drift in host speed favours neither
    side.  ``clock`` defaults to this process's CPU time, which leaves out
    the time the process waits descheduled.  Warm both sides up first: the
    first run of each pays for per-process tables and caches.
    """
    sides = (first, second)
    times = []
    for i in range(pairs):
        spent = [0.0, 0.0]
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            t0 = clock()
            sides[side]()
            spent[side] = clock() - t0
        times.append((spent[0], spent[1]))
    return times


def sched_row(times: list, requests: int) -> dict:
    """One policy's row of the ``scheduled`` section from its ``(kernel,
    scalar)`` pair seconds.

    The speedup is the median per-pair ratio, with its quartiles from
    perfbench's :func:`compare.quartiles`, so a pair that a neighbour
    slowed does not move it.  Each side's rps is ``requests`` over that
    side's median seconds."""
    q1, speedup, q3 = quartiles([scalar / kernel for kernel, scalar in times])
    return {
        "speedup_vs_scalar": speedup,
        "speedup_q1": q1,
        "speedup_q3": q3,
        "scalar_rps": requests / statistics.median(s for _, s in times),
        "kernel_rps": requests / statistics.median(k for k, _ in times),
    }


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
    """One run of the scheduled benchmark: this run's ``scheduled`` section.

    Per policy, one untimed replay of each side checks that their
    statistics are bitwise identical and warms both up; then
    :func:`time_pairs` times :data:`SCHED_PAIRS` kernel/scalar pairs and
    :func:`sched_row` summarizes them."""
    trace = build_sched_trace(build_drive(KERNEL_DRIVE_CONFIG), SCHED_REQUESTS)
    assert len(trace) == SCHED_REQUESTS
    # Every request starts on a track boundary and fits inside its track
    # (build_sched_trace only samples tracks holding >= 256 sectors).
    assert all(count == 256 for count in trace.counts)
    section = {
        "requests": SCHED_REQUESTS,
        "queue_depth": SCHED_DEPTH,
        "min_speedup_required": MIN_SCHED_SPEEDUP,
        "timing": SCHED_TIMING,
        "pairs": SCHED_PAIRS,
        "policies": {},
    }
    for policy in SCHED_POLICIES:
        kernel = _sched_replayer(trace, policy, fast=True)
        scalar = _sched_replayer(trace, policy, fast=False)
        # The whole point of the kernel: bitwise-identical statistics.
        assert kernel().to_dict() == scalar().to_dict(), policy
        times = time_pairs(kernel, scalar, SCHED_PAIRS)
        section["policies"][policy] = sched_row(times, len(trace))
    return section


def sched_rps_sides(baseline: dict, policy: str, row: dict) -> str:
    """:func:`rps_sides` of one policy's scalar and kernel_sched runs."""
    committed = (
        ((baseline.get("scheduled") or {}).get("policies") or {}).get(policy) or {}
    )
    return rps_sides(
        ("scalar", row.get("scalar_rps"), committed.get("scalar_rps")),
        ("kernel_sched", row.get("kernel_rps"), committed.get("kernel_rps")),
    )


def _check_sched_regressions(baseline: dict, section: dict) -> list[str]:
    """Per-policy 20 % gate on the scalar-normalized kernel speedups."""
    reference_policies = (baseline.get("scheduled") or {}).get("policies") or {}
    if not reference_policies:
        return [missing_baseline("scheduled")]
    failures = []
    for policy, row in section["policies"].items():
        reference = (reference_policies.get(policy) or {}).get("speedup_vs_scalar")
        if not reference:
            failures.append(missing_baseline(f"scheduled.policies.{policy}"))
            continue
        current = row["speedup_vs_scalar"]
        if current < reference * (1.0 - MAX_REGRESSION):
            failures.append(
                f"kernel_sched {policy} speedup regressed >20%: "
                f"{current:.2f}x vs committed baseline {reference:.2f}x; "
                f"{sched_rps_sides(baseline, policy, row)}"
            )
    return failures


def _check_sched_floor(baseline: dict, section: dict) -> list[str]:
    """Each policy whose speedup is under :data:`MIN_SCHED_SPEEDUP`, with
    both sides' rps."""
    return [
        f"{policy} {row['speedup_vs_scalar']:.2f}x: "
        f"{sched_rps_sides(baseline, policy, row)}"
        for policy, row in section["policies"].items()
        if row["speedup_vs_scalar"] < MIN_SCHED_SPEEDUP
    ]


def refresh_scheduled(runs: list[dict], path: pathlib.Path = BENCH_PATH) -> dict:
    """Write the median of ``runs`` (:func:`measure_scheduled` sections, one
    per interpreter) as the ``scheduled`` key of the baseline at ``path``,
    and return that section.

    Per policy, the speedup and each side's rps are medians over the runs,
    and ``speedup_q1``/``speedup_q3`` are the quartiles of the runs'
    speedups.  The section records the run count, the commit and the Python
    measured.  The file is rewritten as ``json.dumps(..., indent=2)``, the
    form it is committed in, so every other key keeps its bytes."""
    policies = {}
    for policy in runs[0]["policies"]:
        rows = [run["policies"][policy] for run in runs]
        q1, speedup, q3 = quartiles([row["speedup_vs_scalar"] for row in rows])
        policies[policy] = {
            "speedup_vs_scalar": speedup,
            "speedup_q1": q1,
            "speedup_q3": q3,
            "scalar_rps": statistics.median(row["scalar_rps"] for row in rows),
            "kernel_rps": statistics.median(row["kernel_rps"] for row in rows),
        }
    section = {key: value for key, value in runs[0].items() if key != "policies"}
    section.update(
        runs=len(runs),
        commit=head_commit(),
        python=platform.python_version(),
        policies=policies,
    )
    baseline = json.loads(path.read_text())
    baseline["scheduled"] = section
    path.write_text(json.dumps(baseline, indent=2) + "\n")
    return section


def test_scheduled_replay_throughput():
    section = measure_scheduled()
    lines = [
        "Scheduled replay throughput (scalar queue loop vs kernel_sched; "
        f"CPU time, median of {section['pairs']} interleaved pairs [q1, q3])",
        f"  trace: {SCHED_REQUESTS} whole-track reads, depth {SCHED_DEPTH}, {MODEL}",
    ]
    for policy, row in section["policies"].items():
        lines.append(
            f"  {policy:9s}: {row['kernel_rps']:>10.0f} rps kernel_sched, "
            f"{row['scalar_rps']:>8.0f} rps scalar  ({row['speedup_vs_scalar']:.2f}x "
            f"[{row['speedup_q1']:.2f}, {row['speedup_q3']:.2f}])"
        )
    lines.append(
        f"  artifacts: {RUN_PATH.relative_to(REPO_ROOT)}, "
        f"{HISTORY_PATH.relative_to(REPO_ROOT)}"
    )
    write_report("BENCH_replay_scheduled", "\n".join(lines))

    history = {"kind": "scheduled", "depth": SCHED_DEPTH, "requests": SCHED_REQUESTS}
    for policy, row in section["policies"].items():
        history[f"{policy}_speedup"] = row["speedup_vs_scalar"]
    append_history(history)
    write_bench_section({"scheduled": section})
    regressions = _check_sched_regressions(COMMITTED_BASELINE, section)

    slow = _check_sched_floor(COMMITTED_BASELINE, section)
    assert not slow, (
        f"kernel_sched below the {MIN_SCHED_SPEEDUP}x floor vs the scalar "
        f"queue loop: {'; '.join(slow)}"
    )
    assert not regressions, "; ".join(regressions)
