"""The perf gates' bookkeeping: committed baselines, sections, history.

No timing here.  These tests pin how the perf harness (``harness.py``)
summarizes and checks a gate's timed pairs, and what the throughput
benchmarks do with ``BENCH_replay.json`` and ``BENCH_history.jsonl``:

* a gate alternates which side of a pair runs first and reads the median
  per-pair ratio, so one pair a neighbour slowed does not move it,
* every row of a gate is held to its floor and, against the committed
  section, to the 20 % bound,
* the baseline refresh writes the median of its runs into its own key and
  leaves every other byte of the baseline as it was,
* each committed section names the measurement the gate makes, so a
  section measured another way (one run, best-of-3 wall clock) fails,
* a gate whose section is missing from the committed baseline fails and
  names the section (it used to pass silently),
* a failing gate names the current and committed rps of both sides of its
  ratio, so the message shows which side moved,
* the write helpers leave the committed baseline byte-identical and write
  only to the untracked output directory, so a run cannot ratchet the
  baseline it is gated against,
* each benchmark rewrites only its own section of the run's output, so a
  run stopped between two benchmarks cannot drop the other's,
* the committed baseline holds every section a gate reads, one key each,
  and
* a history line records the commit, read from ``.git`` without git.
"""

from __future__ import annotations

import json
import platform
import subprocess

import harness
import test_replay_throughput as replay
import test_streaming_throughput as streaming
from harness import BOUNDED, CAMPAIGN_STARTUP, KERNEL, SCHEDULED, STREAMING


def _section(gate: harness.Gate, **speedups: float) -> dict:
    """A section of ``gate`` with one row per ``name=speedup``."""
    return {gate.rows: {name: {gate.ratio: value} for name, value in speedups.items()}}


def _sides(gate: harness.Gate, reference_rps: float, subject_rps: float) -> dict:
    """A one-row section of ``gate`` whose speedup is its two sides' rps
    ratio."""
    return {gate.rows: {"a": {
        gate.ratio: subject_rps / reference_rps,
        f"{gate.reference}_rps": reference_rps,
        f"{gate.subject}_rps": subject_rps,
    }}}


def test_gates_fail_and_name_a_missing_section():
    for gate in BOUNDED:
        (failure,) = gate.check(_section(gate, a=20.0), {})
        assert f"'{gate.section}'" in failure
    (policy,) = SCHEDULED.check(
        _section(SCHEDULED, fcfs=10.0, sptf=10.0), {"scheduled": _section(SCHEDULED, fcfs=10.0)}
    )
    assert "'scheduled.policies.sptf'" in policy
    # No committed section bounds campaign start-up: only its floor holds.
    assert CAMPAIGN_STARTUP.check(_section(CAMPAIGN_STARTUP, a=20.0), {}) == []


def test_gates_pass_and_fail_against_a_present_section():
    for gate in BOUNDED:
        committed = {gate.section: _section(gate, a=20.0)}
        assert gate.check(_section(gate, a=18.0), committed) == []
        (regressed,) = gate.check(_section(gate, a=15.0), committed)
        assert regressed.startswith(f"{gate.section} a 15.00x regressed >20%")
    # Every row, the 4-drive one too, meets the same floor whatever its
    # committed value.
    committed = {"kernel": _section(KERNEL, **{"1-drive": 11.0, "4-drive": 11.0})}
    (slow,) = KERNEL.check(_section(KERNEL, **{"1-drive": 11.0, "4-drive": 9.5}), committed)
    assert slow.startswith("kernel 4-drive 9.50x is under the 10x floor")
    (slow,) = CAMPAIGN_STARTUP.check(_section(CAMPAIGN_STARTUP, cached=2.5), {})
    assert slow.startswith("campaign_startup cached 2.50x is under the 3x floor")


def test_failing_gates_name_both_sides_rps():
    for gate, (committed, current) in {
        KERNEL: ((20000.0, 400000.0), (25000.0, 250000.0)),
        SCHEDULED: ((3000.0, 30000.0), (4000.0, 20000.0)),
        STREAMING: ((300000.0, 270000.0), (310000.0, 150000.0)),
    }.items():
        failures = gate.check(_sides(gate, *current), {gate.section: _sides(gate, *committed)})
        assert failures
        reference = f"{gate.reference} {current[0]:.0f} rps (committed {committed[0]:.0f} rps)"
        subject = f"{gate.subject} {current[1]:.0f} rps (committed {committed[1]:.0f} rps)"
        for failure in failures:
            assert reference in failure and subject in failure
    (slow,) = CAMPAIGN_STARTUP.check(_sides(CAMPAIGN_STARTUP, 400.0, 800.0), {})
    assert slow.endswith("; uncached 400 rps, cached 800 rps")


def test_committed_baseline_holds_every_gated_section():
    baseline = harness.COMMITTED_BASELINE
    # One key per gated section, and nothing else.
    assert set(baseline) == {gate.section for gate in BOUNDED}
    assert set(baseline["scheduled"]["policies"]) == set(replay.SCHED_POLICIES)
    assert set(baseline["kernel"]["rows"]) == {"1-drive", f"{replay.N_DRIVES}-drive"}
    # Gating the committed numbers against themselves finds every section.
    for gate in BOUNDED:
        assert gate.check(baseline[gate.section], baseline) == []


def test_write_helpers_leave_the_committed_baseline_alone(tmp_path, monkeypatch):
    committed = harness.BENCH_PATH.read_bytes()
    # The real output directory is never committed.
    ignored = (harness.REPO_ROOT / ".gitignore").read_text().splitlines()
    assert f"{harness.OUT_DIR.relative_to(harness.REPO_ROOT).as_posix()}/" in ignored
    out = tmp_path / "out"
    monkeypatch.setattr(harness, "OUT_DIR", out)
    monkeypatch.setattr(harness, "RUN_PATH", out / "BENCH_replay.json")
    monkeypatch.setattr(harness, "HISTORY_PATH", out / "BENCH_history.jsonl")
    harness.write_bench_section({"kernel": {"rows": {}}})
    harness.append_history({"kind": "kernel"})
    harness.write_report("BENCH_replay", "report")
    assert harness.BENCH_PATH.read_bytes() == committed
    assert sorted(path.name for path in out.iterdir()) == [
        "BENCH_history.jsonl", "BENCH_replay.json", "BENCH_replay.txt"
    ]


def test_each_benchmark_writes_only_its_own_section(tmp_path, monkeypatch):
    path = tmp_path / "BENCH_replay.json"
    monkeypatch.setattr(harness, "RUN_PATH", path)
    path.write_text(json.dumps({"kernel": {"a": 1}, "scheduled": {"a": 1}, "streaming": {"b": 2}}))
    harness.write_bench_section({"scheduled": {"a": 3}})
    harness.write_bench_section({"campaign_startup": {"c": 4}})
    assert json.loads(path.read_text()) == {
        "kernel": {"a": 1},
        "scheduled": {"a": 3},
        "streaming": {"b": 2},
        "campaign_startup": {"c": 4},
    }


def _no_process(*args, **kwargs):
    raise AssertionError("head_commit started a process")


def test_head_commit_reads_git_without_a_process(tmp_path, monkeypatch):
    monkeypatch.delenv("GITHUB_SHA", raising=False)
    monkeypatch.setattr(subprocess, "Popen", _no_process)
    sha = "0123456789abcdef0123456789abcdef01234567"
    git = tmp_path / ".git"
    assert harness.head_commit(tmp_path) == ""  # no repository
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text(f"# pack-refs with: peeled\n{sha} refs/heads/main\n")
    assert harness.head_commit(tmp_path) == sha  # packed ref
    loose = sha[::-1]
    (git / "refs" / "heads" / "main").write_text(loose + "\n")
    assert harness.head_commit(tmp_path) == loose  # a loose ref wins
    (git / "HEAD").write_text(sha + "\n")
    assert harness.head_commit(tmp_path) == sha  # detached HEAD
    monkeypatch.setenv("GITHUB_SHA", "from-ci")
    assert harness.head_commit(tmp_path) == "from-ci"


def test_history_line_records_the_commit(tmp_path, monkeypatch):
    history = tmp_path / "BENCH_history.jsonl"
    monkeypatch.setattr(harness, "HISTORY_PATH", history)
    monkeypatch.setattr(harness, "head_commit", lambda: "abc123")
    harness.append_history({"kind": "streaming", "stream_ratio": 1.0})
    (line,) = history.read_text().splitlines()
    record = json.loads(line)
    assert record["commit"] == "abc123"
    assert list(record)[:3] == ["timestamp", "commit", "python"]
    assert record["kind"] == "streaming" and record["stream_ratio"] == 1.0


def _clocked(log: list, name: str, clock: list, seconds: list):
    """A run that logs ``name`` and advances ``clock`` by the next of
    ``seconds``."""
    durations = iter(seconds)

    def run():
        log.append(name)
        clock[0] += next(durations)

    return run


def test_scheduled_pairs_alternate_and_gate_on_the_median():
    clock, log = [0.0], []
    # Five pairs at 10x, but a neighbour slows the kernel of the third.
    kernel = _clocked(log, "kernel", clock, [1.0, 1.0, 5.0, 1.0, 1.0])
    scalar = _clocked(log, "scalar", clock, [10.0] * 5)
    times = harness.time_pairs(kernel, scalar, 5, clock=lambda: clock[0])
    assert log == ["kernel", "scalar", "scalar", "kernel"] * 2 + ["kernel", "scalar"]
    assert times == [(1.0, 10.0), (1.0, 10.0), (5.0, 10.0), (1.0, 10.0), (1.0, 10.0)]
    row = SCHEDULED.row(times, 8000)
    assert row["speedup_vs_scalar"] == 10.0
    assert row["speedup_q1"] == 6.0 and row["speedup_q3"] == 10.0
    assert row["kernel_rps"] == 8000.0 and row["scalar_rps"] == 800.0
    committed = {"scheduled": _section(SCHEDULED, sptf=10.0)}
    assert SCHEDULED.check({"policies": {"sptf": row}}, committed) == []
    # Slow in most pairs, the kernel fails both the floor and the bound.
    slow = SCHEDULED.row([(5.0, 10.0)] * 3 + [(1.0, 10.0)] * 2, 8000)
    floor, regressed = SCHEDULED.check({"policies": {"sptf": slow}}, committed)
    assert floor.startswith("scheduled sptf 2.00x is under the 8x floor; ")
    assert regressed.startswith("scheduled sptf 2.00x regressed >20%")
    # Sides that serve different request counts: kernel rps over naive rps.
    row = KERNEL.row([(1.0, 2.0)], 50_000, 10_000)
    assert (row["speedup_vs_naive"], row["kernel_rps"], row["naive_rps"]) == (10.0, 50000.0, 5000.0)


def _run_section(gate: harness.Gate, speedup: float, subject_rps: float) -> dict:
    """One interpreter's section of ``gate`` with one row."""
    return gate.measured({"a": {
        gate.ratio: speedup,
        "speedup_q1": speedup - 1.0,
        "speedup_q3": speedup + 1.0,
        f"{gate.reference}_rps": subject_rps / speedup,
        f"{gate.subject}_rps": subject_rps,
    }}, requests=8000)


def _key_block(key: str, section: dict) -> str:
    """The text of one top-level key of a baseline file."""
    return f'"{key}": ' + json.dumps(section, indent=2).replace("\n", "\n  ")


def test_refresh_writes_the_median_and_only_its_own_key(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "head_commit", lambda: "abc123")
    committed = harness.BENCH_PATH.read_text()
    path = tmp_path / "BENCH_replay.json"
    for gate in BOUNDED:
        path.write_text(committed)
        runs = [_run_section(gate, 9.0, 90000.0), _run_section(gate, 30.0, 300000.0),
                _run_section(gate, 10.0, 80000.0)]
        section = harness.refresh(gate, runs, path)
        assert section[gate.rows]["a"] == {
            gate.ratio: 10.0,  # the outlier run does not move it
            "speedup_q1": 9.0,
            "speedup_q3": 30.0,
            f"{gate.reference}_rps": 10000.0,
            f"{gate.subject}_rps": 90000.0,
        }
        assert (section["timing"], section["pairs"]) == (harness.TIMING, harness.PAIRS)
        assert (section["runs"], section["commit"]) == (3, "abc123")
        assert section["python"] == platform.python_version()
        assert section["min_speedup_required"] == gate.floor
        written = path.read_text()
        assert json.loads(written)[gate.section] == section
        # Every byte outside the refreshed key is the committed file's.
        old = json.loads(committed)[gate.section]
        restored = written.replace(
            _key_block(gate.section, section), _key_block(gate.section, old)
        )
        assert restored == committed
    assert harness.BENCH_PATH.read_text() == committed


def test_committed_baselines_name_the_gates_measurement():
    baseline = harness.COMMITTED_BASELINE
    for gate in BOUNDED:
        section = baseline[gate.section]
        assert section.get("timing") == harness.TIMING, gate.section
        assert section.get("pairs") == harness.PAIRS, gate.section
        assert section.get("runs", 0) >= harness.BASELINE_RUNS, gate.section
        assert section.get("commit") and section.get("python"), gate.section
        assert section.get("min_speedup_required") == gate.floor, gate.section
    kernel, scheduled = baseline["kernel"], baseline["scheduled"]
    assert kernel["requests"] == replay.TRACE_REQUESTS
    assert kernel["naive_requests"] == replay.NAIVE_REQUESTS
    assert scheduled["requests"] == replay.SCHED_REQUESTS
    assert scheduled["queue_depth"] == replay.SCHED_DEPTH
    assert baseline["streaming"]["chunk_requests"] == streaming.STREAM_CHUNK_REQUESTS
