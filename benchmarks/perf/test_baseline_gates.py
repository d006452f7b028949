"""The perf gates' bookkeeping: committed baselines, sections, history.

No timing here.  These tests pin how the scheduled gate summarizes its
timed pairs, and what the throughput benchmarks do with
``BENCH_replay.json`` and ``BENCH_history.jsonl``:

* the scheduled gate alternates which side of a pair runs first and reads
  the median per-pair ratio, so one pair a neighbour slowed does not move
  it,
* the scheduled baseline refresh writes the median of its runs and leaves
  every other byte of the baseline as it was,
* the committed ``scheduled`` baseline names the measurement the gate
  makes, so a section measured another way (one run, best-of-3 wall
  clock) fails,
* a gate whose section is missing from the committed baseline fails and
  names the section (it used to pass silently),
* a failing gate names the current and committed rps of both sides of its
  ratio, so the message shows which side moved,
* the write helpers leave the committed baseline byte-identical and write
  only to the untracked output directory, so a run cannot ratchet the
  baseline it is gated against,
* each benchmark rewrites only its own section of the run's output, so a
  run stopped between two benchmarks cannot drop the other's,
* the committed baseline holds every section a gate reads, and
* a history line records the commit, read from ``.git`` without git.
"""

from __future__ import annotations

import json
import platform
import subprocess

import test_replay_throughput as replay
from test_streaming_throughput import _check_streaming_regression

SCHED_ROW = {"speedup_vs_scalar": 10.0}


def _payload(speedup: float) -> dict:
    return {"kernel": {"speedup_vs_naive": speedup}}


def _sched(*policies: str) -> dict:
    return {"policies": {policy: dict(SCHED_ROW) for policy in policies}}


def _streaming(ratio: float) -> dict:
    return {"streamed": {"ratio_vs_one_shot": ratio}}


def test_gates_fail_and_name_a_missing_section():
    (kernel,) = replay._check_regressions({}, _payload(5.0))
    assert "'kernel'" in kernel
    (scheduled,) = replay._check_sched_regressions({}, _sched("fcfs"))
    assert "'scheduled'" in scheduled
    (policy,) = replay._check_sched_regressions(
        {"scheduled": _sched("fcfs")}, _sched("fcfs", "sptf")
    )
    assert "'scheduled.policies.sptf'" in policy
    (streaming,) = _check_streaming_regression({}, _streaming(1.0))
    assert "'streaming'" in streaming


def test_gates_pass_and_fail_against_a_present_section():
    assert replay._check_regressions(_payload(5.0), _payload(4.5)) == []
    assert len(replay._check_regressions(_payload(5.0), _payload(3.0))) == 1
    baseline = {"scheduled": _sched("fcfs")}
    assert replay._check_sched_regressions(baseline, _sched("fcfs")) == []
    assert _check_streaming_regression({"streaming": _streaming(0.9)}, _streaming(0.8)) == []
    assert _check_streaming_regression({"streaming": _streaming(0.9)}, _streaming(0.5))


def test_failing_gates_name_both_sides_rps():
    baseline = {
        "naive": {"rps": 20000.0},
        "kernel": {"rps": 400000.0, "speedup_vs_naive": 20.0},
        "scheduled": {"policies": {"sptf": {
            "scalar_rps": 3000.0, "kernel_rps": 30000.0, "speedup_vs_scalar": 10.0,
        }}},
        "streaming": {
            "one_shot": {"rps": 300000.0},
            "streamed": {"rps": 270000.0, "ratio_vs_one_shot": 0.9},
        },
    }
    (kernel,) = replay._check_regressions(baseline, {
        "naive": {"rps": 25000.0},
        "kernel": {"rps": 250000.0, "speedup_vs_naive": 10.0},
    })
    assert "naive 25000 rps (committed 20000 rps)" in kernel
    assert "kernel 250000 rps (committed 400000 rps)" in kernel
    (scheduled,) = replay._check_sched_regressions(baseline, {"policies": {"sptf": {
        "scalar_rps": 4000.0, "kernel_rps": 20000.0, "speedup_vs_scalar": 5.0,
    }}})
    assert "scalar 4000 rps (committed 3000 rps)" in scheduled
    assert "kernel_sched 20000 rps (committed 30000 rps)" in scheduled
    (streaming,) = _check_streaming_regression(baseline, {
        "one_shot": {"rps": 310000.0},
        "streamed": {"rps": 150000.0, "ratio_vs_one_shot": 0.48},
    })
    assert "one-shot 310000 rps (committed 300000 rps)" in streaming
    assert "streamed 150000 rps (committed 270000 rps)" in streaming


def test_committed_baseline_holds_every_gated_section():
    baseline = replay.COMMITTED_BASELINE
    assert set(baseline["scheduled"]["policies"]) == set(replay.SCHED_POLICIES)
    # Gating the committed numbers against themselves finds every section.
    assert replay._check_regressions(baseline, baseline) == []
    assert replay._check_sched_regressions(baseline, baseline["scheduled"]) == []
    assert _check_streaming_regression(baseline, baseline["streaming"]) == []


def test_write_helpers_leave_the_committed_baseline_alone(tmp_path, monkeypatch):
    committed = replay.BENCH_PATH.read_bytes()
    # The real output directory is never committed.
    ignored = (replay.REPO_ROOT / ".gitignore").read_text().splitlines()
    assert f"{replay.OUT_DIR.relative_to(replay.REPO_ROOT).as_posix()}/" in ignored
    out = tmp_path / "out"
    monkeypatch.setattr(replay, "OUT_DIR", out)
    monkeypatch.setattr(replay, "RUN_PATH", out / "BENCH_replay.json")
    monkeypatch.setattr(replay, "HISTORY_PATH", out / "BENCH_history.jsonl")
    replay.write_bench_section({"kernel": {"speedup_vs_naive": 1.0}})
    replay.append_history({"kind": "kernel"})
    replay.write_report("BENCH_replay", "report")
    assert replay.BENCH_PATH.read_bytes() == committed
    assert sorted(path.name for path in out.iterdir()) == [
        "BENCH_history.jsonl", "BENCH_replay.json", "BENCH_replay.txt"
    ]


def test_each_benchmark_writes_only_its_own_section(tmp_path, monkeypatch):
    path = tmp_path / "BENCH_replay.json"
    monkeypatch.setattr(replay, "RUN_PATH", path)
    path.write_text(
        json.dumps({"naive": {"rps": 1}, "scheduled": {"a": 1}, "streaming": {"b": 2}})
    )
    replay.write_bench_section({"scheduled": {"a": 3}})
    replay.write_bench_section({"naive": {"rps": 4}, "kernel": {"rps": 5}})
    assert json.loads(path.read_text()) == {
        "naive": {"rps": 4},
        "scheduled": {"a": 3},
        "streaming": {"b": 2},
        "kernel": {"rps": 5},
    }


def _no_process(*args, **kwargs):
    raise AssertionError("head_commit started a process")


def test_head_commit_reads_git_without_a_process(tmp_path, monkeypatch):
    monkeypatch.delenv("GITHUB_SHA", raising=False)
    monkeypatch.setattr(subprocess, "Popen", _no_process)
    sha = "0123456789abcdef0123456789abcdef01234567"
    git = tmp_path / ".git"
    assert replay.head_commit(tmp_path) == ""  # no repository
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text(f"# pack-refs with: peeled\n{sha} refs/heads/main\n")
    assert replay.head_commit(tmp_path) == sha  # packed ref
    loose = sha[::-1]
    (git / "refs" / "heads" / "main").write_text(loose + "\n")
    assert replay.head_commit(tmp_path) == loose  # a loose ref wins
    (git / "HEAD").write_text(sha + "\n")
    assert replay.head_commit(tmp_path) == sha  # detached HEAD
    monkeypatch.setenv("GITHUB_SHA", "from-ci")
    assert replay.head_commit(tmp_path) == "from-ci"


def test_history_line_records_the_commit(tmp_path, monkeypatch):
    history = tmp_path / "BENCH_history.jsonl"
    monkeypatch.setattr(replay, "HISTORY_PATH", history)
    monkeypatch.setattr(replay, "head_commit", lambda: "abc123")
    replay.append_history({"kind": "streaming", "stream_ratio": 1.0})
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
    times = replay.time_pairs(kernel, scalar, 5, clock=lambda: clock[0])
    assert log == ["kernel", "scalar", "scalar", "kernel"] * 2 + ["kernel", "scalar"]
    assert times == [(1.0, 10.0), (1.0, 10.0), (5.0, 10.0), (1.0, 10.0), (1.0, 10.0)]
    row = replay.sched_row(times, 8000)
    assert row["speedup_vs_scalar"] == 10.0
    assert row["speedup_q1"] == 6.0 and row["speedup_q3"] == 10.0
    assert row["kernel_rps"] == 8000.0 and row["scalar_rps"] == 800.0
    section = {"policies": {"sptf": row}}
    assert replay._check_sched_floor({}, section) == []
    assert replay._check_sched_regressions({"scheduled": _sched("sptf")}, section) == []
    # Slow in most pairs, the kernel fails both gates.
    slow = {"policies": {"sptf": replay.sched_row([(5.0, 10.0)] * 3 + [(1.0, 10.0)] * 2, 8000)}}
    (floor,) = replay._check_sched_floor({}, slow)
    assert floor.startswith("sptf 2.00x: ")
    assert len(replay._check_sched_regressions({"scheduled": _sched("sptf")}, slow)) == 1


def _run_section(speedup: float, kernel_rps: float) -> dict:
    """One interpreter's ``scheduled`` section with one policy."""
    return {
        "requests": replay.SCHED_REQUESTS,
        "timing": replay.SCHED_TIMING,
        "pairs": replay.SCHED_PAIRS,
        "policies": {"sptf": {
            "speedup_vs_scalar": speedup,
            "speedup_q1": speedup - 1.0,
            "speedup_q3": speedup + 1.0,
            "scalar_rps": kernel_rps / speedup,
            "kernel_rps": kernel_rps,
        }},
    }


def _scheduled_block(section: dict) -> str:
    """The ``scheduled`` key's text in a baseline file."""
    return '"scheduled": ' + json.dumps(section, indent=2).replace("\n", "\n  ")


def test_refresh_writes_the_median_and_only_the_scheduled_key(tmp_path, monkeypatch):
    monkeypatch.setattr(replay, "head_commit", lambda: "abc123")
    committed = replay.BENCH_PATH.read_text()
    path = tmp_path / "BENCH_replay.json"
    path.write_text(committed)
    runs = [_run_section(9.0, 90000.0), _run_section(30.0, 300000.0), _run_section(10.0, 80000.0)]
    section = replay.refresh_scheduled(runs, path)
    assert section["policies"]["sptf"] == {
        "speedup_vs_scalar": 10.0,  # the outlier run does not move it
        "speedup_q1": 9.0,
        "speedup_q3": 30.0,
        "scalar_rps": 10000.0,
        "kernel_rps": 90000.0,
    }
    assert (section["timing"], section["pairs"]) == (replay.SCHED_TIMING, replay.SCHED_PAIRS)
    assert (section["runs"], section["commit"]) == (3, "abc123")
    assert section["python"] == platform.python_version()
    written = path.read_text()
    assert json.loads(written)["scheduled"] == section
    # Every byte outside the scheduled key is the committed file's.
    old = json.loads(committed)["scheduled"]
    assert written.replace(_scheduled_block(section), _scheduled_block(old)) == committed
    assert replay.BENCH_PATH.read_text() == committed


def test_committed_scheduled_baseline_names_the_gates_measurement():
    section = replay.COMMITTED_BASELINE["scheduled"]
    assert section.get("timing") == replay.SCHED_TIMING
    assert section.get("pairs") == replay.SCHED_PAIRS
    assert section.get("runs", 0) >= replay.SCHED_BASELINE_RUNS
    assert section["requests"] == replay.SCHED_REQUESTS
    assert section["queue_depth"] == replay.SCHED_DEPTH
