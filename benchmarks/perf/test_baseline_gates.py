"""The perf gates' bookkeeping: committed baselines, sections, history.

No timing here.  These tests pin what the throughput benchmarks do with
``BENCH_replay.json`` and ``BENCH_history.jsonl``:

* a gate whose section is missing from the committed baseline fails and
  names the section (it used to pass silently),
* each benchmark rewrites only its own section, so a run stopped between
  two benchmarks cannot drop the other's,
* the committed baseline holds every section a gate reads, and
* a history line records the commit, read from ``.git`` without git.
"""

from __future__ import annotations

import json
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


def test_committed_baseline_holds_every_gated_section():
    baseline = replay.COMMITTED_BASELINE
    assert set(baseline["scheduled"]["policies"]) == set(replay.SCHED_POLICIES)
    # Gating the committed numbers against themselves finds every section.
    assert replay._check_regressions(baseline, baseline) == []
    assert replay._check_sched_regressions(baseline, baseline["scheduled"]) == []
    assert _check_streaming_regression(baseline, baseline["streaming"]) == []


def test_each_benchmark_writes_only_its_own_section(tmp_path, monkeypatch):
    path = tmp_path / "BENCH_replay.json"
    monkeypatch.setattr(replay, "BENCH_PATH", path)
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
