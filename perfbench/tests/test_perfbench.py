"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests

They check that results are a function of the seed alone, that every
printed metric matches ``BENCHMARK.json``, that span self time is computed
correctly, and that a run leaves no process or temporary store behind and
no committed perf baseline changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, self_times  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def digest(workload: str, seed: int) -> str:
    return workloads.make_workload(workload, seed).run_pass(0).digest


@pytest.mark.parametrize("workload", ["service-sptf", "paper-campaign"])
def test_same_seed_gives_same_digest_and_other_seed_another(workload):
    assert digest(workload, 5) == digest(workload, 5)
    assert digest(workload, 5) != digest(workload, 6)


def test_digest_does_not_depend_on_the_process():
    code = (
        "import workloads; "
        "print(workloads.make_workload('service-sptf', 5).run_pass(0).digest)"
    )
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(BENCH_DIR), str(ROOT / "src")]),
        PYTHONHASHSEED="123",
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == digest("service-sptf", 5)


def test_self_time_subtracts_nested_and_back_to_back_children():
    spans = [
        Span("parent", 0.0, 10.0, -1, "pass0"),
        Span("a", 1.0, 3.0, 0, "pass0"),
        Span("b", 3.0, 6.0, 0, "pass0"),  # back to back with a
        Span("a.inner", 1.5, 2.0, 1, "pass0"),  # nested in a, not in parent
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0, 1.5, 3.0, 0.5])


def test_benchmark_json_follows_the_naming_rules():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    for kind in ("end_to_end", "per_layer"):
        names += [m["name"] for m in BENCHMARK[kind]]
        assert all(UNIT.match(m["unit"]) for m in BENCHMARK[kind])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def run_command(argv: list[str]) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, out.getvalue().splitlines()


def committed_artifacts() -> dict[str, bytes]:
    """The perf baselines the repository's own perf tests write."""
    paths = [ROOT / "BENCH_replay.json", *sorted((ROOT / "benchmarks" / "results").glob("*"))]
    return {str(path): path.read_bytes() for path in paths if path.is_file()}


@pytest.fixture(scope="module")
def runs():
    """The smallest runs: one second of measuring, untraced and traced, and
    the committed perf baselines as they were before them."""
    before = committed_artifacts()
    results = {
        trace: run_command([
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace),
        ])
        for trace, workload in ((0, "service-fcfs"), (1, "paper-campaign"))
    }
    return {**results, "artifacts": before}


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(runs, trace):
    code, lines = runs[trace]
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert NAME.match(metric["name"])
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    if trace:
        assert result["metrics"]["sim.path.kernel_sched"]["value"] == 6
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_leaves_no_process_and_no_temporary_store(runs):
    assert worker.live_children() == []
    assert list((ROOT / ".perfbench").glob("store-*")) == []
    assert (ROOT / ".perfbench" / "spans" / "paper-campaign-seed3.json").is_file()
    assert committed_artifacts() == runs["artifacts"]


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "service-fcfs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9]
    assert compare.verdict(parent, [8.0, 8.1, 7.9, 8.2, 7.8], 1.0, "lower", 0.1) == "improved"
    assert compare.verdict(parent, [12.0, 12.1, 11.9, 12.2, 11.8], 0.0, "lower", 0.1) == "regressed"
    assert compare.verdict(parent, [10.0, 10.1, 9.9, 10.2, 9.8], 0.4, "lower", 0.1) == "no worse"
    noisy = [6.0, 10.0, 14.0, 8.0, 12.0]
    assert compare.verdict(parent, noisy, 0.4, "lower", 0.1) == "unresolved"
    assert compare.verdict(parent, [8.0, 8.1, 7.9, 8.2, 7.8], 1.0, "higher", 0.1) == "regressed"


def test_compare_needs_the_raw_times_to_agree():
    """A verdict on corrected times stands only if the raw times agree."""
    bench = {
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1}],
        "per_layer": [],
    }

    def records(corrected, raw):
        return [
            {"workload": "w", "trace": 0, "provenance": {"seed": seed},
             "metrics": {"run_s": {"value": c}}, "raw_metrics": {"run_s": r}}
            for seed, (c, r) in enumerate(zip(corrected, raw))
        ]

    parent = records([1.0, 1.01, 0.99, 1.0, 1.02], [2.0, 2.02, 1.98, 2.0, 2.04])
    slower = records([1.0, 1.01, 0.99, 1.0, 1.02], [2.6, 2.62, 2.58, 2.6, 2.64])
    lines = compare.report(parent, slower, bench).splitlines()
    assert lines[1].split()[:2] == ["w", "run_s"] and lines[1].endswith("disputed")
    assert lines[2].split()[:2] == ["w", "raw"] and lines[2].endswith("regressed")
    lines = compare.report(parent, parent, bench).splitlines()
    assert lines[1].endswith("no worse") and lines[2].endswith("no worse")
