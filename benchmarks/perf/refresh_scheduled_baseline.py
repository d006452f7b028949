"""Refresh the ``scheduled`` baseline of the committed ``BENCH_replay.json``.

From the repository root, with the package importable (``pip install -e
.[fast]``, or ``PYTHONPATH=src``)::

    python benchmarks/perf/refresh_scheduled_baseline.py

Runs the scheduled gate's own measurement
(``test_replay_throughput.measure_scheduled``: interleaved kernel/scalar
pairs in CPU time) once in each of ``SCHED_BASELINE_RUNS`` (10) fresh
interpreters, one after another, and writes the per-policy medians over
the runs as the ``scheduled`` key of the committed file
(``test_replay_throughput.refresh_scheduled``).  Every other key keeps its
bytes.  One run takes about a minute.  Run it on an otherwise idle host,
and list the old and new values in ``CHANGES.md``.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

# perfbench/ goes on sys.path as conftest.py puts it there under pytest.
sys.path.append(str(pathlib.Path(__file__).resolve().parents[2] / "perfbench"))

import test_replay_throughput as replay  # noqa: E402

#: The argument each child interpreter gets: measure once, print the JSON.
ONE_RUN = "--one-run"


def speedups(section: dict) -> str:
    return ", ".join(
        f"{policy} {row['speedup_vs_scalar']:.2f}x"
        for policy, row in section["policies"].items()
    )


def main(argv: list[str]) -> int:
    if argv == [ONE_RUN]:
        print(json.dumps(replay.measure_scheduled()))
        return 0
    if argv:
        sys.exit(__doc__)
    runs = []
    for i in range(replay.SCHED_BASELINE_RUNS):
        child = subprocess.run(
            [sys.executable, __file__, ONE_RUN],
            check=True, stdout=subprocess.PIPE, text=True,
        )
        runs.append(json.loads(child.stdout))
        print(f"run {i + 1}/{replay.SCHED_BASELINE_RUNS}: {speedups(runs[-1])}", flush=True)
    section = replay.refresh_scheduled(runs)
    print(f"{replay.BENCH_PATH.name} scheduled (median of {len(runs)}): {speedups(section)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
