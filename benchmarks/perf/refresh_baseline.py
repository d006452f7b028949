"""Refresh sections of the committed ``BENCH_replay.json``.

From the repository root, with the package importable (``pip install -e
.[fast]``, or ``PYTHONPATH=src``)::

    python benchmarks/perf/refresh_baseline.py SECTION...
    python benchmarks/perf/refresh_baseline.py --one-run SECTION

``SECTION`` is ``kernel``, ``scheduled`` or ``streaming``.  For each section
in turn, runs its gate's own measurement (``measure_<section>`` of its
benchmark) once in each of ``harness.BASELINE_RUNS`` (10) fresh
interpreters, one after another, and writes the per-row medians over the
runs as that one top-level key of the committed file (``harness.refresh``).
Every other key keeps its bytes.  One run takes about 25 s for ``kernel``,
a minute for ``scheduled`` and 5 s for ``streaming``.  Run it on an
otherwise idle host, and list the old and new values in ``CHANGES.md``.

``--one-run SECTION`` measures once in this interpreter and prints the
section as JSON; it writes nothing.
"""

from __future__ import annotations

import json
import subprocess
import sys

import harness
import test_replay_throughput as replay
import test_streaming_throughput as streaming

#: Each refreshable section: its gate and the measurement of one run.
MEASURES = {
    "kernel": (harness.KERNEL, replay.measure_kernel),
    "scheduled": (harness.SCHEDULED, replay.measure_scheduled),
    "streaming": (harness.STREAMING, streaming.measure_streaming),
}
#: The argument each child interpreter gets: measure once, print the JSON.
ONE_RUN = "--one-run"


def speedups(gate: harness.Gate, section: dict) -> str:
    return ", ".join(
        f"{name} {row[gate.ratio]:.2f}x" for name, row in section[gate.rows].items()
    )


def main(argv: list[str]) -> int:
    one_run = argv[:1] == [ONE_RUN]
    names = argv[1:] if one_run else argv
    if not names or not set(names) <= set(MEASURES) or (one_run and len(names) > 1):
        sys.exit(__doc__)
    if one_run:
        print(json.dumps(MEASURES[names[0]][1]()))
        return 0
    for name in names:
        gate = MEASURES[name][0]
        runs = []
        for i in range(harness.BASELINE_RUNS):
            child = subprocess.run(
                [sys.executable, __file__, ONE_RUN, name],
                check=True, stdout=subprocess.PIPE, text=True,
            )
            runs.append(json.loads(child.stdout))
            print(
                f"{name} run {i + 1}/{harness.BASELINE_RUNS}: {speedups(gate, runs[-1])}",
                flush=True,
            )
        section = harness.refresh(gate, runs)
        print(
            f"{harness.BENCH_PATH.name} {name} (median of {len(runs)}): "
            f"{speedups(gate, section)}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
