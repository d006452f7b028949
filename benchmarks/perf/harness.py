"""The perf gates' one harness: how a gate times, summarizes and checks its
two sides, where a run writes, and how a committed baseline is refreshed.

Every gate times the code it measures (its *subject*) against a yardstick
(its *reference*) as :data:`PAIRS` interleaved pairs, in CPU seconds of
this process (:func:`time_pairs`).  The two sides of a pair run back to
back, so a shared host that slows down or speeds up between pairs does so
for both; CPU time leaves out the time the process waits descheduled.  A
busy host can still slow the two sides by different factors (README,
"Regenerating the perf baseline"), and a busy phase that lasts a whole
run moves its median.

:meth:`Gate.row` summarizes one row's pairs as the median per-pair
speedup with its quartiles and each side's rps.  :meth:`Gate.check`
holds every row to the gate's floor and, for a gate with a committed
section, to within :data:`MAX_REGRESSION` of the committed row of the
same name; a committed baseline without that section or row fails the
gate.  ``refresh_baseline.py`` in this directory is the only writer of a
committed section: the medians over :data:`BASELINE_RUNS` fresh
interpreters of the gate's own measurement (:func:`refresh`).

The gates only read the committed ``BENCH_replay.json``.  Everything a
run writes goes to the untracked :data:`OUT_DIR` (CI uploads it): this
run's sections of ``BENCH_replay.json`` (:func:`write_bench_section`, each
benchmark its own section), one ``BENCH_history.jsonl`` line per benchmark
recording the commit measured (:func:`append_history`), and the text
reports (:func:`write_report`).

Importing this module appends ``perfbench/`` to ``sys.path`` (appended,
not prepended, so the harness's module names ``run``, ``compare``,
``workloads`` ... never shadow an earlier one): the gates reuse its
quartiles and its provenance read rather than copies of them.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import os
import pathlib
import platform
import statistics
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "perfbench") not in sys.path:
    sys.path.append(str(REPO_ROOT / "perfbench"))

from compare import quartiles  # noqa: E402  (perfbench/compare.py)
from run import git_commit  # noqa: E402  (perfbench/run.py)

#: The committed baseline the gates read; only :func:`refresh` writes it.
BENCH_PATH = REPO_ROOT / "BENCH_replay.json"
#: Everything a perf run writes (listed in ``.gitignore``).
OUT_DIR = REPO_ROOT / "benchmarks" / "perf" / "out"
RUN_PATH = OUT_DIR / "BENCH_replay.json"
HISTORY_PATH = OUT_DIR / "BENCH_history.jsonl"

#: Interleaved subject/reference pairs timed per row, after one untimed
#: run of each side.
PAIRS = 15
#: How every gate measures; each committed section names it.
TIMING = "process_time, interleaved pairs, median per-pair ratio"
#: A committed section is the median of this many runs, each in its own
#: interpreter (``refresh_baseline.py``).
BASELINE_RUNS = 10
#: A row may read at most this fraction below its committed row.
MAX_REGRESSION = 0.20


def _load_bench(path: pathlib.Path) -> dict:
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}
    return data if isinstance(data, dict) else {}


COMMITTED_BASELINE = _load_bench(BENCH_PATH)


def time_pairs(first, second, pairs: int = PAIRS, clock=time.process_time) -> list:
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


def missing_baseline(section: str) -> str:
    return (
        f"committed {BENCH_PATH.name} has no '{section}' baseline: "
        "the gate cannot run without it"
    )


def _rps(value) -> str:
    return f"{value:.0f} rps" if value else "no rps"


@dataclasses.dataclass(frozen=True)
class Gate:
    """One perf gate: ``subject`` timed against ``reference`` in each row
    of its ``section`` of ``BENCH_replay.json``, every row's speedup held
    to ``floor`` and, when ``bounded``, to the committed section.

    A row's keys are ``speedup_vs_<reference>`` (:attr:`ratio`),
    ``speedup_q1``, ``speedup_q3``, ``<reference>_rps`` and
    ``<subject>_rps``; the section holds its rows under ``rows``."""

    section: str
    subject: str
    reference: str
    floor: float
    rows: str = "rows"
    bounded: bool = True

    @property
    def ratio(self) -> str:
        return f"speedup_vs_{self.reference}"

    def row(self, times: list, requests: int, reference_requests: int | None = None) -> dict:
        """One row from its :func:`time_pairs` ``(subject, reference)``
        seconds.

        The speedup (subject rps over reference rps) is the median
        per-pair ratio, with its quartiles from perfbench's
        :func:`compare.quartiles`, so a pair that a neighbour slowed does
        not move it.  Each side's rps is its requests over its median
        seconds; the reference serves ``reference_requests`` (default
        ``requests``) per run."""
        if reference_requests is None:
            reference_requests = requests
        scale = requests / reference_requests
        q1, speedup, q3 = quartiles(
            [reference / subject * scale for subject, reference in times]
        )
        return {
            self.ratio: speedup,
            "speedup_q1": q1,
            "speedup_q3": q3,
            f"{self.reference}_rps": reference_requests
            / statistics.median(reference for _, reference in times),
            f"{self.subject}_rps": requests
            / statistics.median(subject for subject, _ in times),
        }

    def measured(self, rows: dict, **params) -> dict:
        """One run's section: the measurement's ``params``, the floor, how
        it was timed and its ``rows``."""
        return {
            **params,
            "min_speedup_required": self.floor,
            "timing": TIMING,
            "pairs": PAIRS,
            self.rows: rows,
        }

    def check(self, section: dict, baseline: dict = COMMITTED_BASELINE) -> list[str]:
        """What fails in ``section``: each row under the floor and, for a
        bounded gate, each row more than :data:`MAX_REGRESSION` below its
        row in ``baseline``, with both sides' rps (and their committed rps)
        so the message shows which side moved; and a committed section or
        row the bound cannot find."""
        committed = (baseline.get(self.section) or {}).get(self.rows) or {}
        failures = []
        if self.bounded and not committed:
            failures.append(missing_baseline(self.section))
        for name, row in section[self.rows].items():
            old = committed.get(name) or {}
            sides = ", ".join(
                f"{side} {_rps(row.get(f'{side}_rps'))}"
                + (f" (committed {_rps(old.get(f'{side}_rps'))})" if self.bounded else "")
                for side in (self.reference, self.subject)
            )
            speedup = row[self.ratio]
            label = f"{self.section} {name} {speedup:.2f}x"
            if speedup < self.floor:
                failures.append(f"{label} is under the {self.floor:g}x floor; {sides}")
            if not (self.bounded and committed):
                continue
            reference = old.get(self.ratio)
            if not reference:
                failures.append(missing_baseline(f"{self.section}.{self.rows}.{name}"))
            elif speedup < reference * (1.0 - MAX_REGRESSION):
                failures.append(
                    f"{label} regressed >{MAX_REGRESSION:.0%} from the committed "
                    f"{reference:.2f}x; {sides}"
                )
        return failures


#: The columnar kernel against the naive ``DiskDrive.submit`` loop, on one
#: drive and on a 4-drive fleet.
KERNEL = Gate("kernel", subject="kernel", reference="naive", floor=10.0)
#: ``kernel_sched`` against the scalar queue loop, per policy (the hardest
#: is SPTF, whose per-candidate positioning score keeps the most work
#: inside the serial recurrence).
SCHEDULED = Gate("scheduled", subject="kernel", reference="scalar", floor=8.0, rows="policies")
#: The chunked replay against the one-shot kernel replay.
STREAMING = Gate("streaming", subject="streamed", reference="one_shot", floor=0.8)
#: A campaign's per-point set-up with the drive-build cache against
#: without it; floor only.
CAMPAIGN_STARTUP = Gate(
    "campaign_startup", subject="cached", reference="uncached", floor=3.0, bounded=False
)
#: The gates whose committed section bounds them.
BOUNDED = (KERNEL, SCHEDULED, STREAMING)


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


def record_and_check(gate: Gate, section: dict, title: str) -> None:
    """Write one run's ``section`` of ``gate`` to this run's outputs (its
    key of ``BENCH_replay.json``, a history line and a report of each row's
    two sides), then fail with every :meth:`Gate.check` failure."""
    write_bench_section({gate.section: section})
    append_history({"kind": gate.section, gate.rows: section[gate.rows]})
    lines = [f"{title}; CPU time, median of {section['pairs']} interleaved pairs [q1, q3]"]
    for name, row in section[gate.rows].items():
        lines.append(
            f"  {name:9s}: {row[f'{gate.subject}_rps']:>10.0f} rps {gate.subject}, "
            f"{row[f'{gate.reference}_rps']:>8.0f} rps {gate.reference}  "
            f"({row[gate.ratio]:.2f}x [{row['speedup_q1']:.2f}, {row['speedup_q3']:.2f}])"
        )
    lines.append(
        f"  artifacts: {RUN_PATH.relative_to(REPO_ROOT)}, "
        f"{HISTORY_PATH.relative_to(REPO_ROOT)}"
    )
    write_report(f"BENCH_{gate.section}", "\n".join(lines))
    failures = gate.check(section)
    assert not failures, "; ".join(failures)


def refresh(gate: Gate, runs: list[dict], path: pathlib.Path = BENCH_PATH) -> dict:
    """Write the median of ``runs`` (sections of ``gate``, one per
    interpreter) as ``gate``'s key of the baseline at ``path``, and return
    that section.

    Per row, the speedup and each side's rps are medians over the runs,
    and ``speedup_q1``/``speedup_q3`` are the quartiles of the runs'
    speedups.  The section records the run count, the commit and the
    Python measured.  The file is rewritten as ``json.dumps(...,
    indent=2)``, the form it is committed in, so every other key keeps its
    bytes."""
    rows = {}
    for name in runs[0][gate.rows]:
        each = [run[gate.rows][name] for run in runs]
        q1, speedup, q3 = quartiles([row[gate.ratio] for row in each])
        rows[name] = {gate.ratio: speedup, "speedup_q1": q1, "speedup_q3": q3}
        for side in (gate.reference, gate.subject):
            rows[name][f"{side}_rps"] = statistics.median(
                row[f"{side}_rps"] for row in each
            )
    section = {key: value for key, value in runs[0].items() if key != gate.rows}
    section.update(runs=len(runs), commit=head_commit(), python=platform.python_version())
    section[gate.rows] = rows
    baseline = json.loads(path.read_text())
    baseline[gate.section] = section
    path.write_text(json.dumps(baseline, indent=2) + "\n")
    return section
