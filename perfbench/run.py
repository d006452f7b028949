"""Run one benchmark workload, or compare two sets of benchmark results.

Measure (from the root of a checkout)::

    python3 perfbench/run.py --workload service-fcfs --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload paper-campaign --seed 1 --seconds 20 --trace 1 \\
        --out change.jsonl

Compare a parent's results with a change's (both written with ``--out``)::

    python3 perfbench/run.py --compare parent.jsonl change.jsonl

A measurement starts worker interpreters (``worker.py``) one at a time and
waits for each to exit.  With ``--trace 0`` it first starts six that only
set up, so ``setup_s`` is the median of seven cold set-ups; the seventh
worker then measures.  With ``--trace 1`` a single worker measures the
same passes untraced and traced and reports the per-layer split.  The last
line of standard output is the JSON result; the lines before it are for
people.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 7
#: Every worker of one run must have exited by then (the limit is 180 s).
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def run_worker(args: list[str], deadline: float) -> tuple[float, list[str]]:
    """Run one worker to completion; return its set-up time and its output
    lines after ``READY``.  Set-up is timed from spawning the process to
    receiving ``READY``.  The worker is killed, and waited for, if it
    outlives ``deadline`` (a ``time.monotonic`` value) or this process is
    interrupted."""
    pythonpath = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in pythonpath if p))
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], stdout=subprocess.PIPE, cwd=ROOT, env=env
    )
    setup_s = None
    lines: list[str] = []
    pending = b""
    try:
        fd = proc.stdout.fileno()
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerError(f"worker still running after {DEADLINE_S:.0f} s")
            if not select.select([fd], [], [], remaining)[0]:
                continue
            data = os.read(fd, 1 << 16)
            if not data:
                break
            pending += data
            *complete, pending = pending.split(b"\n")
            for raw in complete:
                line = raw.decode("utf-8")
                if setup_s is None and line == "READY":
                    setup_s = time.perf_counter() - start
                else:
                    lines.append(line)
        proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or setup_s is None:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return setup_s, lines


def setup_sample(setup_s: float, lines: list[str]) -> tuple[float, float, float]:
    """A worker's raw set-up time with the host slowdown and sampler time
    it reported for set-up (its ``HOST`` line)."""
    keyword, slowdown, spent = lines[0].split()
    if keyword != "HOST":
        raise ValueError(f"expected a HOST line, got {lines[0]!r}")
    return setup_s, float(slowdown), float(spent)


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        packed = (git / "packed-refs").read_text().splitlines()
    except OSError:
        return None
    return next((line.split()[0] for line in packed if line.endswith(" " + ref)), None)


def print_table(args, bench: dict, values: dict, raw: dict, report: dict, setups: list) -> None:
    """The human-readable lines printed before the JSON result."""
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"passes {report['passes']}  set-ups {len(setups)}"
    )
    kinds = ["end_to_end", "per_layer"] if args.trace else ["end_to_end"]
    shown = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for kind in kinds
        for m in bench[kind]
    }
    shown["failed_fraction"] = {
        "value": report["failed"] / report["attempted"], "unit": "fraction"
    }
    for name, value in raw.items():
        shown[f"raw {name}"] = {"value": value, "unit": shown[name]["unit"]}
    shown["host slowdown"] = {
        "value": statistics.median(report["slowdowns"]), "unit": "ratio"
    }
    for name, metric in shown.items():
        print(f"  {name:28s} {metric['value']:>16.6g}  {metric['unit']}")
    for error in report["errors"]:
        print(f"  CHECK FAILED: {error}")
    print(f"digest {report['digest']} (simulated results; a function of the seed)")
    if "spans" in report:
        print(f"spans: {report['spans']}")


def measure(args, bench: dict) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    common = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        setups = []
        for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
            setups.append(setup_sample(*run_worker(common + ["--setup-only"], deadline)))
        setup_s, lines = run_worker(common, deadline)
        setups.append(setup_sample(setup_s, lines))
        report = json.loads(lines[-1])
    except (WorkerError, IndexError, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    values = {
        "setup_s": statistics.median(
            (elapsed - spent) / slowdown for elapsed, slowdown, spent in setups
        ),
        "run_s": report["run_s"],
        "sim_requests_per_s": report["sim_requests_per_s"],
        "peak_rss_mb": report["peak_rss_mb"],
        **report.get("layers", {}),
    }
    #: The host times above before the contention correction.
    raw = {
        "setup_s": statistics.median(elapsed for elapsed, _, _ in setups),
        "run_s": report["raw_run_s"],
        "sim_requests_per_s": report["raw_sim_requests_per_s"],
    }
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench[kind]
    }
    result = {
        "correct": not report["errors"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    provenance = {
        "commit": git_commit(ROOT),
        "python": report["python"],
        "numpy": report["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
    }

    print_table(args, bench, values, raw, report, setups)
    print("provenance " + json.dumps(provenance))
    if args.out:
        record = {
            "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
            "provenance": provenance, "raw_metrics": raw, "setup_samples": setups,
            "raw_pass_s": report["raw_pass_s"], "slowdowns": report["slowdowns"],
            "digest": report["digest"], **result,
        }
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append this run's record to a JSON-lines file")
    parser.add_argument(
        "--compare", nargs=2, metavar=("PARENT", "CHANGE"),
        help="print the before/after table of two --out files",
    )
    args = parser.parse_args(argv)
    if args.compare:
        print(compare.report(*(compare.load(path) for path in args.compare), bench))
        return 0
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    return measure(args, bench)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
