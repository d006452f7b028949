"""Before/after table of two result sets written by ``run.py --out``.

For each workload and end-to-end metric the table gives each side's median
and quartiles, the share of pairs the change won (runs are paired by seed,
ties count for neither side) and a verdict:

* ``improved``   -- the change won at least nine tenths of the pairs and its
  median beats the parent's by more than the parent's quartile spread;
* ``regressed``  -- the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` -- a side's quartile spread is wider than the bound, and not
  every change run beats every parent run;
* ``no worse``   -- otherwise.

Host times are corrected for host contention (see ``hostspeed.py``), and
the correction can absorb part of a change the program itself causes.  So
``setup_s``, ``run_s`` and ``sim_requests_per_s`` get a second row, ``raw``,
from the uncorrected times the records keep, with its own verdict.  The
corrected row's verdict stands only when the raw row agrees; otherwise it
reads ``disputed``.

Below it, the per-layer metrics of the traced runs, parent against change.
"""

from __future__ import annotations

import json
import statistics


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def value(record: dict, name: str, raw: bool) -> float:
    return record["raw_metrics"][name] if raw else record["metrics"][name]["value"]


def pairs(parent: list[dict], change: list[dict], name: str, raw: bool) -> list[tuple[float, float]]:
    """``(parent, change)`` values of runs with the same seed, or in run
    order when the two sides share no seed."""
    by_seed = {r["provenance"]["seed"]: value(r, name, raw) for r in parent}
    matched = [
        (by_seed[r["provenance"]["seed"]], value(r, name, raw))
        for r in change
        if r["provenance"]["seed"] in by_seed
    ]
    if matched:
        return matched
    return [(value(p, name, raw), value(c, name, raw)) for p, c in zip(parent, change)]


def verdict(parent: list[float], change: list[float], won: float, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    worse_by = sign * (cm - pm) / abs(pm)
    if won >= 0.9 and worse_by < 0 and abs(cm - pm) > p3 - p1:
        return "improved"
    if worse_by > bound:
        return "regressed"
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    every_better = all(sign * c < sign * p for c in change for p in parent)
    if spread > bound and not every_better:
        return "unresolved"
    return "no worse"


def row(parent: list[dict], change: list[dict], metric: dict, raw: bool) -> tuple[str, str]:
    """One metric's table cells (medians, quartiles, pairs won) and verdict."""
    name = metric["name"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    matched = pairs(parent, change, name, raw)
    won = sum(sign * c < sign * p for p, c in matched) / len(matched)
    values = [[value(r, name, raw) for r in runs] for runs in (parent, change)]
    cells = []
    for runs in values:
        q1, q2, q3 = quartiles(runs)
        cells.append(f"{q2:.5g} [{q1:.5g}, {q3:.5g}] {metric['unit']}")
    text = f"{cells[0]:>34s} {cells[1]:>34s} {won:5.0%}"
    return text, verdict(*values, won, metric["better"], metric["bound"])


def report(parent: list[dict], change: list[dict], bench: dict) -> str:
    workloads = [w["name"] for w in bench["workloads"]]
    lines = [
        f"{'workload':16s} {'metric':20s} {'parent median [q1, q3]':>34s} "
        f"{'change median [q1, q3]':>34s} {'won':>5s}  verdict"
    ]
    for workload in workloads:
        side = [
            [r for r in records if r["workload"] == workload and r["trace"] == 0]
            for records in (parent, change)
        ]
        if not all(side):
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            kinds = [False]
            if all(name in r.get("raw_metrics", {}) for runs in side for r in runs):
                kinds.append(True)
            rows = [row(*side, metric, raw) for raw in kinds]
            if len({outcome for _, outcome in rows}) > 1:
                rows[0] = (rows[0][0], "disputed")
            for raw, (cells, outcome) in zip(kinds, rows):
                label = "  raw" if raw else name
                lines.append(f"{workload:16s} {label:20s} {cells}  {outcome}")
    lines += ["", f"{'workload':16s} {'per-layer metric':30s} {'parent':>12s} "
              f"{'change':>12s} {'delta':>12s} {'delta %':>8s}"]
    for workload in workloads:
        side = [
            [r for r in records if r["workload"] == workload and r["trace"] == 1]
            for records in (parent, change)
        ]
        if not all(side):
            continue
        for metric in bench["per_layer"]:
            name = metric["name"]
            before, after = (
                statistics.median(r["metrics"][name]["value"] for r in runs)
                for runs in side
            )
            share = f"{(after - before) / before:+8.1%}" if before else f"{'':8s}"
            lines.append(
                f"{workload:16s} {name:30s} {before:12.5g} {after:12.5g} "
                f"{after - before:+12.4g} {share}"
            )
    return "\n".join(lines)
