"""One benchmark sample: set up a workload, measure it, check it, report it.

``run.py`` starts this file as a fresh interpreter, one at a time::

    python3 perfbench/worker.py --workload service-fcfs --seed 1 --seconds 20 --trace 0

Protocol on standard output: the line ``READY`` as soon as set-up is done
(the runner times set-up from spawning the process to this line), then
``HOST <slowdown> <sampler seconds>`` for set-up, then, unless
``--setup-only``, one JSON object as the last line.

A measured *pass* is one fixed unit of work (see ``workloads.py``); every
pass replays the same inputs, generated from ``--seed``.  Passes repeat
until ``--seconds`` have elapsed; ``run_s`` is the median pass time
in uncontended host seconds (see ``hostspeed.py``).  With ``--trace 1`` the
same passes then run again traced, and the per-layer split is reported.

Everything runs in this one thread of this one process: campaigns use
``SerialExecutor`` and the result store lives in a temporary directory
under ``.perfbench/`` that is removed after each pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

from hostspeed import Sampler
from tracing import Tracer, instrument, self_times

# --------------------------------------------------------------------------- #
# Per-layer metrics from the traced passes
# --------------------------------------------------------------------------- #

#: Span name -> the per-layer metric its self time adds to.
SELF_TIME_METRIC = {
    "workloads.next": "workloads.gen_s",
    "workloads.build_trace": "workloads.gen_s",
    "sim.run_service": "sim.replay_s",
    "sim.replay": "sim.replay_s",
    "api.factory.build_fleet": "api.factory.build_s",
    "api.factory.build_drive": "api.factory.build_s",
    "api.store.put": "api.store.put_s",
    "core.efficiency_curve": "core.efficiency_s",
    "core.traxtent_map": "core.traxtent_map_s",
}
#: Span name -> the per-layer metric its ``count`` adds to.
COUNT_METRIC = {
    "workloads.next": "workloads.requests",
    "workloads.build_trace": "workloads.requests",
    "api.store.put": "api.store.bytes",
}
#: Span name -> the per-layer metric counting its calls.
CALLS_METRIC = {
    "api.factory.build_drive": "api.factory.builds",
    "api.campaign.point": "api.campaign.points",
    "core.traxtent_map": "core.traxtent_maps",
}
PATHS = ("kernel", "kernel_sched", "scalar", "mixed")

#: Simulated per-layer values, taken from pass 0 (inputs from --seed alone).
SIMULATED = (
    "disksim.p50_ms", "disksim.p99_ms", "disksim.p999_ms",
    "disksim.max_utilization", "disksim.cache_hits", "disksim.forced_dispatches",
    "core.fig1_track_efficiency", "core.fig6_onereq_cut", "core.fig6_tworeq_cut",
    "faults.retries", "faults.failed_requests", "faults.redirected_requests",
)


def span_layers(spans, selfs, divisor: float) -> dict[str, float]:
    """Per-layer host times (divided by ``divisor``) and counts of the
    spans of one run id."""
    layers = Counter()
    points = 0.0
    run = 0.0
    for span, own in zip(spans, selfs):
        own /= divisor
        duration = span.duration / divisor
        if span.name in SELF_TIME_METRIC:
            layers[SELF_TIME_METRIC[span.name]] += own
        if span.name in COUNT_METRIC:
            layers[COUNT_METRIC[span.name]] += span.count
        if span.name in CALLS_METRIC:
            layers[CALLS_METRIC[span.name]] += 1
        if span.name == "workloads.next" and span.count:
            layers["sim.chunks"] += 1
        if span.name == "api.campaign.run":
            run += duration
        if span.name == "api.campaign.point":
            points += duration
            if span.tag == "faults":
                layers["faults.points_s"] += duration
    if run:
        layers["api.campaign.dispatch_s"] = run - points
    return layers


def tail(values: list[float]) -> float:
    """The highest value with at least ten values above it (the smallest
    value when there are fewer than eleven)."""
    ordered = sorted(values)
    return ordered[max(0, len(ordered) - 11)]


def per_layer(tracer, outcomes, divisors, traced_times, untraced_times) -> dict:
    """Per-layer metrics: host times and counts are medians over the traced
    passes (factory work in set-up added), simulated values come from pass 0.
    ``divisors`` maps each run id to what its raw span times are divided by
    (see :func:`divisor`)."""
    groups: dict[str, tuple[list, list]] = {}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        spans, selfs = groups.setdefault(span.run, ([], []))
        spans.append(span)
        selfs.append(own)
    setup = span_layers(*groups.get("setup", ([], [])), divisors["setup"])
    passes = [
        span_layers(*groups[f"pass{k}"], divisors[f"pass{k}"])
        for k in range(len(outcomes))
    ]
    for layers, outcome in zip(passes, outcomes):
        for path in PATHS:
            layers[f"sim.path.{path}"] = sum(
                1 for entry in outcome.paths if entry and entry[0] == path
            )
        layers["sim.fast_fraction"] = outcome.fast / outcome.replayed

    def median(name):
        return statistics.median(layers.get(name, 0.0) for layers in passes)

    names = (
        ["workloads.gen_s", "workloads.requests", "sim.replay_s", "sim.chunks",
         "sim.fast_fraction"]
        + [f"sim.path.{path}" for path in PATHS]
        + ["api.campaign.points", "api.campaign.dispatch_s", "api.store.put_s",
           "api.store.bytes", "core.efficiency_s", "core.traxtent_map_s",
           "core.traxtent_maps", "faults.points_s"]
    )
    metrics = {name: median(name) for name in names}
    for name in ("api.factory.build_s", "api.factory.builds"):
        metrics[name] = setup.get(name, 0.0) + median(name)
    point_times = [
        span.duration / divisors[span.run]
        for span in tracer.spans
        if span.name == "api.campaign.point"
    ]
    metrics["api.campaign.point_s.p50"] = (
        statistics.median(point_times) if point_times else 0.0
    )
    metrics["api.campaign.point_s.tail"] = tail(point_times) if point_times else 0.0
    metrics.update(dict.fromkeys(SIMULATED, 0.0))
    metrics.update(outcomes[0].sim)
    metrics["trace.overhead"] = (
        statistics.median(traced_times) / statistics.median(untraced_times) - 1.0
    )
    return metrics


# --------------------------------------------------------------------------- #
# Main
# --------------------------------------------------------------------------- #

def measure(workload, seconds: float, passes: int | None = None, tracer=None):
    """Run passes until ``seconds`` have elapsed (or exactly ``passes``).

    Returns the outcomes, each pass's raw host seconds and each pass's
    :class:`Sampler` (the host slowdown it saw and the handler's time)."""
    outcomes, raw, samplers = [], [], []
    start = time.perf_counter()
    while True:
        k = len(outcomes)
        if tracer is not None:
            tracer.run = f"pass{k}"
        with Sampler() as sampler:
            begin = time.perf_counter()
            outcomes.append(workload.run_pass(k, tracer))
            raw.append(time.perf_counter() - begin)
        samplers.append(sampler)
        if passes is None and time.perf_counter() - start >= seconds:
            break
        if len(outcomes) == passes:
            break
    return outcomes, raw, samplers


def divisor(sampler: Sampler, elapsed: float) -> float:
    """What raw host seconds of a block are divided by to give uncontended
    host seconds without the sampler's own time."""
    return elapsed / sampler.host_seconds(elapsed)


def live_children() -> list[int]:
    """Pids of this process's live children, from ``multiprocessing`` and
    from ``/proc`` (which also sees children started any other way)."""
    import multiprocessing

    children = {p.pid for p in multiprocessing.active_children()}
    for task in Path(f"/proc/{os.getpid()}/task").glob("*/children"):
        children.update(int(pid) for pid in task.read_text().split())
    return sorted(children)


def leftovers(work_dir: Path) -> list[str]:
    """Threads, child processes or temporary stores this process left."""
    errors = []
    if threading.active_count() != 1:
        errors.append(f"{threading.active_count() - 1} extra thread(s) alive")
    children = live_children()
    if children:
        errors.append(f"child processes alive: {children}")
    stores = sorted(p.name for p in work_dir.glob("store-*"))
    if stores:
        errors.append(f"temporary stores left: {stores}")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    begin = time.perf_counter()
    with Sampler() as setup:
        # Imported here, under the sampler, because importing the program
        # is part of set-up.
        import workloads

        with instrument(tracer) if tracer else nullcontext():
            workload = workloads.make_workload(args.workload, args.seed)
    setup_elapsed = time.perf_counter() - begin
    print("READY", flush=True)
    print(f"HOST {setup.slowdown!r} {setup.spent!r}", flush=True)
    if args.setup_only:
        return 0

    outcomes, raw, samplers = measure(workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times = [sampler.host_seconds(t) for sampler, t in zip(samplers, raw)]
    errors = workload.check(outcomes)
    digests = [outcome.digest for outcome in outcomes]
    if len(set(digests)) != 1:
        errors.append("passes replaying the same inputs gave different results")
    report = {
        "passes": len(outcomes),
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "run_s": statistics.median(times),
        "raw_run_s": statistics.median(raw),
        "sim_requests_per_s": statistics.median(
            o.sim_requests / t for o, t in zip(outcomes, times)
        ),
        "raw_sim_requests_per_s": statistics.median(
            o.sim_requests / t for o, t in zip(outcomes, raw)
        ),
        "peak_rss_mb": peak_rss_mb,
        "raw_pass_s": raw,
        "slowdowns": [sampler.slowdown for sampler in samplers],
        "digest": workloads.digest(digests),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
    }
    if tracer is not None:
        with instrument(tracer):
            traced, traced_raw, traced_samplers = measure(
                workload, args.seconds, passes=len(outcomes), tracer=tracer
            )
        if [outcome.digest for outcome in traced] != digests:
            errors.append("traced results differ from untraced results")
        for outcome in traced:
            if outcome.fast is None:
                outcome.fast = workload.fast_rows()
        report["attempted"] += sum(o.attempted for o in traced)
        report["failed"] += sum(o.failed for o in traced)
        divisors = {"setup": divisor(setup, setup_elapsed)}
        divisors.update(
            (f"pass{k}", divisor(sampler, t))
            for k, (sampler, t) in enumerate(zip(traced_samplers, traced_raw))
        )
        traced_times = [s.host_seconds(t) for s, t in zip(traced_samplers, traced_raw)]
        report["layers"] = per_layer(tracer, traced, divisors, traced_times, times)
        spans = workloads.WORK_DIR / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        report["spans"] = str(spans / f"{args.workload}-seed{args.seed}.json")
        tracer.write(report["spans"])
    errors += leftovers(workloads.WORK_DIR)
    report["errors"] = errors
    print(json.dumps(report), flush=True)
    return 0


def _numpy_version() -> str | None:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


if __name__ == "__main__":
    sys.exit(main())
