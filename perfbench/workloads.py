"""The benchmark's workloads: what one measured pass runs and checks.

* :class:`Service` -- open-loop Poisson arrivals through ``run_service`` on
  a 4-drive fleet, FCFS (``service-fcfs``) or SPTF (``service-sptf``);
* :class:`PaperCampaign` -- one serial ``run_campaign`` of the paper's
  experiments into a fresh ``ResultStore`` (``paper-campaign``).

A pass returns an :class:`Outcome`: a digest of its simulated results, the
replay paths it took and the simulated values reported per layer.  Every
pass of a run replays the same inputs, generated from the seed, so a seed
always yields the same results.  ``check`` re-runs part of the work another
way (``fast=False``, ``run_scenario``) and compares bitwise.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import tempfile
from pathlib import Path

from repro.api import (
    CampaignConfig,
    DriveConfig,
    FleetConfig,
    ResultStore,
    RunResult,
    ScenarioConfig,
    SerialExecutor,
    WorkloadConfig,
    factory,
    run_campaign,
    scenario,
)
from repro.api.result import VOLATILE_DETAIL_KEYS
from repro.api.scenario import FAST_PAYLOAD_KEY, run_scenario_payload
from repro.sim.engine import TraceReplayEngine
from repro.sim.kernel import geometry_tables, seek_table, seek_table_list
from repro.sim.stream import SCHED_STREAM_REASON, TraceStream, run_service
from repro.workloads.arrivals import PoissonArrivals, PoissonConfig
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
#: Benchmark outputs (spans) and temporary result stores, inside the checkout.
WORK_DIR = ROOT / ".perfbench"

WORKLOADS = ("service-fcfs", "service-sptf", "paper-campaign")

# ---- service workloads ------------------------------------------------- #
#: Offered load: ~0.8 of the 487 rps saturation throughput a 4-drive,
#: cache-off Atlas 10K II fleet reaches on these arrivals.  Far above
#: saturation the queue grows without bound and p50 measures the backlog.
SERVICE_RATE_RPS = 400.0
SERVICE_DRIVES = 4
SERVICE_SECTORS = 8
SERVICE_READ_FRACTION = 0.7
#: Requests per pass: four default-size (65536) chunks on the kernel path,
#: half a chunk on the ~15x slower scalar SPTF path, so that both fit ten or
#: more passes in a run and a burst of host noise moves few of them.
SERVICE_REQUESTS = {"service-fcfs": 262144, "service-sptf": 32768}
SERVICE_POLICY = {"service-fcfs": None, "service-sptf": "sptf"}
#: Size of the reduced service-fcfs copy replayed again with ``fast=False``.
PARITY_REQUESTS = 8192

# ---- paper campaign ---------------------------------------------------- #
#: The I/O sizes of Figures 1, 6 and 8 (sectors); 528 = one 264 KB track.
EFFICIENCY_SIZES = [66, 132, 264, 396, 528, 792, 1056, 1584, 2112, 3168, 4224]
TRACK_SECTORS = 528
EFFICIENCY_REQUESTS = 100
OPEN_REQUESTS = 400
OPEN_INTERARRIVAL_MS = 12.0
CLOSED_REQUESTS = 600
CLOSED_DEPTH = 8
CLOSED_DRIVES = 2
POLICIES = ("fcfs", "sptf", "traxtent")


def digest(payload) -> str:
    """SHA-256 of a JSON payload in canonical form (floats by ``repr``)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def warm_kernel_tables(drives) -> None:
    """Build the per-geometry kernel tables users pay for once per process."""
    for drive in drives:
        geometry_tables(drive.geometry)
        seek_table(drive.seek_curve, drive.geometry.cylinders)
        seek_table_list(drive.seek_curve, drive.geometry.cylinders)


@dataclasses.dataclass
class Outcome:
    """What one measured pass produced."""

    digest: str
    #: Requests the simulated drives completed (split pieces included).
    sim_requests: int
    attempted: int
    failed: int
    #: ``(replay_path, fast_reason)`` of every replay, in order.
    paths: list
    #: Trace rows replayed, and of those the rows a kernel replayed
    #: (``None`` until worked out, for a pass that mixed paths).
    replayed: int
    fast: int | None
    #: Simulated values reported as per-layer metrics.
    sim: dict


# --------------------------------------------------------------------------- #
# Service workloads
# --------------------------------------------------------------------------- #

class Service:
    """Open-loop Poisson arrivals through ``run_service`` on a 4-drive fleet."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.n_requests = SERVICE_REQUESTS[name]
        self.policy = SERVICE_POLICY[name]
        self.drive = DriveConfig(enable_caching=False)
        self.fleet_config = FleetConfig(n_drives=SERVICE_DRIVES)
        self.fleet = factory.build_fleet(self.fleet_config, self.drive)
        self.engine = TraceReplayEngine(self.fleet, scheduler=self.policy)
        warm_kernel_tables(self.fleet.drives)
        self.first_stats = None

    def arrivals(self, n_requests: int | None = None):
        return PoissonConfig(
            rate_rps=SERVICE_RATE_RPS,
            n_requests=n_requests or self.n_requests,
            request_sectors=SERVICE_SECTORS,
            read_fraction=SERVICE_READ_FRACTION,
            seed=self.seed,
        )

    def replay(self, engine, config, tracer: Tracer | None = None):
        source = PoissonArrivals.stream(config, self.fleet.total_lbns)
        if tracer is None:
            return run_service(engine, TraceStream(source))
        with tracer.span("sim.run_service"):
            return run_service(
                engine, TraceStream(tracer.iterate("workloads.next", source))
            )

    def run_pass(self, k: int, tracer: Tracer | None = None) -> Outcome:
        stats = self.replay(self.engine, self.arrivals(), tracer)
        if k == 0:
            self.first_stats = stats
        replay = stats.replay
        path = (self.engine.last_replay_path, self.engine.last_fast_reason)
        fast = {"kernel": replay.trace_requests, "mixed": None}.get(path[0], 0)
        return Outcome(
            digest=digest(stats.to_dict()),
            sim_requests=replay.issued_requests,
            attempted=1,
            failed=int(replay.trace_requests != self.n_requests),
            paths=[path],
            replayed=replay.trace_requests,
            fast=fast,
            sim={
                "disksim.p50_ms": stats.p50_ms,
                "disksim.p99_ms": stats.p99_ms,
                "disksim.p999_ms": stats.p999_ms,
                "disksim.max_utilization": max(
                    drive["utilization"] for drive in replay.per_drive
                ),
                "disksim.cache_hits": replay.cache_hits,
                "disksim.forced_dispatches": replay.extras.get(
                    "forced_dispatches", 0.0
                ),
            },
        )

    @functools.cached_property
    def chunk_paths(self) -> list[tuple[int, bool, tuple[str, str]]]:
        """``(rows, straddles, path)`` per chunk of a pass: whether the chunk
        holds a request that straddles two drives' LBN ranges, which the
        kernel refuses by design (``shard-boundary-crossing requests``), and
        the ``(replay_path, fast_reason)`` of the chunk replayed alone.  On
        this cache-off fleet the kernel's per-chunk gate looks at the chunk
        only, so that is the path the chunk took inside the pass."""
        shard_of = self.fleet.shard_of
        out = []
        for chunk in PoissonArrivals.stream(self.arrivals(), self.fleet.total_lbns):
            straddles = any(
                shard_of(lbn) != shard_of(lbn + count - 1)
                for lbn, count in zip(chunk.lbns, chunk.counts)
            )
            run_service(self.engine, [chunk])
            path = (self.engine.last_replay_path, self.engine.last_fast_reason)
            out.append((len(chunk), straddles, path))
        return out

    def fast_rows(self) -> int:
        """Rows of a pass the kernel replayed, from :attr:`chunk_paths`."""
        return sum(rows for rows, _, path in self.chunk_paths if path[0] == "kernel")

    def check(self, outcomes: list[Outcome]) -> list[str]:
        errors = []
        expected = ("kernel", "ok") if self.policy is None else ("scalar", SCHED_STREAM_REASON)
        mixed = ("mixed", "ok") if self.policy is None else None
        for k, outcome in enumerate(outcomes):
            if outcome.paths[0] not in (expected, mixed):
                errors.append(f"pass {k}: path {outcome.paths[0]}, expected {expected}")
        if any(outcome.paths[0] == mixed for outcome in outcomes):
            errors += self.check_chunk_paths()
        errors += self.check_run_scenario(outcomes[0])
        if self.policy is None:
            errors += self.check_scalar_parity()
        return errors

    def check_chunk_paths(self) -> list[str]:
        """A pass that mixed paths: only chunks holding a straddling request
        may have left the kernel."""
        errors = []
        for index, (_, straddles, path) in enumerate(self.chunk_paths):
            want = ("scalar", "shard-boundary-crossing requests") if straddles else ("kernel", "ok")
            if path != want:
                errors.append(f"chunk {index} alone: path {path}, expected {want}")
        if not any(straddles for _, straddles, _ in self.chunk_paths):
            errors.append("mixed path although no chunk holds a straddling request")
        return errors

    def scenario_config(self):
        arrivals = self.arrivals()
        return ScenarioConfig(
            name=self.name,
            kind="service",
            mode="open",
            drive=self.drive,
            fleet=self.fleet_config,
            workload=WorkloadConfig(
                name="poisson",
                params={
                    "rate_rps": arrivals.rate_rps,
                    "n_requests": arrivals.n_requests,
                    "request_sectors": arrivals.request_sectors,
                    "read_fraction": arrivals.read_fraction,
                },
            ),
            seed=arrivals.seed,
            options={} if self.policy is None else {"scheduler": self.policy},
        )

    def check_run_scenario(self, first: Outcome) -> list[str]:
        """Pass 0 rebuilt by ``run_scenario`` must match it exactly."""
        config = self.scenario_config()
        expected = scenario.run_scenario(config).to_dict()
        details = expected["details"]
        path = (details.pop("replay_path"), details.pop("fast_reason"))
        details.pop("arrival_process")
        details.pop("scheduler", None)
        mine = RunResult.from_service(
            self.first_stats, scenario=config.name, traxtent=config.traxtent
        ).to_dict()
        errors = []
        if digest(mine) != digest(expected):
            errors.append("pass 0 differs from run_scenario on the same config")
        if path != first.paths[0]:
            errors.append(f"run_scenario took {path}, pass 0 took {first.paths[0]}")
        return errors

    def check_scalar_parity(self) -> list[str]:
        """A reduced copy replayed with ``fast=False`` must match bitwise."""
        config = self.arrivals(PARITY_REQUESTS)
        scalar = TraceReplayEngine(self.fleet, scheduler=self.policy, fast=False)
        slow = self.replay(scalar, config)
        fast = self.replay(self.engine, config)
        errors = []
        if digest(slow.to_dict()) != digest(fast.to_dict()):
            errors.append("fast=False replay of the reduced copy differs")
        if (scalar.last_replay_path, scalar.last_fast_reason) != ("scalar", "fast disabled"):
            errors.append("fast=False replay did not take the scalar path")
        return errors


# --------------------------------------------------------------------------- #
# Paper campaign
# --------------------------------------------------------------------------- #

def fault_schedule(seed: int) -> dict:
    """Transient errors and a slowdown on drive 0, fail-stop with a spare on
    drive 1."""
    return {
        "seed": seed,
        "retry_budget": 8,
        "drives": {
            "0": {
                "transient": {"probability": 0.05, "max_retries": 3},
                "slowdowns": [{"start_ms": 300.0, "end_ms": 900.0, "factor": 2.0}],
            },
            "1": {"fail_stop_ms": 1500.0, "spare": True},
        },
    }


def campaign_points(seed: int) -> list[dict]:
    """The campaign's points as config overrides, with the path each replay
    must take as ``"expect"``."""
    full = DriveConfig().to_dict()
    closed_drive = DriveConfig(
        cylinders_per_zone=20, num_zones=3, enable_caching=False
    ).to_dict()
    one = {"n_drives": 1, "striping": "lbn-range"}
    points = []
    for depth in (1, 2):
        for aligned in (True, False):
            points.append({
                "kind": "efficiency", "mode": "open", "traxtent": aligned,
                "drive": full, "fleet": one, "faults": None,
                "workload": {"name": "synthetic", "params": {}},
                "options": {
                    "sizes_sectors": EFFICIENCY_SIZES, "queue_depth": depth,
                    "n_requests": EFFICIENCY_REQUESTS, "op": "read",
                    "zone_index": 0,
                },
                "expect": None,
            })
    for aligned in (True, False):
        points.append({
            "kind": "replay", "mode": "open", "traxtent": aligned,
            "drive": full, "fleet": one, "faults": None,
            "workload": {
                "name": "synthetic", "params": {"n_requests": OPEN_REQUESTS},
                "interarrival_ms": OPEN_INTERARRIVAL_MS,
            },
            "options": {},
            "expect": ("scalar", "firmware-cache-sensitive reuse"),
        })
    for policy in POLICIES:
        for aligned in (True, False):
            for faults in (None, fault_schedule(seed)):
                points.append({
                    "kind": "replay", "mode": "closed", "traxtent": aligned,
                    "drive": closed_drive,
                    "fleet": {"n_drives": CLOSED_DRIVES, "striping": "lbn-range"},
                    "faults": faults,
                    "workload": {
                        "name": "synthetic",
                        "params": {"n_requests": CLOSED_REQUESTS},
                        # Closed replay ignores arrival times; spacing them
                        # skips recording a closed-loop run in build_trace.
                        "interarrival_ms": 1.0,
                    },
                    "options": {"scheduler": policy, "queue_depth": CLOSED_DEPTH},
                    "expect": (
                        ("scalar", "fault injection active")
                        if faults
                        else ("kernel_sched", "ok")
                    ),
                })
    return points


def campaign_config(seed: int, points: list[dict]):
    keys = [key for key in points[0] if key != "expect"]
    return CampaignConfig(
        name="paper",
        base=ScenarioConfig(name="paper", seed=seed),
        zip_axes={key: [point[key] for point in points] for key in keys},
    )


def stable_payload(payload: dict) -> dict:
    """A campaign payload without the keys that say how it was computed."""
    details = payload.get("details", {})
    return {
        **payload,
        "details": {k: v for k, v in details.items() if k not in VOLATILE_DETAIL_KEYS},
    }


class PaperCampaign:
    """One serial ``run_campaign`` of the paper's experiments per pass."""

    name = "paper-campaign"

    def __init__(self, seed: int):
        self.points = campaign_points(seed)
        self.config = campaign_config(seed, self.points)
        drives = {
            json.dumps(point["drive"], sort_keys=True): point["drive"]
            for point in self.points
        }
        warm_kernel_tables(
            factory.build_drive(DriveConfig(**drive)) for drive in drives.values()
        )
        self.first_result = None

    def run_pass(self, k: int, tracer: Tracer | None = None) -> Outcome:
        WORK_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="store-", dir=WORK_DIR) as directory:
            if tracer is None:
                result = run_campaign(
                    self.config, store=ResultStore(directory), executor=SerialExecutor()
                )
            else:
                with tracer.span("api.campaign.run"):
                    result = run_campaign(
                        self.config,
                        store=TracedStore(directory, tracer),
                        executor=TracedExecutor(tracer),
                    )
        if k == 0:
            self.first_result = result
        return self.outcome(result)

    def outcome(self, result) -> Outcome:
        replays, paths, faulted, efficiency = [], [], [], {}
        fast = 0
        for point, run in zip(self.points, result.runs):
            payload = run.payload
            if point["kind"] == "efficiency":
                paths.append(None)
                if payload:
                    key = (point["options"]["queue_depth"], point["traxtent"])
                    efficiency[key] = payload["points"]
                continue
            details = payload.get("details", {})
            paths.append((details.get("replay_path"), details.get("fast_reason")))
            if not payload:
                continue
            replay = payload["replay"]
            replays.append(replay)
            if paths[-1][0] == "kernel_sched":
                fast += replay["trace_requests"]
            if point["faults"]:
                faulted.append(replay["extras"])
        sim = {
            "disksim.p50_ms": max((r["response"]["p50"] for r in replays), default=0.0),
            "disksim.p99_ms": max((r["response"]["p99"] for r in replays), default=0.0),
            "disksim.p999_ms": max(
                (r["response"]["p999"] for r in replays), default=0.0
            ),
            "disksim.max_utilization": max(
                (d["utilization"] for r in replays for d in r["per_drive"]),
                default=0.0,
            ),
            "disksim.cache_hits": sum(r["cache_hits"] for r in replays),
            "disksim.forced_dispatches": sum(
                r["extras"].get("forced_dispatches", 0.0) for r in replays
            ),
            "faults.retries": sum(e["fault_retries"] for e in faulted),
            "faults.failed_requests": sum(e["fault_failed_requests"] for e in faulted),
            "faults.redirected_requests": sum(
                e["fault_redirected_requests"] for e in faulted
            ),
        }
        if len(efficiency) == 4:
            sim.update(paper_figures(efficiency))
        efficiency_requests = sum(
            len(point["options"]["sizes_sectors"]) * point["options"]["n_requests"]
            for point in self.points
            if point["kind"] == "efficiency"
        )
        return Outcome(
            digest=digest([stable_payload(run.payload) for run in result.runs]),
            sim_requests=efficiency_requests + sum(r["issued_requests"] for r in replays),
            attempted=len(result.runs),
            failed=len(result.failures),
            paths=paths,
            replayed=sum(r["trace_requests"] for r in replays),
            fast=fast,
            sim=sim,
        )

    def check(self, outcomes: list[Outcome]) -> list[str]:
        errors = []
        expected = [point["expect"] for point in self.points]
        for k, outcome in enumerate(outcomes):
            for index, (got, want) in enumerate(zip(outcome.paths, expected)):
                if got != want:
                    errors.append(f"pass {k} point {index}: path {got}, expected {want}")
        return errors + self.check_scalar_parity()

    def check_scalar_parity(self) -> list[str]:
        """Kernel-served points of pass 0 re-run with ``fast=False``."""
        errors = []
        sample = [
            run
            for run, point in zip(self.first_result.runs, self.points)
            if point["expect"] == ("kernel_sched", "ok") and point["traxtent"]
        ]
        for run in sample:
            slow = run_scenario_payload(
                {**run.config.to_dict(), FAST_PAYLOAD_KEY: False}
            )
            if digest(stable_payload(slow)) != digest(stable_payload(run.payload)):
                errors.append(f"point {run.index}: fast=False result differs")
            if slow["details"].get("fast_reason") != "fast disabled":
                errors.append(f"point {run.index}: fast=False did not run scalar")
        return errors


def paper_figures(efficiency: dict) -> dict:
    """Figure 1 and 6 numbers at the track size (paper: 0.73, 18%, 32%)."""

    def at_track(depth, aligned):
        return next(
            p for p in efficiency[(depth, aligned)] if p["io_sectors"] == TRACK_SECTORS
        )

    return {
        "core.fig1_track_efficiency": at_track(2, True)["efficiency"],
        "core.fig6_onereq_cut": 1.0
        - at_track(1, True)["head_time_ms"] / at_track(1, False)["head_time_ms"],
        "core.fig6_tworeq_cut": 1.0
        - at_track(2, True)["head_time_ms"] / at_track(2, False)["head_time_ms"],
    }


class TracedStore(ResultStore):
    """A result store whose writes are recorded as ``api.store.put`` spans
    counting the bytes written."""

    def __init__(self, directory, tracer: Tracer):
        super().__init__(directory)
        self.tracer = tracer

    def put(self, *args, **kwargs):
        return self._traced(super().put, *args, **kwargs)

    def put_failure(self, *args, **kwargs):
        return self._traced(super().put_failure, *args, **kwargs)

    def _traced(self, write, *args, **kwargs):
        with self.tracer.span("api.store.put") as span:
            path = write(*args, **kwargs)
            span.count = path.stat().st_size
        return path


class TracedExecutor:
    """``SerialExecutor`` with every campaign point recorded as a span."""

    workers = 1

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def map(self, fn, items):
        results = []
        for item in items:
            tag = "faults" if item.get("faults") else ""
            with self.tracer.span("api.campaign.point", tag=tag):
                results.append(fn(item))
        return results


def make_workload(name: str, seed: int):
    if name == "paper-campaign":
        return PaperCampaign(seed)
    return Service(name, seed)
