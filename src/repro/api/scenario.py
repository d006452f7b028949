"""The Scenario facade: one entry point for every experiment.

A :class:`Scenario` wraps a :class:`~repro.api.config.ScenarioConfig` and
adds a fluent builder plus the runner.  The same experiment can be written
three ways::

    # Fluent
    result = (Scenario("aligned")
              .drive("Quantum Atlas 10K II")
              .fleet(4)
              .workload("synthetic", n_requests=2000, interarrival_ms=1.0)
              .traxtent(True)
              .run())

    # Declarative
    result = run_scenario(ScenarioConfig.load("scenario.json"))

    # Command line
    #   python -m repro run scenario.json
    #   python -m repro compare aligned.json unaligned.json

Replay scenarios are deterministic: a facade-built replay produces
bitwise-identical :class:`~repro.sim.engine.ReplayStats` to hand-wired
``DiskDrive`` / ``TraceReplayEngine`` code (the tests assert it).
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Mapping

from ..core.efficiency import efficiency_curve
from ..disksim.drive import DiskDrive
from ..disksim.sched import get_scheduler
from ..faults import FaultConfig, attach_fleet_faults
from ..sim.engine import TraceReplayEngine
from ..sim.shard import LbnRangeShard
from ..sim.trace import Trace
from .config import (
    ConfigError,
    DriveConfig,
    FleetConfig,
    ScenarioConfig,
    WorkloadConfig,
)
from .factory import build_drive, build_fleet
from .registry import get_workload, workload_config
from .result import Comparison, RunResult


# --------------------------------------------------------------------------- #
# Runner
# --------------------------------------------------------------------------- #

def build_trace(config: ScenarioConfig, drive: DiskDrive | None = None) -> Trace:
    """Materialise the scenario's workload as a request trace.

    The trace is generated against ``drive`` (or a fresh drive built from
    the scenario's drive config), so fleet drives stay pristine for the
    replay itself.
    """
    generator = get_workload(config.workload.name)
    wl_config = workload_config(config.workload.name, config.workload.params)
    if config.seed is not None and any(
        f.name == "seed" for f in dataclasses.fields(wl_config)
    ):
        wl_config = dataclasses.replace(wl_config, seed=config.seed)
    reference = drive if drive is not None else build_drive(config.drive)
    return generator.trace(
        reference,
        wl_config,
        traxtent=config.traxtent,
        interarrival_ms=config.workload.interarrival_ms,
        start_ms=config.workload.start_ms,
    )


def stripe_trace(trace: Trace, fleet: LbnRangeShard, seed: int = 43) -> Trace:
    """Spread a single-drive trace uniformly over a fleet's global space.

    Workload generators address one drive's LBN space; this remaps each
    request onto a randomly chosen shard (same local LBN), which is how the
    perf benchmark exercises multi-drive fan-out.
    """
    rng = random.Random(seed)
    offsets = [fleet.shard_range(i)[0] for i in range(len(fleet))]
    lbns = [offsets[rng.randrange(len(offsets))] + lbn for lbn in trace.lbns]
    return Trace(trace.issue_ms, lbns, trace.counts, trace.ops)


def _attach_faults(config: ScenarioConfig, fleet: LbnRangeShard) -> None:
    """Arm the scenario's fault schedule (if any) on the freshly built fleet.

    Spare drives (for ``spare: true`` fail-stop entries) are built from the
    scenario's own drive config, so a redirected request sees identical
    timing to the primary it replaces.
    """
    if config.faults is None:
        return
    attach_fleet_faults(
        fleet, config.faults, spare_factory=lambda: build_drive(config.drive)
    )


def _run_replay(config: ScenarioConfig, fast: bool | None = None) -> RunResult:
    fleet = build_fleet(config.fleet, config.drive)
    _attach_faults(config, fleet)
    trace = build_trace(config)
    if len(fleet) > 1 and _should_stripe(config, fleet, trace):
        trace = stripe_trace(
            trace, fleet, seed=int(config.options.get("stripe_seed", 43))
        )
    if fast is None:
        option = config.options.get("fast")
        fast = None if option is None else bool(option)
    policy = config.options.get("scheduler")
    starvation = config.options.get("starvation_ms")
    depth = int(config.options.get("queue_depth", 1))
    if starvation is not None and policy is None:
        # A bound with no policy selected would be silently ignored while
        # still forking the scenario's content hash -- refuse.  (With an
        # explicit 'fcfs' policy the bound is a legitimate no-op: the
        # oldest request is always FCFS's own pick.)
        raise ConfigError(
            "options['starvation_ms'] needs options['scheduler'] to be "
            "set; pick a policy for the bound to act on"
        )
    if config.mode == "open" and "queue_depth" in config.options:
        # In open replay the queue emerges from arrivals outrunning
        # service; a depth knob would be silently ignored while still
        # forking the scenario's content hash -- refuse instead.
        raise ConfigError(
            "options['queue_depth'] applies to closed replay only; this "
            "scenario replays in 'open' mode (queueing emerges from the "
            "trace's arrival times)"
        )
    engine = TraceReplayEngine(
        fleet,
        fast=fast,
        scheduler=policy,
        starvation_ms=None if starvation is None else float(starvation),
        queue_depth=depth,
    )
    if config.mode == "closed":
        stats = engine.replay_closed(trace, think_ms=config.think_ms)
    else:
        stats = engine.replay(trace)
    result = RunResult.from_replay(
        stats, scenario=config.name, traxtent=config.traxtent
    )
    if policy is not None:
        # Scheduling is part of the experiment's identity (unlike 'fast'),
        # so the chosen policy is reported in the result payload.
        result.details["scheduler"] = engine.scheduler_name
    # Every replay record explains its own execution: which implementation
    # served it and why ("ok" on fast paths, one stable reason string per
    # refusal -- see TraceReplayEngine's vocabulary).  Execution detail,
    # not experiment identity: never part of the scenario hash.
    result.details["replay_path"] = engine.last_replay_path
    result.details["fast_reason"] = engine.last_fast_reason
    return result


def _should_stripe(
    config: ScenarioConfig, fleet: LbnRangeShard, trace: Trace
) -> bool:
    """Decide whether a multi-drive replay spreads the trace over shards.

    Generator-built traces address one drive's local LBN space, so by
    default they are striped over the fleet.  ``raw`` traces may already
    address the fleet's global space (a captured fleet trace), so they
    replay verbatim unless striping is requested explicitly.  Asking to
    stripe a trace that does not fit one drive's local space is an error,
    not a silent remap.
    """
    option = config.options.get("stripe")
    stripe = (config.workload.name != "raw") if option is None else bool(option)
    if not stripe:
        return False
    if config.workload.name == "raw":
        # Striping moves each row onto a shard before the replay checks it,
        # and a negative LBN moved onto a later shard would land in valid
        # space; so a captured trace's rows are checked here, by the
        # replay's rule and in its words (the capacity clause aside).
        from ..sim.stream import _check_rows

        _check_rows(None, None, trace)
    local = fleet.drives[0].geometry.total_lbns
    top = max(
        (lbn + count for lbn, count in zip(trace.lbns, trace.counts)), default=0
    )
    if top > local:
        if option:  # explicit request that cannot be honoured
            raise ConfigError(
                f"cannot stripe: trace addresses LBNs up to {top} but one "
                f"drive holds only {local}; the trace already spans the "
                "fleet's global space -- set options stripe=false"
            )
        return False  # default: a global-space trace replays verbatim
    return True


def _run_efficiency(config: ScenarioConfig) -> RunResult:
    drive = build_drive(config.drive)
    if config.faults is not None:
        # The efficiency sweep measures the drive's geometry, not a
        # workload; a fault schedule would be silently ignored while still
        # forking the scenario's content hash -- refuse instead.
        raise ConfigError(
            "faults apply to replay/service scenarios only; this scenario "
            "has kind 'efficiency'"
        )
    opts = config.options
    for knob in ("scheduler", "starvation_ms"):
        # These knobs would be silently ignored here while still forking
        # the scenario's content hash -- refuse instead of measuring
        # nothing.  (queue_depth is a real efficiency parameter.)
        if opts.get(knob) is not None:
            raise ConfigError(
                f"options[{knob!r}] applies to replay scenarios only; "
                f"this scenario has kind 'efficiency' (got {opts[knob]!r})"
            )
    sizes = opts.get("sizes_sectors") or [drive.specs.max_sectors_per_track]
    points = efficiency_curve(
        drive,
        sizes,
        aligned=config.traxtent,
        queue_depth=int(opts.get("queue_depth", 2)),
        n_requests=int(opts.get("n_requests", 500)),
        seed=config.seed if config.seed is not None else 1,
        zone_index=int(opts.get("zone_index", 0)),
        op=str(opts.get("op", "read")),
    )
    return RunResult.from_efficiency(
        points, scenario=config.name, traxtent=config.traxtent
    )


def _run_service(config: ScenarioConfig, fast: bool | None = None) -> RunResult:
    """Run a ``service`` scenario: an open-loop fleet under sustained load.

    The request source is either a seeded arrival process
    (:mod:`repro.workloads.arrivals`, when the workload name matches one)
    streamed lazily over the fleet's global LBN space, or any registered
    workload whose materialized trace is then streamed in chunks.  Replay
    goes through the bounded-memory streaming path; the result carries
    :class:`~repro.sim.stream.ServiceStats` (tail latencies, SLO
    accounting, saturation throughput, queue-depth series).
    """
    from ..sim.stream import DEFAULT_CHUNK_REQUESTS, TraceStream, run_service
    from ..workloads.arrivals import ARRIVALS, arrival_config

    if config.mode != "open":
        raise ConfigError(
            "service scenarios are open-loop by definition; "
            f"got mode {config.mode!r} (arrivals are never gated on "
            "completions -- use a 'replay' scenario for closed loops)"
        )
    if "queue_depth" in config.options:
        raise ConfigError(
            "options['queue_depth'] applies to closed replay only; in a "
            "service scenario queueing emerges from the arrival process"
        )
    fleet = build_fleet(config.fleet, config.drive)
    _attach_faults(config, fleet)
    if fast is None:
        option = config.options.get("fast")
        fast = None if option is None else bool(option)
    opts = config.options
    chunk_requests = int(opts.get("chunk_requests", DEFAULT_CHUNK_REQUESTS))
    slo_ms = float(opts.get("slo_ms", 50.0))
    queue_samples = int(opts.get("queue_samples", 64))
    policy = opts.get("scheduler")
    starvation = opts.get("starvation_ms")
    if starvation is not None and policy is None:
        raise ConfigError(
            "options['starvation_ms'] needs options['scheduler'] to be "
            "set; pick a policy for the bound to act on"
        )

    name = config.workload.name
    if name in ARRIVALS:
        params = dict(config.workload.params)
        if config.seed is not None:
            params["seed"] = config.seed
        arrivals = arrival_config(name, **params)
        source = ARRIVALS[name].stream(
            arrivals, fleet.total_lbns, chunk_requests
        )
        stream = TraceStream(source)
    else:
        trace = build_trace(config)
        if len(fleet) > 1 and _should_stripe(config, fleet, trace):
            trace = stripe_trace(
                trace, fleet, seed=int(opts.get("stripe_seed", 43))
            )
        if not trace.is_time_ordered():
            trace = trace.sorted_by_issue()
        stream = TraceStream.from_trace(trace, chunk_requests)

    engine = TraceReplayEngine(
        fleet,
        fast=fast,
        scheduler=policy,
        starvation_ms=None if starvation is None else float(starvation),
    )
    stats = run_service(
        engine, stream, slo_ms=slo_ms, queue_samples=queue_samples
    )
    result = RunResult.from_service(
        stats, scenario=config.name, traxtent=config.traxtent
    )
    if policy is not None:
        result.details["scheduler"] = engine.scheduler_name
    result.details["arrival_process"] = name if name in ARRIVALS else None
    result.details["replay_path"] = engine.last_replay_path
    result.details["fast_reason"] = engine.last_fast_reason
    return result


def run_scenario(config: ScenarioConfig, fast: bool | None = None) -> RunResult:
    """Run one declarative scenario and return its :class:`RunResult`.

    ``fast`` controls the replay implementation (see
    :class:`~repro.sim.engine.TraceReplayEngine`): ``None`` defers to the
    scenario's ``options["fast"]`` (itself defaulting to auto-selection of
    the columnar kernel), ``True``/``False`` override it for this run.  The
    flag is an execution knob, not part of the experiment's identity --
    results are bitwise identical either way.
    """
    if config.kind == "efficiency":
        return _run_efficiency(config)
    if config.kind == "service":
        return _run_service(config, fast=fast)
    return _run_replay(config, fast=fast)


#: Reserved payload key carrying the execution-level ``fast`` override to
#: campaign workers (popped before config validation; never hashed).
FAST_PAYLOAD_KEY = "__fast__"


def run_scenario_payload(data: Mapping[str, Any]) -> dict[str, Any]:
    """Run a scenario given as a plain dict; return the result as a plain dict.

    This is the single execution path shared by every campaign executor:
    the serial backend calls it in-process, the multiprocessing backend
    ships the dict to a worker (both sides stay picklable/JSON-clean, so
    workers > 1 is bitwise-identical to a serial loop).  A reserved
    ``"__fast__"`` key, when present, carries the execution-level kernel
    override and is not part of the scenario itself.
    """
    data = dict(data)
    fast = data.pop(FAST_PAYLOAD_KEY, None)
    return run_scenario(ScenarioConfig.from_dict(data), fast=fast).to_dict()


def compare_scenarios(a: ScenarioConfig, b: ScenarioConfig) -> Comparison:
    """Run two scenarios and diff their headline metrics.

    When the two differ only in the ``traxtent`` flag this is the paper's
    Figure-level aligned-vs-unaligned experiment, and the comparison's
    summary prints the traxtent win directly.
    """
    return Comparison.of(run_scenario(a), run_scenario(b))


# --------------------------------------------------------------------------- #
# Fluent builder
# --------------------------------------------------------------------------- #

class Scenario:
    """Fluent builder over :class:`ScenarioConfig`.

    Every mutator returns ``self``; :attr:`config` snapshots the current
    state as an immutable config, and :meth:`run` executes it.
    """

    def __init__(
        self, name: str | None = None, config: ScenarioConfig | None = None
    ):
        if config is None:
            self._config = ScenarioConfig(
                name=name if name is not None else "scenario"
            )
        elif name is None:
            self._config = config
        else:
            self._config = dataclasses.replace(config, name=name)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_config(cls, config: ScenarioConfig) -> "Scenario":
        return cls(config=config)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Scenario":
        return cls.from_config(ScenarioConfig.from_dict(data))

    @classmethod
    def load(cls, path: str) -> "Scenario":
        return cls.from_config(ScenarioConfig.load(path))

    # ------------------------------------------------------------------ #
    # Fluent mutators
    # ------------------------------------------------------------------ #
    def _replace(self, **changes: Any) -> "Scenario":
        self._config = dataclasses.replace(self._config, **changes)
        return self

    def drive(self, model: str | None = None, **knobs: Any) -> "Scenario":
        """Select the drive model and firmware knobs (see DriveConfig)."""
        current = self._config.drive.to_dict()
        if model is not None:
            current["model"] = model
        current.update(knobs)
        return self._replace(drive=DriveConfig.from_dict(current))

    def fleet(self, n_drives: int, striping: str = "lbn-range") -> "Scenario":
        """Replay against ``n_drives`` identical drives (LBN-range shard)."""
        return self._replace(
            fleet=FleetConfig(n_drives=n_drives, striping=striping)
        )

    def workload(
        self,
        name: str,
        interarrival_ms: float | None = None,
        start_ms: float = 0.0,
        **params: Any,
    ) -> "Scenario":
        """Select the workload generator; ``params`` override its config."""
        get_workload(name)  # fail fast on unknown names
        return self._replace(
            workload=WorkloadConfig(
                name=name,
                params=params,
                interarrival_ms=interarrival_ms,
                start_ms=start_ms,
            )
        )

    def traxtent(self, enabled: bool = True) -> "Scenario":
        """Master switch for track-aligned access."""
        return self._replace(traxtent=enabled)

    def open(self) -> "Scenario":
        """Open replay: requests issue at their trace timestamps."""
        return self._replace(mode="open")

    def closed(self, think_ms: float = 0.0) -> "Scenario":
        """Closed replay: one request outstanding per drive (onereq)."""
        return self._replace(mode="closed", think_ms=think_ms)

    def seed(self, value: int) -> "Scenario":
        """Seed override applied to seeded workload configs."""
        return self._replace(seed=value)

    def options(self, **extra: Any) -> "Scenario":
        """Merge kind-specific options (e.g. ``stripe=False``)."""
        merged = dict(self._config.options)
        merged.update(extra)
        return self._replace(options=merged)

    def scheduler(
        self,
        policy: str,
        starvation_ms: float | None = None,
        queue_depth: int | None = None,
    ) -> "Scenario":
        """Select the drive's dispatch-time scheduling policy.

        ``policy`` is a name from
        :func:`repro.disksim.sched.available_schedulers` (``fcfs``,
        ``sstf``, ``sptf``, ``clook``, ``traxtent``); ``starvation_ms``
        bounds how long any queued request may wait before it is dispatched
        regardless of the policy; ``queue_depth`` (closed replay only)
        keeps that many requests outstanding per drive so the policy has a
        queue to reorder.  Unlike :meth:`fast`, scheduling changes what the
        scenario *measures*, so all three knobs enter ``scenario_hash``.
        """
        get_scheduler(policy)  # fail fast on unknown names
        extra: dict[str, Any] = {"scheduler": str(policy).lower()}
        if starvation_ms is not None:
            extra["starvation_ms"] = float(starvation_ms)
        if queue_depth is not None:
            extra["queue_depth"] = int(queue_depth)
        return self.options(**extra)

    def fast(self, enabled: bool = True) -> "Scenario":
        """Enable the columnar replay kernel (or force the scalar path
        with ``False``).

        ``True`` behaves like the default auto-selection: the kernel runs
        whenever it is applicable and ineligible replays silently fall
        back to the exact scalar path.  Results are bitwise identical
        either way, so this knob exists for benchmarking and debugging;
        it is excluded from ``scenario_hash``.
        """
        return self.options(fast=enabled)

    def faults(self, schedule: "FaultConfig | Mapping[str, Any] | None") -> "Scenario":
        """Attach a seeded per-drive fault schedule (see :mod:`repro.faults`).

        Accepts a :class:`~repro.faults.FaultConfig` or its plain-dict
        form; ``None`` (or an empty schedule) removes fault injection.
        Unlike :meth:`fast`, faults change what the scenario *measures*,
        so the schedule enters ``scenario_hash``.
        """
        if schedule is not None and not isinstance(schedule, FaultConfig):
            schedule = FaultConfig.from_dict(schedule)
        return self._replace(faults=schedule)

    def service(
        self,
        arrivals: str | None = None,
        slo_ms: float = 50.0,
        chunk_requests: int | None = None,
        queue_samples: int | None = None,
        **params: Any,
    ) -> "Scenario":
        """Turn the scenario into an open-loop storage-service run.

        ``arrivals`` selects a seeded arrival process from
        :func:`repro.workloads.arrivals.available_arrivals` (``poisson``,
        ``bursty``, ``diurnal``, ``multiclient``) with ``params`` as its
        parameters; leave it ``None`` to stream the currently selected
        workload's trace instead.  ``slo_ms`` is the response-time target
        the SLO-violation fraction is counted against.
        """
        self._replace(kind="service", mode="open")
        if arrivals is not None:
            from ..workloads.arrivals import get_arrival

            get_arrival(arrivals)  # fail fast on unknown names
            self._replace(
                workload=WorkloadConfig(name=arrivals, params=params)
            )
        elif params:
            raise ConfigError(
                "service(): arrival parameters need an arrival process name"
            )
        extra: dict[str, Any] = {"slo_ms": float(slo_ms)}
        if chunk_requests is not None:
            extra["chunk_requests"] = int(chunk_requests)
        if queue_samples is not None:
            extra["queue_samples"] = int(queue_samples)
        return self.options(**extra)

    def efficiency(
        self,
        sizes_sectors: list[int] | None = None,
        queue_depth: int = 2,
        n_requests: int = 500,
        op: str = "read",
        zone_index: int = 0,
    ) -> "Scenario":
        """Turn the scenario into an efficiency-curve sweep (Figures 1/6/8)."""
        self._replace(kind="efficiency")
        return self.options(
            sizes_sectors=list(sizes_sectors) if sizes_sectors else None,
            queue_depth=queue_depth,
            n_requests=n_requests,
            op=op,
            zone_index=zone_index,
        )

    # ------------------------------------------------------------------ #
    # Materialisation
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> ScenarioConfig:
        """Immutable snapshot of the scenario."""
        return self._config

    def to_dict(self) -> dict[str, Any]:
        return self._config.to_dict()

    def to_json(self, indent: int = 2) -> str:
        return self._config.to_json(indent=indent)

    def save(self, path: str) -> None:
        self._config.save(path)

    def build_drive(self) -> DiskDrive:
        """One drive wired from the scenario's drive config."""
        return build_drive(self._config.drive)

    def build_fleet(self) -> LbnRangeShard:
        """The scenario's full sharded fleet."""
        return build_fleet(self._config.fleet, self._config.drive)

    def build_trace(self) -> Trace:
        """The scenario's workload materialised as a trace."""
        return build_trace(self._config)

    def run(self) -> RunResult:
        """Execute the scenario."""
        return run_scenario(self._config)

    def compare(self, other: "Scenario | ScenarioConfig") -> Comparison:
        """Run this scenario against another and diff the metrics."""
        other_config = other.config if isinstance(other, Scenario) else other
        return compare_scenarios(self._config, other_config)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cfg = self._config
        return (
            f"Scenario({cfg.name!r}, kind={cfg.kind!r}, "
            f"workload={cfg.workload.name!r}, drives={cfg.fleet.n_drives}, "
            f"traxtent={cfg.traxtent})"
        )


__all__ = [
    "ConfigError",
    "FAST_PAYLOAD_KEY",
    "Scenario",
    "build_trace",
    "compare_scenarios",
    "run_scenario",
    "run_scenario_payload",
    "stripe_trace",
]
