"""repro.faults -- seeded, deterministic fault injection for drives and fleets.

The paper's measurements all assume healthy drives; production disks throw
media errors, slow down, grow defects and fail-stop.  This module gives the
stack a declarative failure model:

* :class:`FaultConfig` -- a JSON-round-tripping fault schedule, hashed into
  ``scenario_hash`` (attaching faults changes the result identity; a config
  with no faults is indistinguishable from one without a ``faults`` key),
* :class:`DriveFaultState` -- the per-drive runtime: a seeded RNG, the
  grown-defect remap ledger, an optional spare drive and the
  :class:`FaultStats` accounting, restored losslessly by ``reset()``,
* :func:`attach_fleet_faults` / :func:`fleet_fault_extras` -- wiring and
  aggregation helpers used by the engine and streaming layers.

Four fault kinds are modelled (see :data:`FAULT_KINDS`):

* **transient** -- a media error with probability ``probability`` per
  media-touching request; firmware retries ``1..max_retries`` times (seeded,
  deterministic), each retry costing one full rotation,
* **grown-defect** -- at ``at_ms`` the LBN range ``[lbn, lbn+sectors)``
  becomes defective; the first access pays ``retries`` rotations while
  firmware recovers and remaps, every later access pays one revector
  rotation,
* **slowdown** -- inside ``[start_ms, end_ms)`` positioning (seek + settle)
  is degraded by ``factor``,
* **fail-stop** -- from ``fail_stop_ms`` on, the drive answers nothing:
  requests fail (accounted, zero service) or are redirected to a configured
  spare drive.

Total recovery rotations per request are bounded by ``retry_budget``;
exceeding it fails the request (the rotations already spent are still
charged).  All randomness comes from ``random.Random`` seeded from
``(seed, drive_index)``, advanced once per serviced request in service
order, so results are bitwise identical across ``--workers 1`` vs ``-4``
and across re-runs.

Determinism contract: with faults attached every execution path collapses
to the exact scalar service loop (the columnar kernels refuse with
``last_fast_reason == "fault injection active"``), so there is exactly one
code path that can produce numbers.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from .disksim.errors import ConfigError

__all__ = [
    "FAULT_KINDS",
    "DriveFaultConfig",
    "DriveFaultState",
    "FaultConfig",
    "FaultStats",
    "GrownDefectConfig",
    "SlowdownConfig",
    "TransientFaultConfig",
    "attach_fleet_faults",
    "available_fault_kinds",
    "fleet_fault_extras",
]


# --------------------------------------------------------------------------- #
# Fault-model registry (advertised by ``python -m repro list --json``)
# --------------------------------------------------------------------------- #

FAULT_KINDS: tuple[dict, ...] = (
    {
        "name": "transient",
        "description": "probabilistic media error; firmware retries cost "
                       "one rotation each, bounded by the retry budget",
        "params": {"probability": 0.0, "max_retries": 3},
    },
    {
        "name": "grown-defect",
        "description": "an LBN range turns defective at a scheduled time; "
                       "first access recovers and remaps, later accesses "
                       "pay one revector rotation",
        "params": {"at_ms": 0.0, "lbn": 0, "sectors": 1, "retries": 3},
    },
    {
        "name": "slowdown",
        "description": "seek+settle degraded by a factor inside a window",
        "params": {"start_ms": 0.0, "end_ms": 0.0, "factor": 1.0},
    },
    {
        "name": "fail-stop",
        "description": "drive answers nothing from time T on; requests "
                       "fail (accounted) or redirect to a spare",
        "params": {"fail_stop_ms": None, "spare": False},
    },
)


def available_fault_kinds() -> list[str]:
    """Names of the modelled fault kinds."""
    return [kind["name"] for kind in FAULT_KINDS]


# --------------------------------------------------------------------------- #
# Declarative schedule (frozen, JSON round-tripping)
# --------------------------------------------------------------------------- #

def _check_fields(data: Mapping, allowed: set, where: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(
            f"{where}: unknown fields {unknown}; valid fields: {sorted(allowed)}"
        )


@dataclass(frozen=True)
class TransientFaultConfig:
    """Probabilistic transient media errors with a firmware retry model."""

    probability: float = 0.0
    max_retries: int = 3

    def __post_init__(self) -> None:
        if not (0.0 <= self.probability <= 1.0):
            raise ConfigError(
                f"transient probability must be in [0, 1]: {self.probability}"
            )
        if self.max_retries < 1:
            raise ConfigError(
                f"transient max_retries must be >= 1: {self.max_retries}"
            )

    def to_dict(self) -> dict:
        return {"probability": self.probability, "max_retries": self.max_retries}

    @classmethod
    def from_dict(cls, data: Mapping) -> "TransientFaultConfig":
        _check_fields(data, {"probability", "max_retries"}, "faults.transient")
        return cls(
            probability=float(data.get("probability", 0.0)),
            max_retries=int(data.get("max_retries", 3)),
        )


@dataclass(frozen=True)
class GrownDefectConfig:
    """An LBN range that turns defective at ``at_ms``."""

    at_ms: float = 0.0
    lbn: int = 0
    sectors: int = 1
    retries: int = 3

    def __post_init__(self) -> None:
        if self.at_ms < 0.0:
            raise ConfigError(f"grown defect at_ms must be >= 0: {self.at_ms}")
        if self.lbn < 0:
            raise ConfigError(f"grown defect lbn must be >= 0: {self.lbn}")
        if self.sectors < 1:
            raise ConfigError(f"grown defect sectors must be >= 1: {self.sectors}")
        if self.retries < 0:
            raise ConfigError(f"grown defect retries must be >= 0: {self.retries}")

    def to_dict(self) -> dict:
        return {
            "at_ms": self.at_ms,
            "lbn": self.lbn,
            "sectors": self.sectors,
            "retries": self.retries,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "GrownDefectConfig":
        _check_fields(
            data, {"at_ms", "lbn", "sectors", "retries"}, "faults.grown_defects"
        )
        return cls(
            at_ms=float(data.get("at_ms", 0.0)),
            lbn=int(data.get("lbn", 0)),
            sectors=int(data.get("sectors", 1)),
            retries=int(data.get("retries", 3)),
        )


@dataclass(frozen=True)
class SlowdownConfig:
    """A window in which positioning (seek + settle) is degraded."""

    start_ms: float = 0.0
    end_ms: float = 0.0
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.start_ms < 0.0:
            raise ConfigError(f"slowdown start_ms must be >= 0: {self.start_ms}")
        if self.end_ms <= self.start_ms:
            raise ConfigError(
                f"slowdown window must be non-empty: "
                f"[{self.start_ms}, {self.end_ms})"
            )
        if self.factor < 1.0:
            raise ConfigError(f"slowdown factor must be >= 1: {self.factor}")

    def to_dict(self) -> dict:
        return {"start_ms": self.start_ms, "end_ms": self.end_ms,
                "factor": self.factor}

    @classmethod
    def from_dict(cls, data: Mapping) -> "SlowdownConfig":
        _check_fields(data, {"start_ms", "end_ms", "factor"}, "faults.slowdowns")
        return cls(
            start_ms=float(data.get("start_ms", 0.0)),
            end_ms=float(data.get("end_ms", 0.0)),
            factor=float(data.get("factor", 1.0)),
        )


@dataclass(frozen=True)
class DriveFaultConfig:
    """The fault schedule for one drive of a fleet."""

    fail_stop_ms: float | None = None
    spare: bool = False
    transient: TransientFaultConfig | None = None
    grown_defects: tuple = ()
    slowdowns: tuple = ()

    def __post_init__(self) -> None:
        if self.fail_stop_ms is not None and self.fail_stop_ms < 0.0:
            raise ConfigError(
                f"fail_stop_ms must be >= 0: {self.fail_stop_ms}"
            )
        if self.spare and self.fail_stop_ms is None:
            raise ConfigError(
                "spare=true without fail_stop_ms: a spare only takes over "
                "after a fail-stop"
            )
        object.__setattr__(self, "grown_defects", tuple(self.grown_defects))
        object.__setattr__(self, "slowdowns", tuple(self.slowdowns))
        for defect in self.grown_defects:
            if not isinstance(defect, GrownDefectConfig):
                raise ConfigError(
                    f"grown_defects entries must be GrownDefectConfig: {defect!r}"
                )
        for window in self.slowdowns:
            if not isinstance(window, SlowdownConfig):
                raise ConfigError(
                    f"slowdowns entries must be SlowdownConfig: {window!r}"
                )

    def is_empty(self) -> bool:
        """True when this schedule declares no fault at all."""
        return (
            self.fail_stop_ms is None
            and self.transient is None
            and not self.grown_defects
            and not self.slowdowns
        )

    def to_dict(self) -> dict:
        data: dict = {}
        if self.fail_stop_ms is not None:
            data["fail_stop_ms"] = self.fail_stop_ms
        if self.spare:
            data["spare"] = True
        if self.transient is not None:
            data["transient"] = self.transient.to_dict()
        if self.grown_defects:
            data["grown_defects"] = [d.to_dict() for d in self.grown_defects]
        if self.slowdowns:
            data["slowdowns"] = [w.to_dict() for w in self.slowdowns]
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "DriveFaultConfig":
        _check_fields(
            data,
            {"fail_stop_ms", "spare", "transient", "grown_defects", "slowdowns"},
            "faults.drives",
        )
        transient = data.get("transient")
        return cls(
            fail_stop_ms=(
                float(data["fail_stop_ms"])
                if data.get("fail_stop_ms") is not None else None
            ),
            spare=bool(data.get("spare", False)),
            transient=(
                TransientFaultConfig.from_dict(transient)
                if transient is not None else None
            ),
            grown_defects=tuple(
                GrownDefectConfig.from_dict(d)
                for d in data.get("grown_defects", ())
            ),
            slowdowns=tuple(
                SlowdownConfig.from_dict(w) for w in data.get("slowdowns", ())
            ),
        )


@dataclass(frozen=True)
class FaultConfig:
    """A seeded fault schedule over the drives of a fleet.

    ``drives`` maps a drive index (0-based position in the fleet) to its
    :class:`DriveFaultConfig`.  ``seed`` feeds the per-drive RNGs;
    ``retry_budget`` bounds total recovery rotations per request.
    """

    seed: int = 0
    retry_budget: int = 8
    drives: Mapping[int, DriveFaultConfig] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.retry_budget < 1:
            raise ConfigError(f"retry_budget must be >= 1: {self.retry_budget}")
        normalized: dict[int, DriveFaultConfig] = {}
        for index, entry in dict(self.drives).items():
            idx = int(index)
            if idx < 0:
                raise ConfigError(f"drive index must be >= 0: {index}")
            if not isinstance(entry, DriveFaultConfig):
                raise ConfigError(
                    f"drives[{index}] must be a DriveFaultConfig: {entry!r}"
                )
            normalized[idx] = entry
        object.__setattr__(self, "drives", normalized)

    def is_empty(self) -> bool:
        """True when no drive declares any fault (hash-equivalent to no
        ``faults`` key at all -- the config layer normalizes this to None)."""
        return all(entry.is_empty() for entry in self.drives.values())

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "retry_budget": self.retry_budget,
            "drives": {
                str(index): self.drives[index].to_dict()
                for index in sorted(self.drives)
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultConfig":
        _check_fields(data, {"seed", "retry_budget", "drives"}, "faults")
        return cls(
            seed=int(data.get("seed", 0)),
            retry_budget=int(data.get("retry_budget", 8)),
            drives={
                int(index): DriveFaultConfig.from_dict(entry)
                for index, entry in dict(data.get("drives", {})).items()
            },
        )


# --------------------------------------------------------------------------- #
# Runtime state
# --------------------------------------------------------------------------- #

@dataclass
class FaultStats:
    """Per-drive fault accounting (mirrors :class:`DriveStats` style)."""

    transient_errors: int = 0
    retries: int = 0
    failed_requests: int = 0
    redirected_requests: int = 0
    recovery_ms: float = 0.0
    slowdown_ms: float = 0.0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _drive_rng_seed(seed: int, drive_index: int) -> int:
    # Distinct, stable stream per (campaign seed, drive) pair.
    return ((int(seed) & 0xFFFFFFFF) << 20) ^ (drive_index * 0x9E3779B1)


class DriveFaultState:
    """Runtime fault state attached to one :class:`DiskDrive`.

    Holds the schedule, the seeded RNG, the grown-defect remap ledger, the
    optional spare drive and the :class:`FaultStats`.  ``reset()`` restores
    all of it, so a reset drive replays bitwise-identically.
    """

    def __init__(
        self,
        config: DriveFaultConfig,
        *,
        seed: int,
        retry_budget: int,
        drive_index: int = 0,
        spare=None,
    ) -> None:
        if config.spare and spare is None:
            raise ConfigError(
                f"drive {drive_index}: config requests a spare but none "
                "was provided (pass a spare_factory to attach_fleet_faults)"
            )
        self.config = config
        self.seed = int(seed)
        self.retry_budget = int(retry_budget)
        self.drive_index = int(drive_index)
        self.spare = spare
        self.stats = FaultStats()
        self.rng = random.Random(_drive_rng_seed(self.seed, self.drive_index))
        self._remapped: set[int] = set()

    def reset(self) -> None:
        """Restore the power-on fault state (stats, RNG, remap ledger,
        spare drive)."""
        self.stats = FaultStats()
        self.rng = random.Random(_drive_rng_seed(self.seed, self.drive_index))
        self._remapped.clear()
        if self.spare is not None:
            self.spare.reset()

    # -- per-request policy hooks (called by DiskDrive.submit) ------------- #

    def failed_stop(self, issue_time: float) -> bool:
        """True when the drive has fail-stopped at ``issue_time``."""
        stop = self.config.fail_stop_ms
        return stop is not None and issue_time >= stop

    def slowdown_factor(self, mech_start: float) -> float:
        """The degradation factor active at ``mech_start`` (1.0 = none)."""
        factor = 1.0
        for window in self.config.slowdowns:
            if window.start_ms <= mech_start < window.end_ms:
                factor = max(factor, window.factor)
        return factor

    def grown_defect_rotations(self, lbn: int, count: int, now: float) -> int:
        """Recovery rotations owed for grown defects overlapping the
        request's LBN range at time ``now``.  First touch recovers and
        remaps (``retries`` rotations); later touches pay one revector
        rotation."""
        rotations = 0
        end = lbn + count
        for index, defect in enumerate(self.config.grown_defects):
            if now < defect.at_ms:
                continue
            if defect.lbn >= end or defect.lbn + defect.sectors <= lbn:
                continue
            if index in self._remapped:
                rotations += 1
            else:
                rotations += defect.retries
                self._remapped.add(index)
        return rotations

    def transient_rotations(self) -> tuple[int, bool]:
        """Seeded transient-error draw for one media-touching request.

        Returns ``(retry_rotations, errored)``; advances the RNG exactly
        once (twice on an error) so the stream is a pure function of the
        service order."""
        transient = self.config.transient
        if transient is None or transient.probability <= 0.0:
            return 0, False
        if self.rng.random() >= transient.probability:
            return 0, False
        return self.rng.randint(1, transient.max_retries), True


# --------------------------------------------------------------------------- #
# Fleet wiring and aggregation
# --------------------------------------------------------------------------- #

def attach_fleet_faults(
    fleet,
    config: FaultConfig,
    spare_factory: "Callable[[], Any] | None" = None,
) -> None:
    """Attach per-drive fault state to ``fleet`` per ``config``.

    ``fleet`` is anything with a ``drives`` sequence of :class:`DiskDrive`
    (an ``LbnRangeShard`` or a bare list).  ``spare_factory`` builds a fresh
    spare drive for every entry with ``spare=True``; omitting it while the
    schedule requests a spare raises :class:`ConfigError`.
    """
    drives = list(fleet.drives) if hasattr(fleet, "drives") else list(fleet)
    for index, entry in sorted(config.drives.items()):
        if index >= len(drives):
            raise ConfigError(
                f"faults.drives[{index}]: fleet only has "
                f"{len(drives)} drive(s)"
            )
        if entry.is_empty():
            continue
        spare = None
        if entry.spare:
            if spare_factory is None:
                raise ConfigError(
                    f"faults.drives[{index}]: spare=true needs a "
                    "spare_factory"
                )
            spare = spare_factory()
        drives[index].attach_faults(
            DriveFaultState(
                entry,
                seed=config.seed,
                retry_budget=config.retry_budget,
                drive_index=index,
                spare=spare,
            )
        )


def fleet_fault_extras(fleet) -> dict[str, float]:
    """Summed fault counters over a fleet's drives, as ``ReplayStats.extras``
    entries.  Returns ``{}`` when no drive has fault state attached, so
    fault-free replays stay byte-identical to pre-fault output."""
    drives = list(fleet.drives) if hasattr(fleet, "drives") else list(fleet)
    states = [d.faults for d in drives if getattr(d, "faults", None) is not None]
    if not states:
        return {}
    total = FaultStats()
    for state in states:
        stats = state.stats
        total.transient_errors += stats.transient_errors
        total.retries += stats.retries
        total.failed_requests += stats.failed_requests
        total.redirected_requests += stats.redirected_requests
        total.recovery_ms += stats.recovery_ms
        total.slowdown_ms += stats.slowdown_ms
    return {
        "fault_transient_errors": float(total.transient_errors),
        "fault_retries": float(total.retries),
        "fault_failed_requests": float(total.failed_requests),
        "fault_redirected_requests": float(total.redirected_requests),
        "fault_recovery_ms": total.recovery_ms,
        "fault_slowdown_ms": total.slowdown_ms,
    }
