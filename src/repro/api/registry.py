"""Name-based workload registry: one lookup for every request source.

A *workload generator* is any class with the uniform surface the four
generators in :mod:`repro.workloads` share:

* ``name`` -- the registry key,
* ``default_config()`` -- classmethod returning its config dataclass,
* ``trace(drive, config, *, traxtent, interarrival_ms, start_ms)`` --
  classmethod materialising the request stream as a
  :class:`repro.sim.Trace`.

The registry pre-loads the four evaluation workloads (postmark, sshbuild,
filebench, synthetic) plus three raw sources built directly on
:mod:`repro.core.access` and :mod:`repro.sim.trace`: ``sequential``
(fixed-size sequential streams), ``raw`` (explicit records, inline or
from a JSON file) and ``raw-file`` (blktrace-style text trace files via
:mod:`repro.sim.importers`).  New generators register with
:func:`register_workload`, usable as a decorator.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from ..core.access import sequential_requests
from ..disksim.drive import DiskDrive
from ..sim.trace import Trace
from ..workloads import GENERATORS
from .config import ConfigError


class UnknownWorkloadError(ConfigError):
    """The requested workload name is not registered."""


# --------------------------------------------------------------------------- #
# Raw sources (no generator machinery, straight to a Trace)
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class SequentialConfig:
    """A sequential stream of fixed-size requests over one LBN range."""

    first_lbn: int = 0
    total_sectors: int = 65536
    request_sectors: int = 128
    op: str = "read"


class Sequential:
    """Sequential fixed-size requests (access-shaping source)."""

    name = "sequential"

    @classmethod
    def default_config(cls) -> SequentialConfig:
        return SequentialConfig()

    @classmethod
    def trace(
        cls,
        drive: DiskDrive,
        config: SequentialConfig | None = None,
        *,
        traxtent: bool = False,
        interarrival_ms: float | None = None,
        start_ms: float = 0.0,
    ) -> Trace:
        config = config if config is not None else SequentialConfig()
        requests = sequential_requests(
            config.first_lbn, config.total_sectors, config.request_sectors, config.op
        )
        return Trace.from_requests(
            requests,
            interarrival_ms=interarrival_ms if interarrival_ms is not None else 0.0,
            start_ms=start_ms,
        )


@dataclass(frozen=True)
class RawTraceConfig:
    """An explicit request stream: inline records or a JSON trace file.

    ``records`` is a sequence of ``[issue_ms, lbn, count, op]`` rows;
    ``path`` points at a JSON file holding either such a list or an object
    with an equivalent ``records`` key.  When both are given the inline
    records win.
    """

    records: tuple = ()
    path: str | None = None


class RawTrace:
    """Replay an explicit, already-captured request stream."""

    name = "raw"

    @classmethod
    def default_config(cls) -> RawTraceConfig:
        return RawTraceConfig()

    @classmethod
    def trace(
        cls,
        drive: DiskDrive,
        config: RawTraceConfig | None = None,
        *,
        traxtent: bool = False,
        interarrival_ms: float | None = None,
        start_ms: float = 0.0,
    ) -> Trace:
        config = config if config is not None else RawTraceConfig()
        records = config.records
        if not records:
            if config.path is None:
                raise ConfigError("raw workload needs 'records' or 'path'")
            with open(config.path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            if isinstance(data, dict):
                data = data.get("records", [])
            records = data
        # Every column reaches the replay as written: its row check refuses
        # a bad row and names it (``request #<index>: ...``).
        times, lbns, counts, ops = [], [], [], []
        for issue_ms, lbn, count, op in records:
            times.append(issue_ms)
            lbns.append(lbn)
            counts.append(count)
            ops.append(op)
        trace = Trace(times, lbns, counts, ops)
        if interarrival_ms is not None or start_ms:
            # New timestamps would hide the written ones from that check
            # (and a shift would trip over text): run it here first.
            from ..sim.stream import _check_rows

            _check_rows(None, None, trace)
        if interarrival_ms is not None:
            trace.issue_ms = [
                start_ms + i * interarrival_ms for i in range(len(trace))
            ]
        elif start_ms:
            trace.shift_to(start_ms)
        return trace


@dataclass(frozen=True)
class RawFileConfig:
    """A blktrace-style text trace file (``ts dev lbn nblocks R|W``).

    ``sort`` normalizes an unordered capture into issue order (open
    replay and streaming require non-decreasing timestamps).
    """

    path: str | None = None
    sort: bool = False


class RawFile:
    """Replay an external blktrace-style text trace file."""

    name = "raw-file"

    @classmethod
    def default_config(cls) -> RawFileConfig:
        return RawFileConfig()

    @classmethod
    def trace(
        cls,
        drive: DiskDrive,
        config: RawFileConfig | None = None,
        *,
        traxtent: bool = False,
        interarrival_ms: float | None = None,
        start_ms: float = 0.0,
    ) -> Trace:
        from ..sim.importers import import_blktrace

        config = config if config is not None else RawFileConfig()
        if config.path is None:
            raise ConfigError("raw-file workload needs 'path'")
        trace = import_blktrace(config.path)
        if config.sort and not trace.is_time_ordered():
            trace = trace.sorted_by_issue()
        if interarrival_ms is not None:
            trace.issue_ms = [
                start_ms + i * interarrival_ms for i in range(len(trace))
            ]
        elif start_ms:
            trace.shift_to(start_ms)
        return trace


# --------------------------------------------------------------------------- #
# The registry
# --------------------------------------------------------------------------- #

_REGISTRY: dict[str, type] = {}


def register_workload(generator: type) -> type:
    """Register a workload generator class (usable as a decorator).

    The class must expose the uniform surface: ``name``,
    ``default_config()`` and ``trace()``.
    """
    for attribute in ("name", "default_config", "trace"):
        if not hasattr(generator, attribute):
            raise ConfigError(
                f"workload generator {generator!r} lacks required "
                f"attribute {attribute!r}"
            )
    _REGISTRY[generator.name] = generator
    return generator


def get_workload(name: str) -> type:
    """Look up a workload generator by registry name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownWorkloadError(
            f"unknown workload {name!r}; registered workloads: {known}"
        ) from None


def available_workloads() -> list[str]:
    """Sorted names of every registered workload generator."""
    return sorted(_REGISTRY)


def workload_config(name: str, params: dict | None = None):
    """Build a generator's config dataclass from a plain parameter dict.

    Unknown parameter names raise :class:`ConfigError` naming the valid
    fields, so a typo in a scenario file fails loudly.
    """
    generator = get_workload(name)
    default = generator.default_config()
    if not params:
        return default
    known = {f.name for f in dataclasses.fields(default)}
    unknown = sorted(set(params) - known)
    if unknown:
        raise ConfigError(
            f"workload {name!r}: unknown parameters {unknown}; "
            f"valid parameters: {sorted(known)}"
        )
    return dataclasses.replace(default, **params)


for _generator in GENERATORS:
    register_workload(_generator)
register_workload(Sequential)
register_workload(RawTrace)
register_workload(RawFile)


__all__ = [
    "RawFile",
    "RawFileConfig",
    "RawTrace",
    "RawTraceConfig",
    "Sequential",
    "SequentialConfig",
    "UnknownWorkloadError",
    "available_workloads",
    "get_workload",
    "register_workload",
    "workload_config",
]
