"""Exception hierarchy for the disk simulator.

All simulator-raised errors derive from :class:`DiskSimError` so callers can
catch simulator problems without accidentally swallowing programming errors.
"""

from __future__ import annotations


class DiskSimError(Exception):
    """Base class for all disk-simulator errors."""


class AddressError(DiskSimError):
    """An LBN or physical address is outside the device's valid range."""


class GeometryError(DiskSimError):
    """The requested geometry is internally inconsistent.

    Raised, for example, when a zone table does not cover every cylinder or
    when zones overlap.
    """


class RequestError(DiskSimError):
    """A disk request is malformed (zero length, bad opcode, bad timing).

    Every refusal of a request row is worded by one rule,
    :func:`repro.disksim.drive.row_problem`; the replay raises this error
    for any bad row, timestamp included, as ``request #<index>: ...``.
    """


class ConfigError(DiskSimError):
    """A configuration or input stream is malformed.

    Raised by the scenario configuration layer (:mod:`repro.api.config`
    re-exports this class), by the arrival-process and service validators
    in :mod:`repro.workloads.arrivals` and :mod:`repro.sim.stream`, and by
    the blktrace importer (:mod:`repro.sim.importers`), which names the
    offending line of a malformed trace file.  A malformed request row that
    reaches a replay raises :class:`RequestError` instead.  The
    fault-injection layer (:mod:`repro.faults`) raises it for malformed
    fault schedules and for schedules attached where they cannot act
    (efficiency scenarios, out-of-range drive indices).
    """


class MediaError(DiskSimError):
    """An access touched a defective sector that is neither slipped nor
    remapped (i.e., an unhandled grown defect)."""


class SpecError(DiskSimError):
    """A drive specification is missing required parameters or a named
    drive model is unknown."""
