"""Disk-drive simulation substrate for the traxtents reproduction.

The subpackage models everything the paper's experiments need from a
physical disk: zoned geometry with defect management, seek and rotational
mechanics (including zero-latency access), firmware caching and prefetch,
SCSI bus transfer, command queueing, and the SCSI query commands used by
DIXtrac-style characterisation.

Typical entry point::

    from repro.disksim import DiskDrive

    drive = DiskDrive.for_model("Quantum Atlas 10K II")
    done = drive.read(lbn=0, count=528, issue_time=0.0)
    print(done.response_time, done.seek_ms, done.rotational_latency_ms)
"""

from .bus import BusModel, BusResult
from .cache import CacheLookup, FirmwareCache
from .defects import Defect, DefectHandling, DefectList
from .drive import (
    READ,
    WRITE,
    CompletedRequest,
    DiskDrive,
    DiskRequest,
    DriveStats,
)
from .errors import (
    AddressError,
    DiskSimError,
    GeometryError,
    MediaError,
    RequestError,
    SpecError,
)
from .geometry import DiskGeometry, PhysicalAddress, TrackExtent, Zone, default_zones
from .mechanics import (
    ArcAccess,
    MediaRun,
    access_arc,
    expected_access_ms,
    expected_rotational_latency_ms,
)
from .queueing import WorkloadResult, run_onereq, run_round, run_tworeq
from .sched import (
    CLOOKScheduler,
    FCFSScheduler,
    QueuedRequest,
    SPTFScheduler,
    SSTFScheduler,
    Scheduler,
    SchedulerError,
    TraxtentBatchScheduler,
    available_schedulers,
    get_scheduler,
    make_scheduler,
)
from .scsi import ScsiCounters, ScsiInterface
from .seek import SeekCurve
from .specs import (
    SECTOR_SIZE,
    TABLE1_ORDER,
    DiskSpecs,
    SpareScheme,
    available_models,
    get_specs,
    small_test_specs,
)

__all__ = [
    "AddressError",
    "ArcAccess",
    "BusModel",
    "BusResult",
    "CLOOKScheduler",
    "CacheLookup",
    "CompletedRequest",
    "Defect",
    "DefectHandling",
    "DefectList",
    "DiskDrive",
    "DiskGeometry",
    "DiskRequest",
    "DiskSimError",
    "DiskSpecs",
    "DriveStats",
    "FCFSScheduler",
    "FirmwareCache",
    "GeometryError",
    "MediaError",
    "MediaRun",
    "PhysicalAddress",
    "QueuedRequest",
    "READ",
    "RequestError",
    "SECTOR_SIZE",
    "SPTFScheduler",
    "SSTFScheduler",
    "Scheduler",
    "SchedulerError",
    "ScsiCounters",
    "ScsiInterface",
    "SeekCurve",
    "SpareScheme",
    "SpecError",
    "TABLE1_ORDER",
    "TrackExtent",
    "TraxtentBatchScheduler",
    "WRITE",
    "WorkloadResult",
    "Zone",
    "access_arc",
    "available_models",
    "available_schedulers",
    "default_zones",
    "expected_access_ms",
    "expected_rotational_latency_ms",
    "get_scheduler",
    "get_specs",
    "make_scheduler",
    "run_onereq",
    "run_round",
    "run_tworeq",
    "small_test_specs",
]
