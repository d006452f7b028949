"""Disk drive specification database.

The paper (Table 1 and Section 5.1) evaluates track-aligned access on a set
of late-1990s / 2000-era SCSI drives.  This module captures their published
characteristics in :class:`DiskSpecs` objects and exposes them through
:func:`get_specs`.

Only parameters that influence request timing or the logical-to-physical
mapping are modelled:

* spindle speed (RPM) and thus rotation time,
* head-switch (track-switch) time,
* seek-time curve anchors (single-cylinder, average, full-stroke),
* zoned recording (sectors per track in the outermost and innermost zone,
  number of zones),
* total number of tracks and recording surfaces,
* zero-latency (access-on-arrival) support,
* host bus transfer rate and per-command overhead,
* firmware cache geometry (segments and read-ahead),
* spare-space scheme used for defect management.

Values not published in the paper (e.g. single-cylinder seek time) follow
the conventions used by DiskSim-era models and are chosen so that the
derived quantities the paper *does* report (average seek inside the first
zone, track sizes, streaming efficiency) are matched.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import SpecError

#: Bytes in one (logical) disk sector.
SECTOR_SIZE = 512

#: Milliseconds per minute, used when converting RPM to rotation time.
_MS_PER_MINUTE = 60_000.0


class SpareScheme:
    """Enumeration of spare-space management schemes (Section 3.1).

    The paper notes more than ten distinct schemes across drive models; the
    four below cover the behaviours that matter for LBN-mapping extraction:
    spare sectors at the end of every track, spare sectors at the end of
    every cylinder, whole spare tracks at the end of every zone, and no
    visible sparing (spares outside the addressable area).
    """

    NONE = "none"
    SECTORS_PER_TRACK = "sectors_per_track"
    SECTORS_PER_CYLINDER = "sectors_per_cylinder"
    TRACKS_PER_ZONE = "tracks_per_zone"

    ALL = (NONE, SECTORS_PER_TRACK, SECTORS_PER_CYLINDER, TRACKS_PER_ZONE)


@dataclass(frozen=True)
class DiskSpecs:
    """Static characteristics of one disk drive model."""

    name: str
    year: int
    rpm: int
    head_switch_ms: float
    avg_seek_ms: float
    max_sectors_per_track: int
    min_sectors_per_track: int
    num_tracks: int
    surfaces: int
    capacity_gb: float
    zero_latency: bool
    bus_mb_per_s: float = 160.0
    num_zones: int = 12
    single_cylinder_seek_ms: float = 0.6
    full_stroke_seek_ms: float | None = None
    command_overhead_ms: float = 0.2
    write_settle_ms: float = 1.2
    cache_segments: int = 10
    cache_readahead_tracks: float = 2.0
    spare_scheme: str = SpareScheme.SECTORS_PER_CYLINDER
    spare_count: int = 10

    def __post_init__(self) -> None:
        if self.rpm <= 0:
            raise SpecError(f"{self.name}: rpm must be positive")
        if self.surfaces <= 0:
            raise SpecError(f"{self.name}: surfaces must be positive")
        if self.num_tracks % self.surfaces:
            raise SpecError(
                f"{self.name}: num_tracks ({self.num_tracks}) must be a "
                f"multiple of surfaces ({self.surfaces})"
            )
        if self.min_sectors_per_track > self.max_sectors_per_track:
            raise SpecError(f"{self.name}: min SPT exceeds max SPT")
        if self.spare_scheme not in SpareScheme.ALL:
            raise SpecError(f"{self.name}: unknown spare scheme {self.spare_scheme}")
        if self.full_stroke_seek_ms is None:
            # Conventional rule of thumb: full-stroke seek is a bit more
            # than twice the average seek.
            object.__setattr__(self, "full_stroke_seek_ms", 2.1 * self.avg_seek_ms)

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def rotation_ms(self) -> float:
        """Time of one full platter revolution in milliseconds."""
        return _MS_PER_MINUTE / self.rpm

    @property
    def cylinders(self) -> int:
        """Number of cylinders (tracks per surface)."""
        return self.num_tracks // self.surfaces

    @property
    def avg_rotational_latency_ms(self) -> float:
        """Expected rotational latency of an ordinary (non-zero-latency)
        access: half a revolution."""
        return self.rotation_ms / 2.0

    @property
    def max_track_bytes(self) -> int:
        """Capacity of one track in the outermost (fastest) zone."""
        return self.max_sectors_per_track * SECTOR_SIZE

    @property
    def peak_media_rate_mb_s(self) -> float:
        """Peak media transfer rate (outer zone), in MB/s."""
        return (self.max_track_bytes / 1e6) / (self.rotation_ms / 1e3)

    def sector_time_ms(self, sectors_per_track: int) -> float:
        """Time for one sector to pass under the head on a track with
        ``sectors_per_track`` sectors."""
        return self.rotation_ms / sectors_per_track

    def track_skew_sectors(self, sectors_per_track: int) -> int:
        """Track skew, in sectors, for a track of the given size.

        Skew is sized so that a head switch completes just before the first
        logical sector of the next track arrives under the new head (plus a
        one-sector safety margin), which is how real drives maximise
        streaming bandwidth (Figure 2 of the paper).
        """
        per_sector = self.sector_time_ms(sectors_per_track)
        return int(self.head_switch_ms / per_sector) + 2

    def cylinder_skew_sectors(self, sectors_per_track: int) -> int:
        """Cylinder skew, in sectors: covers a single-cylinder seek plus
        head selection."""
        per_sector = self.sector_time_ms(sectors_per_track)
        switch = self.head_switch_ms + self.single_cylinder_seek_ms
        return int(switch / per_sector) + 2

    def scaled(self, **overrides: object) -> "DiskSpecs":
        """Return a copy of this spec with selected fields overridden.

        Useful for building reduced-capacity drives for fast unit tests
        while keeping all timing parameters identical.
        """
        return dataclasses.replace(self, **overrides)  # type: ignore[arg-type]


# --------------------------------------------------------------------------- #
# Drive database (paper Table 1 plus the four drives used in Section 5)
# --------------------------------------------------------------------------- #

_DATABASE: dict[str, DiskSpecs] = {}


def _register(spec: DiskSpecs) -> DiskSpecs:
    _DATABASE[spec.name.lower()] = spec
    return spec


HP_C2247 = _register(
    DiskSpecs(
        name="HP C2247",
        year=1992,
        rpm=5400,
        head_switch_ms=1.0,
        avg_seek_ms=10.0,
        max_sectors_per_track=96,
        min_sectors_per_track=56,
        num_tracks=25648,
        surfaces=8,
        capacity_gb=1.0,
        zero_latency=False,
        bus_mb_per_s=10.0,
        num_zones=8,
        single_cylinder_seek_ms=1.5,
        cache_segments=2,
    )
)

QUANTUM_VIKING = _register(
    DiskSpecs(
        name="Quantum Viking",
        year=1997,
        rpm=7200,
        head_switch_ms=1.0,
        avg_seek_ms=8.0,
        max_sectors_per_track=216,
        min_sectors_per_track=126,
        num_tracks=49152,
        surfaces=8,
        capacity_gb=4.5,
        zero_latency=False,
        bus_mb_per_s=40.0,
        num_zones=10,
        single_cylinder_seek_ms=1.0,
    )
)

IBM_ULTRASTAR_18ES = _register(
    DiskSpecs(
        name="IBM Ultrastar 18ES",
        year=1998,
        rpm=7200,
        head_switch_ms=1.1,
        avg_seek_ms=7.6,
        max_sectors_per_track=390,
        min_sectors_per_track=247,
        num_tracks=57090,
        surfaces=10,
        capacity_gb=9.0,
        zero_latency=False,
        bus_mb_per_s=80.0,
        num_zones=12,
        single_cylinder_seek_ms=1.0,
    )
)

IBM_ULTRASTAR_18LZX = _register(
    DiskSpecs(
        name="IBM Ultrastar 18LZX",
        year=1999,
        rpm=10000,
        head_switch_ms=0.8,
        avg_seek_ms=5.9,
        max_sectors_per_track=382,
        min_sectors_per_track=195,
        num_tracks=116340,
        surfaces=10,
        capacity_gb=18.0,
        zero_latency=False,
        bus_mb_per_s=80.0,
        num_zones=12,
        single_cylinder_seek_ms=0.7,
    )
)

QUANTUM_ATLAS_10K = _register(
    DiskSpecs(
        name="Quantum Atlas 10K",
        year=1999,
        rpm=10000,
        head_switch_ms=0.8,
        avg_seek_ms=5.0,
        max_sectors_per_track=334,
        min_sectors_per_track=224,
        num_tracks=60126,
        surfaces=6,
        capacity_gb=9.0,
        zero_latency=True,
        bus_mb_per_s=80.0,
        num_zones=12,
        single_cylinder_seek_ms=1.2,
    )
)

SEAGATE_CHEETAH_X15 = _register(
    DiskSpecs(
        name="Seagate Cheetah X15",
        year=2000,
        rpm=15000,
        head_switch_ms=0.8,
        avg_seek_ms=3.9,
        max_sectors_per_track=386,
        min_sectors_per_track=286,
        num_tracks=103750,
        surfaces=10,
        capacity_gb=18.0,
        zero_latency=False,
        bus_mb_per_s=160.0,
        num_zones=10,
        single_cylinder_seek_ms=0.7,
    )
)

QUANTUM_ATLAS_10K_II = _register(
    DiskSpecs(
        name="Quantum Atlas 10K II",
        year=2000,
        rpm=10000,
        head_switch_ms=0.6,
        avg_seek_ms=4.7,
        max_sectors_per_track=528,
        min_sectors_per_track=353,
        num_tracks=52014,
        surfaces=3,
        capacity_gb=9.0,
        zero_latency=True,
        bus_mb_per_s=160.0,
        num_zones=12,
        single_cylinder_seek_ms=1.0,
    )
)

#: Order used when rendering Table 1.
TABLE1_ORDER = (
    "HP C2247",
    "Quantum Viking",
    "IBM Ultrastar 18ES",
    "IBM Ultrastar 18LZX",
    "Quantum Atlas 10K",
    "Seagate Cheetah X15",
    "Quantum Atlas 10K II",
)


def available_models() -> list[str]:
    """Names of every drive model in the database, in Table 1 order."""
    return list(TABLE1_ORDER)


def get_specs(name: str) -> DiskSpecs:
    """Look up a drive model by (case-insensitive) name.

    Raises :class:`SpecError` if the model is unknown.
    """
    try:
        return _DATABASE[name.lower()]
    except KeyError:
        known = ", ".join(sorted(_DATABASE))
        raise SpecError(f"unknown disk model {name!r}; known models: {known}") from None


def small_test_specs(
    name: str = "Quantum Atlas 10K II",
    cylinders_per_zone: int = 20,
    num_zones: int = 3,
) -> DiskSpecs:
    """A reduced-capacity drive used by fast unit tests.

    Timing parameters are copied from the named real model; only the number
    of tracks (and zones) is reduced, so work that visits every track
    (full-disk scans, boundary extraction, whole-drive workloads) finishes
    in milliseconds.  Building the geometry is cheap at any size: it takes
    a few milliseconds for a full-size model.
    """
    base = get_specs(name)
    cylinders = cylinders_per_zone * num_zones
    return base.scaled(
        name=f"{base.name} (test)",
        num_tracks=cylinders * base.surfaces,
        num_zones=num_zones,
        capacity_gb=base.capacity_gb
        * (cylinders * base.surfaces)
        / base.num_tracks,
    )
