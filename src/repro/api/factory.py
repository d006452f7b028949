"""Factories: turn declarative configs into simulated drives and fleets.

These replace the ad-hoc ``DiskSpecs -> DiskDrive -> LbnRangeShard`` wiring
that every benchmark and example used to repeat.  A drive built from a
:class:`~repro.api.config.DriveConfig` with default knobs is constructed
with *exactly* the same arguments as ``DiskDrive(specs)``, so facade-built
experiments are bitwise-identical to hand-wired ones.

**Drive-build cache.**  Constructing a full-size :class:`DiskGeometry`
(zones, spare slots, per-track tables) and fitting the seek curve costs a
few milliseconds per drive, which would be paid again for every drive of
every point of a campaign, in every worker process.  Both objects are pure
functions of the (immutable, hashable) :class:`DiskSpecs`, so the factory
memoizes them per process: the N points of a campaign share one
geometry/seek-curve per drive model instead of rebuilding per point.
Sharing the geometry object also keeps what is cached per geometry
(the kernel's per-track tables, the traxtent maps) alive across points,
since those caches are weakly keyed by it.  Mutable state
(:class:`FirmwareCache`, drive head/actuator state) is never shared.
``clear_drive_build_cache()`` drops the memo (tests, benchmarks).
"""

from __future__ import annotations

from ..disksim.cache import FirmwareCache
from ..disksim.drive import DiskDrive
from ..disksim.geometry import DiskGeometry
from ..disksim.seek import SeekCurve
from ..disksim.specs import DiskSpecs, get_specs, small_test_specs
from ..sim.shard import LbnRangeShard
from .config import DriveConfig, FleetConfig

#: specs -> shared immutable geometry / fitted seek curve.  DiskSpecs is a
#: frozen dataclass, so the key captures the model *and* every
#: geometry-affecting knob (zone scaling included).
_GEOMETRY_CACHE: dict[DiskSpecs, DiskGeometry] = {}
_SEEK_CURVE_CACHE: dict[DiskSpecs, SeekCurve] = {}

#: Safety valve: campaigns sweep a handful of drive variants, not hundreds.
_CACHE_LIMIT = 64


def clear_drive_build_cache() -> None:
    """Drop the memoized geometries and seek curves."""
    _GEOMETRY_CACHE.clear()
    _SEEK_CURVE_CACHE.clear()


def _cached_geometry(specs: DiskSpecs) -> DiskGeometry:
    geometry = _GEOMETRY_CACHE.get(specs)
    if geometry is None:
        if len(_GEOMETRY_CACHE) >= _CACHE_LIMIT:
            _GEOMETRY_CACHE.clear()
        geometry = DiskGeometry(specs)
        _GEOMETRY_CACHE[specs] = geometry
    return geometry


def _cached_seek_curve(specs: DiskSpecs) -> SeekCurve:
    curve = _SEEK_CURVE_CACHE.get(specs)
    if curve is None:
        if len(_SEEK_CURVE_CACHE) >= _CACHE_LIMIT:
            _SEEK_CURVE_CACHE.clear()
        curve = SeekCurve.for_specs(specs)
        _SEEK_CURVE_CACHE[specs] = curve
    return curve


def build_specs(config: DriveConfig) -> DiskSpecs:
    """Resolve a :class:`DriveConfig` to a :class:`DiskSpecs`.

    ``cylinders_per_zone``/``num_zones`` produce a reduced-capacity drive
    with identical timing (``small_test_specs`` scaling); otherwise the
    model's full published geometry is used.
    """
    if config.cylinders_per_zone is not None or config.num_zones is not None:
        return small_test_specs(
            config.model,
            cylinders_per_zone=config.cylinders_per_zone or 20,
            num_zones=config.num_zones or 3,
        )
    return get_specs(config.model)


def build_drive(config: DriveConfig | None = None) -> DiskDrive:
    """Build one simulated drive from a declarative config."""
    config = config if config is not None else DriveConfig()
    specs = build_specs(config)
    cache = None
    cache_overridden = (
        config.cache_segments is not None
        or config.readahead_sectors is not None
        or not config.enable_caching
        or not config.enable_prefetch
    )
    if cache_overridden:
        readahead = (
            config.readahead_sectors
            if config.readahead_sectors is not None
            else int(specs.cache_readahead_tracks * specs.max_sectors_per_track)
        )
        cache = FirmwareCache(
            num_segments=(
                config.cache_segments
                if config.cache_segments is not None
                else specs.cache_segments
            ),
            readahead_sectors=readahead,
            enable_caching=config.enable_caching,
            enable_prefetch=config.enable_prefetch,
        )
    return DiskDrive(
        specs,
        geometry=_cached_geometry(specs),
        seek_curve=_cached_seek_curve(specs),
        cache=cache,
        zero_latency=config.zero_latency,
        in_order_bus=config.in_order_bus,
    )


def build_fleet(
    fleet: FleetConfig | None = None, drive: DriveConfig | None = None
) -> LbnRangeShard:
    """Build an LBN-range-sharded fleet of identical drives."""
    fleet = fleet if fleet is not None else FleetConfig()
    drive = drive if drive is not None else DriveConfig()
    return LbnRangeShard([build_drive(drive) for _ in range(fleet.n_drives)])


__all__ = [
    "build_drive",
    "build_fleet",
    "build_specs",
    "clear_drive_build_cache",
]
