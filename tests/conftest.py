"""Shared fixtures: small drives so every test runs in milliseconds."""

from __future__ import annotations

import random

import pytest

from repro.core.traxtent import TraxtentMap
from repro.disksim import (
    DiskDrive,
    DiskGeometry,
    ScsiInterface,
    SpareScheme,
    available_models,
    get_specs,
    small_test_specs,
)


@pytest.fixture(scope="session")
def small_specs():
    """A reduced-capacity Atlas 10K II (3 zones x 12 cylinders)."""
    return small_test_specs(cylinders_per_zone=12, num_zones=3)


@pytest.fixture(scope="session")
def clean_geometry(small_specs):
    """Defect-free geometry for the small drive."""
    return DiskGeometry(small_specs)


@pytest.fixture(scope="session")
def defective_geometry(small_specs):
    """Geometry with a realistic sprinkling of slipped and remapped defects."""
    return DiskGeometry.with_random_defects(small_specs, defect_count=10, seed=3)


@pytest.fixture()
def small_drive(small_specs):
    """A fresh small drive (defect-free) for each test."""
    return DiskDrive(small_specs)


@pytest.fixture(scope="session")
def medium_specs():
    """A ~800 MB Atlas 10K II used by file-system and workload tests."""
    return small_test_specs(cylinders_per_zone=400, num_zones=3)


@pytest.fixture()
def medium_drive(medium_specs):
    return DiskDrive(medium_specs)


@pytest.fixture(scope="session")
def atlas_drive():
    """A full-size Quantum Atlas 10K II (used where realistic seek
    distances matter; callers reset it before measuring)."""
    return DiskDrive.for_model("Quantum Atlas 10K II")


@pytest.fixture()
def defective_drive(small_specs, defective_geometry):
    return DiskDrive(small_specs, geometry=defective_geometry)


@pytest.fixture(scope="session")
def atlas10k2_specs():
    return get_specs("Quantum Atlas 10K II")


@pytest.fixture(scope="session")
def truth_map(clean_geometry):
    return TraxtentMap.from_geometry(clean_geometry)


@pytest.fixture(scope="session")
def defective_truth_map(defective_geometry):
    return TraxtentMap.from_geometry(defective_geometry)


@pytest.fixture()
def scsi(defective_geometry):
    return ScsiInterface(defective_geometry)


# --------------------------------------------------------------------------- #
# Range-walk cases: geometries and LBN ranges for the track_extents /
# TraxtentMap.from_geometry equivalence tests
# --------------------------------------------------------------------------- #

#: Every registered model at full size, plus reduced drives for the
#: sparing and defect shapes the models do not have.
RANGE_WALK_CASES = [
    *available_models(),
    "defect-free",
    "defects-seed-1",
    "defects-seed-2",
    "defects-seed-3",
    "spare-tracks-per-zone",
    "spare-none",
    "spare-sectors-per-track",
]


def _range_walk_geometry(case: str) -> DiskGeometry:
    if case in available_models():
        return DiskGeometry(get_specs(case))
    specs = small_test_specs(cylinders_per_zone=12, num_zones=3)
    if case.startswith("defects-seed-"):
        return DiskGeometry.with_random_defects(
            specs, defect_count=60, seed=int(case.rsplit("-", 1)[1]), remap_fraction=0.4
        )
    scheme = {
        "spare-tracks-per-zone": SpareScheme.TRACKS_PER_ZONE,
        "spare-none": SpareScheme.NONE,
        "spare-sectors-per-track": SpareScheme.SECTORS_PER_TRACK,
    }.get(case)
    if scheme is not None:
        specs = specs.scaled(spare_scheme=scheme, spare_count=6)
    return DiskGeometry(specs)


@pytest.fixture(params=RANGE_WALK_CASES)
def range_walk_geometry(request):
    """A geometry per range-walk case, built per test so that the full-size
    ones (and the maps cached on them) are released after it."""
    return _range_walk_geometry(request.param)


@pytest.fixture()
def range_walk_ranges(range_walk_geometry):
    """``[start, end)`` LBN ranges over ``range_walk_geometry``: zones,
    edges on track boundaries (spare tracks included), random ranges whose
    edges fall in the middle of a track, and ranges holding no whole track.
    The whole drive is the tests' call without a range.

    The reduced drives take every zone and many random ranges; the
    full-size models, whose walks cost more, their outer and inner zones
    and a few random ranges of at most a tenth of the drive."""
    geometry = range_walk_geometry
    total = geometry.total_lbns
    firsts = [geometry.track_bounds(track)[0] for track in range(geometry.num_tracks)]
    tracks = len(firsts)
    small = tracks < 5000
    zones = range(len(geometry.zones)) if small else (0, len(geometry.zones) - 1)
    ranges = [(0, 1), (total - 1, total), (5, 5), (9, 3)]
    ranges += [geometry.zone_lbn_range(zone) for zone in zones]
    rng = random.Random(tracks)
    for _ in range(100 if small else 4):
        first = rng.randrange(tracks)
        last = min(tracks - 1, first + rng.randrange(1, max(2, tracks // 10)))
        ranges.append((firsts[first], firsts[last]))
        start = rng.randrange(total)
        ranges.append((start, min(total, start + rng.randrange(1, max(2, total // 10)))))
    return ranges
