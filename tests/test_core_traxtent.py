"""Tests for TraxtentMap, allocation, request shaping and SCSI queries."""

import dataclasses
import gc
import weakref

import pytest

from repro import DriveConfig, build_drive, clear_drive_build_cache
from repro.core import (
    AllocationError,
    ExtentAllocator,
    RequestShaper,
    Traxtent,
    TraxtentError,
    TraxtentMap,
    excluded_block_fraction,
    excluded_blocks,
    usable_block_runs,
)
from repro.disksim import AddressError, DiskGeometry, get_specs


# --------------------------------------------------------------------------- #
# Traxtent / TraxtentMap
# --------------------------------------------------------------------------- #

def test_traxtent_basics():
    extent = Traxtent(100, 50)
    assert extent.last_lbn == 149
    assert extent.end_lbn == 150
    assert extent.contains(100) and extent.contains(149)
    assert not extent.contains(150)
    assert extent.overlaps(140, 20)
    assert not extent.overlaps(150, 10)
    with pytest.raises(TraxtentError):
        Traxtent(-1, 5)
    with pytest.raises(TraxtentError):
        Traxtent(0, 0)


def test_map_matches_geometry_ground_truth(clean_geometry, truth_map):
    assert len(truth_map) > 0
    assert truth_map.end_lbn == clean_geometry.total_lbns
    for extent in list(truth_map)[:50]:
        track = clean_geometry.track_of_lbn(extent.first_lbn)
        first, count = clean_geometry.track_bounds(track)
        assert (first, count) == (extent.first_lbn, extent.length)


def test_map_lookup_and_boundaries(truth_map):
    first = truth_map[0]
    second = truth_map[1]
    assert truth_map.extent_of(first.first_lbn) == first
    assert truth_map.extent_of(first.last_lbn) == first
    assert truth_map.next_boundary(first.first_lbn) == second.first_lbn
    assert truth_map.crosses_boundary(first.last_lbn, 2)
    assert not truth_map.crosses_boundary(first.first_lbn, first.length)
    assert truth_map.aligned(first.first_lbn, first.length)
    assert not truth_map.aligned(first.first_lbn + 1, first.length)
    assert truth_map.clip(first.first_lbn, 10_000) == first.length


def test_map_rejects_overlaps_and_bad_lookups(truth_map):
    with pytest.raises(TraxtentError):
        TraxtentMap([Traxtent(0, 100), Traxtent(50, 100)])
    with pytest.raises(TraxtentError):
        TraxtentMap([])
    with pytest.raises(TraxtentError):
        truth_map.extent_of(truth_map.end_lbn)


def test_map_serialisation_round_trip(truth_map):
    payload = truth_map.to_json()
    restored = TraxtentMap.from_json(payload)
    assert restored == truth_map
    with pytest.raises(TraxtentError):
        TraxtentMap.from_json("{\"bogus\": 1}")


def test_map_restrict_and_accuracy(truth_map):
    sub = truth_map.restrict(truth_map[2].first_lbn, truth_map[10].end_lbn)
    assert len(sub) == 9  # extents 2..10 inclusive
    assert sub.accuracy_against(sub) == 1.0
    assert sub.accuracy_against(truth_map) < 1.0
    assert truth_map.accuracy_against(sub) == 1.0


def test_extents_in_range(truth_map):
    third = truth_map[3]
    hits = truth_map.extents_in_range(third.first_lbn - 1, third.end_lbn + 1)
    assert third in hits
    assert len(hits) >= 2
    assert truth_map.extents_in_range(5, 5) == []


# --------------------------------------------------------------------------- #
# Ground-truth maps: range walk and one shared map per geometry and range
# --------------------------------------------------------------------------- #

def _filter_all_tracks(tracks, start, end):
    """The map as built before the range walk: every track of the drive,
    filtered to the whole LBN-holding tracks inside [start, end)."""
    return TraxtentMap(
        Traxtent(first, count)
        for first, count in tracks
        if count and first >= start and first + count <= end
    )


def _expected(tracks, start, end):
    try:
        return _filter_all_tracks(tracks, start, end)
    except TraxtentError:
        return TraxtentError


def _built(geometry, *lbn_range):
    try:
        return TraxtentMap.from_geometry(geometry, *lbn_range)
    except TraxtentError:
        return TraxtentError


def test_from_geometry_matches_filtering_every_track(range_walk_geometry, range_walk_ranges):
    geometry = range_walk_geometry
    tracks = [geometry.track_bounds(track) for track in range(geometry.num_tracks)]
    assert _built(geometry) == _expected(tracks, 0, geometry.total_lbns)
    for start, end in range_walk_ranges:
        assert _built(geometry, start, end) == _expected(tracks, start, end), (start, end)


def test_from_geometry_shares_one_map_per_geometry_and_range(small_specs):
    geometry = DiskGeometry(small_specs)
    zone = geometry.zone_lbn_range(0)
    zone_map = TraxtentMap.from_geometry(geometry, *zone)
    assert TraxtentMap.from_geometry(geometry, *zone) is zone_map
    whole = TraxtentMap.from_geometry(geometry)
    assert TraxtentMap.from_geometry(geometry, 0, geometry.total_lbns) is whole
    assert whole is not zone_map
    assert TraxtentMap.from_geometry(geometry, *geometry.zone_lbn_range(1)) is not zone_map
    # Equal specs, another geometry object: an equal map, not the same one.
    twin = TraxtentMap.from_geometry(DiskGeometry(small_specs), *zone)
    assert twin == zone_map and twin is not zone_map


def test_from_geometry_map_released_with_its_geometry(small_specs):
    geometry = DiskGeometry(small_specs)
    geometry_ref = weakref.ref(geometry)
    map_ref = weakref.ref(TraxtentMap.from_geometry(geometry))
    assert map_ref() is not None  # held by the per-geometry cache
    del geometry
    gc.collect()
    assert geometry_ref() is None and map_ref() is None


def test_from_geometry_maps_dropped_with_the_factory_geometries():
    config = DriveConfig(model="Quantum Atlas 10K II", cylinders_per_zone=12, num_zones=3)
    clear_drive_build_cache()
    drive = build_drive(config)
    zone_map = TraxtentMap.from_geometry(drive.geometry, *drive.geometry.zone_lbn_range(0))
    # A second drive of the same model shares the geometry, so the map too.
    other = build_drive(config)
    assert TraxtentMap.from_geometry(other.geometry, *other.geometry.zone_lbn_range(0)) is zone_map
    map_ref = weakref.ref(zone_map)
    del drive, other, zone_map
    clear_drive_build_cache()
    gc.collect()
    assert map_ref() is None


def test_shared_map_cannot_be_changed(clean_geometry):
    shared = TraxtentMap.from_geometry(clean_geometry)
    before = shared.to_pairs()
    assert isinstance(shared[0:3], tuple)
    with pytest.raises(TypeError):
        shared[0] = Traxtent(0, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        shared[0].length = 1
    # Every container a query returns is the caller's own copy.
    shared.to_pairs().clear()
    shared.extents_in_range(0, clean_geometry.total_lbns).clear()
    shared.boundary_set().clear()
    assert shared.to_pairs() == before
    assert TraxtentMap.from_geometry(clean_geometry) is shared


# --------------------------------------------------------------------------- #
# ExtentAllocator
# --------------------------------------------------------------------------- #

def test_extent_allocator_whole_traxtents(truth_map):
    allocator = ExtentAllocator(truth_map)
    total = allocator.free_traxtents()
    first = allocator.allocate_traxtent()
    assert first == truth_map[0]
    assert allocator.free_traxtents() == total - 1
    allocator.free(first)
    assert allocator.free_traxtents() == total
    with pytest.raises(AllocationError):
        allocator.free(first)


def test_extent_allocator_near_hint(truth_map):
    allocator = ExtentAllocator(truth_map)
    middle = truth_map[len(truth_map) // 2]
    got = allocator.allocate_traxtent(near_lbn=middle.first_lbn)
    assert abs(got.first_lbn - middle.first_lbn) <= middle.length


def test_extent_allocator_multi_traxtent_allocation(truth_map):
    allocator = ExtentAllocator(truth_map)
    sectors = truth_map[0].length + truth_map[1].length // 2
    extents = allocator.allocate(sectors)
    assert len(extents) == 2
    assert sum(e.length for e in extents) == sectors
    assert allocator.stats.split_allocations == 1


def test_extent_allocator_exhaustion(truth_map):
    small = TraxtentMap(list(truth_map)[:3])
    allocator = ExtentAllocator(small)
    for _ in range(3):
        allocator.allocate_traxtent()
    with pytest.raises(AllocationError):
        allocator.allocate_traxtent()
    with pytest.raises(AllocationError):
        allocator.allocate(0)


def test_reserve_range(truth_map):
    allocator = ExtentAllocator(truth_map)
    reserved = allocator.reserve_range(truth_map[0].first_lbn, truth_map[2].end_lbn)
    assert reserved == 3
    assert allocator.allocate_traxtent().first_lbn == truth_map[3].first_lbn


# --------------------------------------------------------------------------- #
# Excluded blocks (Section 4.2.2)
# --------------------------------------------------------------------------- #

def test_excluded_block_fraction_atlas_10k_matches_paper():
    geometry = DiskGeometry(get_specs("Quantum Atlas 10K"))
    zone_map = TraxtentMap.from_geometry(geometry, *geometry.zone_lbn_range(0))
    fraction = excluded_block_fraction(zone_map, 16)
    # Paper: about one of every twenty-one 8 KB blocks (334-sector tracks).
    assert 1 / 25 < fraction < 1 / 18


def test_excluded_block_fraction_atlas_10k_ii_lower():
    geometry = DiskGeometry(get_specs("Quantum Atlas 10K II"))
    zone_map = TraxtentMap.from_geometry(geometry, *geometry.zone_lbn_range(0))
    fraction = excluded_block_fraction(zone_map, 16)
    # Paper: about one in thirty (528-sector tracks hold 33 blocks).
    assert 1 / 40 < fraction < 1 / 25


def test_excluded_blocks_straddle_boundaries(truth_map):
    block_sectors = 16
    excluded = excluded_blocks(truth_map, block_sectors)
    for block in excluded[:20]:
        start = block * block_sectors
        end = start + block_sectors
        extent = truth_map.extent_of(start)
        assert extent.end_lbn < end  # really crosses a boundary


def test_usable_block_runs_skip_excluded(truth_map):
    runs = list(usable_block_runs(truth_map, 16))
    excluded = set(excluded_blocks(truth_map, 16))
    assert runs
    for first, count in runs[:20]:
        assert all(block not in excluded for block in range(first, first + count))


# --------------------------------------------------------------------------- #
# Request shaping
# --------------------------------------------------------------------------- #

def test_shaper_splits_at_boundaries(truth_map):
    shaper = RequestShaper(truth_map)
    first = truth_map[0]
    pieces = shaper.shape(first.first_lbn, first.length + 10)
    assert len(pieces) == 2
    assert pieces[0].aligned
    assert pieces[0].count == first.length
    assert pieces[1].lbn == first.end_lbn
    assert pieces[1].count == 10


def test_shaper_clip_and_extend(truth_map):
    shaper = RequestShaper(truth_map)
    extent = truth_map[4]
    middle = extent.first_lbn + extent.length // 2
    assert shaper.clip_prefetch(middle, 10_000) == extent.end_lbn - middle
    assert shaper.extend_to_track(middle) == (extent.first_lbn, extent.length)
    requests = shaper.to_requests("read", extent.first_lbn, extent.length)
    assert len(requests) == 1 and requests[0].count == extent.length


def test_shaper_max_request_size(truth_map):
    shaper = RequestShaper(truth_map, max_request_sectors=64)
    pieces = shaper.shape(truth_map[0].first_lbn, 200)
    assert all(p.count <= 64 for p in pieces)
    assert sum(p.count for p in pieces) == 200


# --------------------------------------------------------------------------- #
# SCSI query interface
# --------------------------------------------------------------------------- #

def test_scsi_counters_and_queries(scsi, defective_geometry):
    assert scsi.read_capacity() == defective_geometry.total_lbns
    address = scsi.translate_lbn(0)
    assert (address.cylinder, address.surface, address.sector) == (0, 0, 0)
    assert scsi.translate_physical(0, 0, 0) == 0
    defects = scsi.read_defect_list()
    assert len(defects) == len(defective_geometry.defects)
    geometry_page = scsi.mode_sense_geometry()
    assert geometry_page["heads"] == defective_geometry.surfaces
    assert scsi.counters.total() == 5
    scsi.reset_counters()
    assert scsi.counters.total() == 0


def test_scsi_invalid_physical_address_raises(scsi, defective_geometry):
    spt = defective_geometry.zones[0].sectors_per_track
    with pytest.raises(AddressError):
        scsi.translate_physical(0, 0, spt + 5)
