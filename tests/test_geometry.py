"""Tests for zoned geometry, defect handling and LBN translation."""

import pytest

from repro.disksim import (
    AddressError,
    Defect,
    DefectHandling,
    DefectList,
    DiskGeometry,
    GeometryError,
    SpareScheme,
    default_zones,
    small_test_specs,
)


# --------------------------------------------------------------------------- #
# Zone table
# --------------------------------------------------------------------------- #

def test_default_zones_cover_all_cylinders(small_specs):
    zones = default_zones(small_specs)
    assert zones[0].start_cylinder == 0
    assert zones[-1].end_cylinder == small_specs.cylinders - 1
    covered = sum(z.cylinders for z in zones)
    assert covered == small_specs.cylinders


def test_outer_zone_has_max_spt_inner_has_min(small_specs):
    zones = default_zones(small_specs)
    assert zones[0].sectors_per_track == small_specs.max_sectors_per_track
    assert zones[-1].sectors_per_track == small_specs.min_sectors_per_track
    spts = [z.sectors_per_track for z in zones]
    assert spts == sorted(spts, reverse=True)


def test_zone_lbn_ranges_are_contiguous(clean_geometry):
    previous_end = 0
    for index in range(len(clean_geometry.zones)):
        start, end = clean_geometry.zone_lbn_range(index)
        assert start == previous_end
        assert end > start
        previous_end = end
    assert previous_end == clean_geometry.total_lbns


# --------------------------------------------------------------------------- #
# LBN <-> physical translation
# --------------------------------------------------------------------------- #

def test_lbn_round_trip_over_sample(clean_geometry):
    total = clean_geometry.total_lbns
    for lbn in range(0, total, total // 997 or 1):
        address = clean_geometry.lbn_to_physical(lbn)
        back = clean_geometry.physical_to_lbn(
            address.cylinder, address.surface, address.sector
        )
        assert back == lbn


def test_first_lbn_maps_to_first_slot(clean_geometry):
    address = clean_geometry.lbn_to_physical(0)
    assert (address.cylinder, address.surface, address.sector) == (0, 0, 0)


def test_out_of_range_lbn_rejected(clean_geometry):
    with pytest.raises(AddressError):
        clean_geometry.lbn_to_physical(clean_geometry.total_lbns)
    with pytest.raises(AddressError):
        clean_geometry.lbn_to_physical(-1)


def test_track_bounds_consistent_with_extents(clean_geometry):
    for extent in clean_geometry.track_extents():
        first, count = clean_geometry.track_bounds(extent.track)
        assert (first, count) == (extent.first_lbn, extent.lbn_count)
        assert clean_geometry.track_of_lbn(extent.first_lbn) == extent.track
        assert clean_geometry.track_of_lbn(extent.last_lbn) == extent.track


def _whole_tracks(tracks, start, end):
    """Reference range filter: every LBN-holding track wholly inside
    [start, end), from a full per-track list of (track, first, count)."""
    return [
        (track, first, count)
        for track, first, count in tracks
        if count and first >= start and first + count <= end
    ]


def test_track_extents_range_walk_matches_full_filter(
    range_walk_geometry, range_walk_ranges
):
    geometry = range_walk_geometry
    tracks = [
        (track, *geometry.track_bounds(track)) for track in range(geometry.num_tracks)
    ]
    walked = [(e.track, e.first_lbn, e.lbn_count) for e in geometry.track_extents()]
    assert walked == _whole_tracks(tracks, 0, geometry.total_lbns)
    for start, end in range_walk_ranges:
        walked = [
            (e.track, e.first_lbn, e.lbn_count)
            for e in geometry.track_extents(start, end)
        ]
        assert walked == _whole_tracks(tracks, start, end), (start, end)


class _CountingList(list):
    """A list that counts its item reads."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def test_track_extents_walks_only_the_tracks_it_covers(small_specs):
    geometry = DiskGeometry(small_specs)
    counts = _CountingList(geometry._track_lbn_count)
    geometry._track_lbn_count = counts
    walked = list(geometry.track_extents(*geometry.zone_lbn_range(1)))
    assert walked
    # One read per track of the zone, plus the first track past its end.
    assert counts.reads == len(walked) + 1


def test_track_extents_range_edges_cut_tracks(clean_geometry):
    first, count = clean_geometry.track_bounds(1)
    # A range that cuts track 1 at either edge yields nothing of it.
    assert [e.track for e in clean_geometry.track_extents(first, first + count)] == [1]
    assert [e.track for e in clean_geometry.track_extents(first + 1, first + count)] == []
    assert [e.track for e in clean_geometry.track_extents(first, first + count - 1)] == []
    assert list(clean_geometry.track_extents(first, first)) == []
    assert list(clean_geometry.track_extents(clean_geometry.total_lbns)) == []


def test_track_extents_skip_spare_tracks():
    specs = small_test_specs().scaled(
        spare_scheme=SpareScheme.TRACKS_PER_ZONE, spare_count=6
    )
    geometry = DiskGeometry(specs)
    empty = [
        track for track in range(geometry.num_tracks) if geometry.track_bounds(track)[1] == 0
    ]
    assert empty  # spare tracks hold no LBNs
    # A spare track shares its first LBN with the next real track; a range
    # starting there still yields that real track first.
    start = geometry.track_bounds(empty[0])[0]
    walked = next(geometry.track_extents(start))
    assert walked.first_lbn == start and walked.track > empty[0]
    assert all(e.lbn_count > 0 for e in geometry.track_extents())


def test_track_capacity_reflects_cylinder_spares(small_specs, clean_geometry):
    """With per-cylinder sparing only the last surface gives up sectors."""
    spt = small_specs.max_sectors_per_track
    spare = small_specs.spare_count
    per_track = [
        clean_geometry.track_bounds(track)[1]
        for track in range(small_specs.surfaces)
    ]
    assert per_track[:-1] == [spt] * (small_specs.surfaces - 1)
    assert per_track[-1] == spt - spare


def test_spare_slots_hold_no_lbn(small_specs, clean_geometry):
    spt = small_specs.max_sectors_per_track
    last_surface = small_specs.surfaces - 1
    assert clean_geometry.physical_to_lbn(0, last_surface, spt - 1) is None


# --------------------------------------------------------------------------- #
# Defects
# --------------------------------------------------------------------------- #

def test_slipped_defect_shifts_mapping(small_specs):
    defect = Defect(cylinder=0, surface=0, sector=5, handling=DefectHandling.SLIPPED)
    geometry = DiskGeometry(small_specs, defects=DefectList([defect]))
    # The defective slot holds no LBN and every later LBN shifts by one.
    assert geometry.physical_to_lbn(0, 0, 5) is None
    assert geometry.physical_to_lbn(0, 0, 6) == 5
    assert geometry.track_bounds(0)[1] == small_specs.max_sectors_per_track - 1
    # Figure 2's point: the next track's first LBN moves down by one.
    clean = DiskGeometry(small_specs)
    assert geometry.track_bounds(1)[0] == clean.track_bounds(1)[0] - 1


def test_remapped_defect_keeps_mapping_and_relocates_one_lbn(small_specs):
    defect = Defect(cylinder=0, surface=0, sector=5, handling=DefectHandling.REMAPPED)
    geometry = DiskGeometry(small_specs, defects=DefectList([defect]))
    clean = DiskGeometry(small_specs)
    # Track capacity unchanged; neighbours keep their nominal LBNs.
    assert geometry.track_bounds(0)[1] == clean.track_bounds(0)[1]
    assert geometry.physical_to_lbn(0, 0, 6) == 6
    assert geometry.physical_to_lbn(0, 0, 5) is None
    # LBN 5 now lives in spare space on the same cylinder's last surface.
    relocated = geometry.lbn_to_physical(5)
    assert relocated.cylinder == 0
    assert relocated.surface == small_specs.surfaces - 1


def test_defect_list_validation():
    with pytest.raises(GeometryError):
        DefectList([Defect(0, 0, 5), Defect(0, 0, 5)])
    with pytest.raises(GeometryError):
        Defect(0, 0, -1)
    with pytest.raises(GeometryError):
        Defect(0, 0, 1, handling="teleported")


def test_random_defect_list_reproducible(small_specs):
    a = DefectList.random(10, small_specs.surfaces, 300, count=12, seed=9)
    b = DefectList.random(10, small_specs.surfaces, 300, count=12, seed=9)
    assert list(a) == list(b)
    assert len(a) == 12


def test_defective_geometry_total_lbns_smaller(clean_geometry, defective_geometry):
    # Slipped defects remove addressable sectors; remapped ones do not.
    slipped = len(defective_geometry.defects.remapped())
    assert defective_geometry.total_lbns <= clean_geometry.total_lbns
    assert clean_geometry.total_lbns - defective_geometry.total_lbns == (
        len(defective_geometry.defects) - slipped
    )


def test_defective_geometry_round_trip(defective_geometry):
    total = defective_geometry.total_lbns
    for lbn in range(0, total, total // 523 or 1):
        address = defective_geometry.lbn_to_physical(lbn)
        assert defective_geometry.physical_to_lbn(
            address.cylinder, address.surface, address.sector
        ) == lbn


# --------------------------------------------------------------------------- #
# Spare schemes
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize(
    "scheme",
    [SpareScheme.NONE, SpareScheme.SECTORS_PER_TRACK, SpareScheme.TRACKS_PER_ZONE],
)
def test_alternate_spare_schemes_build_consistent_maps(scheme):
    specs = small_test_specs().scaled(spare_scheme=scheme, spare_count=6)
    geometry = DiskGeometry(specs)
    # Round trip still holds whatever the sparing policy.
    total = geometry.total_lbns
    for lbn in range(0, total, total // 311 or 1):
        address = geometry.lbn_to_physical(lbn)
        assert geometry.physical_to_lbn(
            address.cylinder, address.surface, address.sector
        ) == lbn
    if scheme == SpareScheme.NONE:
        assert geometry.track_bounds(0)[1] == specs.max_sectors_per_track
    if scheme == SpareScheme.SECTORS_PER_TRACK:
        assert geometry.track_bounds(0)[1] == specs.max_sectors_per_track - 6


# --------------------------------------------------------------------------- #
# Skew / angular positions
# --------------------------------------------------------------------------- #

def test_skew_offset_advances_between_tracks(small_specs, clean_geometry):
    zone = clean_geometry.zones[0]
    first = clean_geometry.skew_offset(0)
    second = clean_geometry.skew_offset(1)
    assert (second - first) % zone.sectors_per_track == zone.track_skew


def test_slot_angle_in_unit_interval(clean_geometry):
    zone = clean_geometry.zones[0]
    for sector in range(0, zone.sectors_per_track, 37):
        angle = clean_geometry.slot_angle(0, sector)
        assert 0.0 <= angle < 1.0
