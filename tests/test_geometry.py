"""Tests for zoned geometry, defect handling and LBN translation."""

import pytest
from _geometry_strategies import geometries, reference_tables
from _numpy_gate import needs_numpy
from hypothesis import given, settings, strategies as st

from repro.disksim import (
    AddressError,
    Defect,
    DefectHandling,
    DefectList,
    DiskGeometry,
    GeometryError,
    SpareScheme,
    available_models,
    default_zones,
    get_specs,
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


def test_slipped_defects_off_the_drive_change_no_track(small_specs, clean_geometry):
    past_last_cylinder = Defect(small_specs.cylinders + 5, 0, 1)
    past_last_surface = Defect(0, small_specs.surfaces, 1)
    geometry = DiskGeometry(
        small_specs, defects=DefectList([past_last_cylinder, past_last_surface])
    )
    assert geometry._track_first_lbn == clean_geometry._track_first_lbn
    assert geometry._track_lbn_count == clean_geometry._track_lbn_count


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
# Generated geometries: the tables against the per-track rule
# --------------------------------------------------------------------------- #

def assert_tables_match_rule(geometry):
    """The LBN tables equal the per-track reference rule, and every zone's
    first LBN and the drive's total agree with them."""
    firsts, counts = reference_tables(geometry)
    assert geometry._track_first_lbn == firsts
    assert geometry._track_lbn_count == counts
    assert geometry.total_lbns == firsts[-1] + counts[-1]
    assert [z.first_lbn for z in geometry.zones] == [
        firsts[z.first_track] for z in geometry.zones
    ]


def assert_round_trips(geometry, lbns):
    for lbn in lbns:
        address = geometry.lbn_to_physical(lbn)
        assert geometry.physical_to_lbn(
            address.cylinder, address.surface, address.sector
        ) == lbn


@given(geometries(), st.data())
@settings(max_examples=150, deadline=None)
def test_generated_geometry_tables_and_round_trip(geometry, data):
    assert_tables_match_rule(geometry)
    total = geometry.total_lbns
    if total:
        sampled = data.draw(st.lists(st.integers(0, total - 1), max_size=40))
        remapped = sorted(geometry._remap_by_lbn)
        assert_round_trips(geometry, [0, total - 1, *sampled, *remapped])


@needs_numpy
@given(geometries(defects=False))
@settings(max_examples=60, deadline=None)
def test_generated_kernel_tables_equal_scalar_lookups(geometry):
    """The kernel's per-track tables (numpy) gather what the scalar lookups
    return on every track of a defect-free geometry."""
    from repro.sim.kernel import geometry_tables

    first, count, spt, skew, sector_ms, _ = (
        column.tolist() for column in geometry_tables(geometry)
    )
    tracks = range(geometry.num_tracks)
    zones = [geometry.zone_of_cylinder(t // geometry.surfaces) for t in tracks]
    assert list(zip(first, count)) == [geometry.track_bounds(t) for t in tracks]
    assert spt == [z.sectors_per_track for z in zones]
    assert skew == [geometry.skew_offset(t) for t in tracks]
    assert sector_ms == [
        geometry.specs.sector_time_ms(z.sectors_per_track) for z in zones
    ]


@pytest.mark.parametrize("model", available_models())
def test_model_geometries_follow_the_track_rule(model):
    """Every drive model under every spare scheme, without and with random
    defects: the tables follow the rule, and sampled LBNs round-trip."""
    for scheme in SpareScheme.ALL:
        specs = get_specs(model).scaled(spare_scheme=scheme)
        geometries = [DiskGeometry(specs)]
        if scheme == SpareScheme.NONE:
            # Without spare space a remapped defect has no slot to go to.
            with pytest.raises(GeometryError, match="spare scheme 'none', is full"):
                DiskGeometry.with_random_defects(specs, defect_count=50, seed=7)
        else:
            geometries.append(
                DiskGeometry.with_random_defects(specs, defect_count=50, seed=7)
            )
        for geometry in geometries:
            assert_tables_match_rule(geometry)
            total = geometry.total_lbns
            sampled = range(0, total, total // 97)
            remapped = sorted(geometry._remap_by_lbn)
            assert_round_trips(geometry, [*sampled, total - 1, *remapped])


@pytest.mark.parametrize(
    "scheme", [SpareScheme.SECTORS_PER_TRACK, SpareScheme.SECTORS_PER_CYLINDER]
)
def test_full_spare_pool_refuses_one_more_remap(scheme):
    """A cylinder's pool of ``spare_count`` slots takes that many remaps,
    each on its own spare slot, and refuses one more: the next slot down
    holds data."""
    specs = small_test_specs().scaled(spare_scheme=scheme, spare_count=3)
    remaps = [Defect(0, 0, sector, DefectHandling.REMAPPED) for sector in range(4)]
    geometry = DiskGeometry(specs, defects=DefectList(remaps[:3]))
    slots = {geometry.lbn_to_physical(lbn) for lbn in range(3)}
    assert len(slots) == 3
    assert_round_trips(geometry, range(3))
    with pytest.raises(GeometryError, match="sector 3: its pool, 3 slots on cylinder 0"):
        DiskGeometry(specs, defects=DefectList(remaps))


def test_drive_without_spare_space_refuses_its_first_remap():
    specs = small_test_specs().scaled(spare_scheme=SpareScheme.NONE)
    remap = Defect(0, 0, 5, DefectHandling.REMAPPED)
    with pytest.raises(GeometryError, match="sector 5: its pool, 0 slots"):
        DiskGeometry(specs, defects=DefectList([remap]))


@pytest.mark.parametrize(
    "scheme",
    [SpareScheme.NONE, SpareScheme.SECTORS_PER_TRACK, SpareScheme.TRACKS_PER_ZONE],
)
def test_alternate_spare_schemes_build_consistent_maps(scheme):
    """A non-default spare count: the tables follow the rule, the round trip
    holds, and the first track's size is the fixed figure for its scheme."""
    specs = small_test_specs().scaled(spare_scheme=scheme, spare_count=6)
    geometry = DiskGeometry(specs)
    assert_tables_match_rule(geometry)
    total = geometry.total_lbns
    assert_round_trips(geometry, range(0, total, total // 311 or 1))
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
