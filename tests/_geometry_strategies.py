"""Hypothesis strategies for self-consistent drive geometries.

A drawn drive is built the way a file-system formatter picks a layout:
draw candidate parameters, check each against what a real drive could
hold, and keep only the feasible ones.

* :func:`disk_specs` draws a :class:`DiskSpecs` (1-8 surfaces, 4-400
  cylinders, any spare scheme, spare counts up to past a track and past a
  zone), its timing copied from a real model.
* :func:`zone_tables` draws either the default zone table or an uneven
  one, with cut points and sectors per track of its own.
* :func:`defect_lists` draws slipped and remapped defects, some on spare
  tracks and spare slots, and keeps a remapped one only while its
  :func:`spare_pool` has a free slot.
* :func:`geometries` combines the three into a built
  :class:`DiskGeometry`.

:func:`reference_tables` is the per-track rule the tables are checked
against: one track at a time, straight from the spare schemes' and
defects' definitions.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import strategies as st

from repro.disksim import (
    Defect,
    DefectHandling,
    DefectList,
    DiskGeometry,
    SpareScheme,
    Zone,
    available_models,
    default_zones,
    get_specs,
)


def reserved_slots(specs, zone, surface: int) -> int:
    """Spare slots at the end of a zone's track on ``surface``."""
    scheme = specs.spare_scheme
    if scheme == SpareScheme.SECTORS_PER_TRACK or (
        scheme == SpareScheme.SECTORS_PER_CYLINDER and surface == specs.surfaces - 1
    ):
        return min(specs.spare_count, zone.sectors_per_track)
    return 0


def is_spare_track(specs, zone, cylinder: int) -> bool:
    """Under spare-tracks-per-zone sparing, the zone's last ``spare_count //
    surfaces`` cylinders (at least one) hold no LBN."""
    if specs.spare_scheme != SpareScheme.TRACKS_PER_ZONE:
        return False
    return cylinder > zone.end_cylinder - max(1, specs.spare_count // specs.surfaces)


def zone_of(zones, cylinder: int):
    return next(z for z in zones if z.start_cylinder <= cylinder <= z.end_cylinder)


def reference_tables(geometry) -> tuple[list[int], list[int]]:
    """``(first LBN, LBN count)`` of every track, one track at a time: a
    track holds its zone's sectors per track, less its surface's spare
    slots, less its slipped defects (never below zero); a spare track holds
    none; LBNs are numbered track after track."""
    specs = geometry.specs
    slipped = Counter(
        (d.cylinder, d.surface)
        for d in geometry.defects
        if d.handling == DefectHandling.SLIPPED
    )
    firsts, counts, first = [], [], 0
    for zone in geometry.zones:
        for cylinder in range(zone.start_cylinder, zone.end_cylinder + 1):
            spare = is_spare_track(specs, zone, cylinder)
            for surface in range(specs.surfaces):
                count = 0
                if not spare:
                    count = max(
                        0,
                        zone.sectors_per_track
                        - reserved_slots(specs, zone, surface)
                        - slipped[cylinder, surface],
                    )
                firsts.append(first)
                counts.append(count)
                first += count
    return firsts, counts


@st.composite
def disk_specs(draw):
    """A drive shape every layer accepts: ``num_zones <= cylinders`` and
    ``min <= max`` sectors per track.  Spare counts are mostly a drive's
    usual few, but reach past a whole track (up to twice the largest one)
    and past a zone (up to twice the tracks of the largest default zone)."""
    surfaces = draw(st.integers(1, 8))
    cylinders = draw(st.integers(4, 400))
    num_zones = draw(st.integers(1, min(cylinders, 24)))
    min_spt = draw(st.integers(1, 600))
    max_spt = draw(st.integers(min_spt, 1000))
    scheme = draw(st.sampled_from(SpareScheme.ALL))
    zone_tracks = -(-cylinders // num_zones) * surfaces
    limit = 2 * (zone_tracks if scheme == SpareScheme.TRACKS_PER_ZONE else max_spt)
    spare_count = draw(st.integers(0, 16) | st.integers(0, limit))
    model = get_specs(draw(st.sampled_from(available_models())))
    return model.scaled(
        name=f"{model.name} (drawn)",
        surfaces=surfaces,
        num_tracks=cylinders * surfaces,
        num_zones=num_zones,
        min_sectors_per_track=min_spt,
        max_sectors_per_track=max_spt,
        spare_scheme=scheme,
        spare_count=spare_count,
    )


@st.composite
def zone_tables(draw, specs):
    """The default zone table, or an uneven one: distinct cut points, and
    sectors per track non-increasing from the outer zone inwards."""
    if draw(st.booleans()):
        return None
    cylinders = specs.cylinders
    cuts = draw(
        st.lists(
            st.integers(1, cylinders - 1),
            max_size=min(cylinders - 1, 11),
            unique=True,
        )
    )
    bounds = [0, *sorted(cuts), cylinders]
    spts = sorted(
        draw(
            st.lists(
                st.integers(specs.min_sectors_per_track, specs.max_sectors_per_track),
                min_size=len(bounds) - 1,
                max_size=len(bounds) - 1,
            )
        ),
        reverse=True,
    )
    return [
        Zone(
            index=i,
            start_cylinder=start,
            end_cylinder=end - 1,
            sectors_per_track=spt,
            track_skew=specs.track_skew_sectors(spt),
            cylinder_skew=specs.cylinder_skew_sectors(spt),
            first_track=start * specs.surfaces,
        )
        for i, (start, end, spt) in enumerate(zip(bounds, bounds[1:], spts))
    ]


def spare_pool(specs, zones, cylinder: int) -> tuple[int | None, int]:
    """``(pool, slots)``: the spare pool a remapped defect on ``cylinder``
    draws its slot from, and how many slots that pool has.

    With per-track or per-cylinder sparing the pool is the spare slots of
    the cylinder's last track; otherwise it is the drive's last track
    (``None``), a spare track only under spare-tracks-per-zone sparing.  A
    drive without spare space has no slots: its remap would land on a data
    slot.
    """
    scheme = specs.spare_scheme
    if scheme in (SpareScheme.SECTORS_PER_TRACK, SpareScheme.SECTORS_PER_CYLINDER):
        return cylinder, reserved_slots(specs, zone_of(zones, cylinder), specs.surfaces - 1)
    if scheme == SpareScheme.TRACKS_PER_ZONE:
        return None, zones[-1].sectors_per_track
    return None, 0


@st.composite
def defect_lists(draw, specs, zones, max_defects: int = 12):
    """Slipped and remapped defects.  Each candidate lands on a random
    track of a random zone, or on the zone's last cylinder (a spare one
    under spare-tracks-per-zone sparing), at a random slot or at the
    track's last slot (a spare one under per-track and per-cylinder
    sparing).  A remapped candidate on an LBN-holding slot is kept only
    while its :func:`spare_pool` has a free slot.  (A candidate is counted
    as LBN-holding by its slot alone, which may overcount; a kept list is
    feasible all the same.)"""
    defects: dict[tuple[int, int, int], str] = {}
    remaps: dict = {}
    for _ in range(draw(st.integers(0, max_defects))):
        zone = draw(st.sampled_from(zones))
        cylinder = draw(
            st.just(zone.end_cylinder)
            | st.integers(zone.start_cylinder, zone.end_cylinder)
        )
        surface = draw(st.integers(0, specs.surfaces - 1))
        last = zone.sectors_per_track - 1
        sector = draw(st.just(last) | st.integers(0, last))
        handling = draw(st.sampled_from(DefectHandling.ALL))
        if (cylinder, surface, sector) in defects:
            continue
        holds_lbn = not is_spare_track(specs, zone, cylinder) and (
            sector < zone.sectors_per_track - reserved_slots(specs, zone, surface)
        )
        if handling == DefectHandling.REMAPPED and holds_lbn:
            pool, slots = spare_pool(specs, zones, cylinder)
            if remaps.get(pool, 0) == slots:
                continue  # the pool is full: this drive could not remap it
            remaps[pool] = remaps.get(pool, 0) + 1
        defects[(cylinder, surface, sector)] = handling
    return DefectList(Defect(*slot, handling=h) for slot, h in defects.items())


@st.composite
def geometries(draw, defects: bool = True):
    """A built geometry from :func:`disk_specs`, :func:`zone_tables` and
    (unless ``defects`` is False) :func:`defect_lists`."""
    specs = draw(disk_specs())
    zones = draw(zone_tables(specs))
    drawn = DefectList.empty()
    if defects:
        drawn = draw(defect_lists(specs, zones or default_zones(specs)))
    return DiskGeometry(specs, zones=zones, defects=drawn)
