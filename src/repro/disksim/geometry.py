"""Zoned disk geometry and the LBN-to-physical mapping.

Modern disks expose a flat array of logical blocks (LBNs) and internally map
them onto (cylinder, surface, sector) triples.  Three firmware policies make
that mapping irregular (Section 3.1 of the paper):

* **zoned recording** -- outer cylinders hold more sectors per track than
  inner ones; the cylinders are partitioned into zones of constant
  sectors-per-track (SPT),
* **spare space** -- some physical sectors are reserved for defect
  management and hold no LBN (several schemes exist; see
  :class:`repro.disksim.specs.SpareScheme`),
* **defect handling** -- slipped defects shift every subsequent LBN on the
  track, remapped defects relocate a single LBN into spare space.

:class:`DiskGeometry` implements all three and provides the ground-truth
track-boundary list that the extraction algorithms in :mod:`repro.core` must
recover without being told.

LBNs are assigned track by track: all sectors of cylinder 0 / surface 0,
then cylinder 0 / surface 1, ..., then cylinder 1 / surface 0, and so on
(Figure 2 of the paper).  Track and cylinder skew rotate the angular
position of each track's first sector so that sequential transfers do not
lose a revolution on every track switch.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Sequence

from .defects import Defect, DefectHandling, DefectList
from .errors import AddressError, GeometryError
from .specs import DiskSpecs, SpareScheme


@dataclass(frozen=True)
class PhysicalAddress:
    """A physical sector slot: (cylinder, surface, sector-on-track)."""

    cylinder: int
    surface: int
    sector: int


@dataclass(frozen=True)
class Zone:
    """A contiguous range of cylinders recorded at the same density."""

    index: int
    start_cylinder: int
    end_cylinder: int  # inclusive
    sectors_per_track: int
    track_skew: int
    cylinder_skew: int
    first_track: int  # global index of the zone's first track
    first_lbn: int = 0  # patched in by DiskGeometry

    @property
    def cylinders(self) -> int:
        return self.end_cylinder - self.start_cylinder + 1


@dataclass(frozen=True)
class TrackExtent:
    """Ground-truth description of one LBN-holding track."""

    track: int
    cylinder: int
    surface: int
    first_lbn: int
    lbn_count: int

    @property
    def last_lbn(self) -> int:
        return self.first_lbn + self.lbn_count - 1


def default_zones(specs: DiskSpecs) -> list[Zone]:
    """Build a zone table for a drive model.

    Cylinders are split into ``specs.num_zones`` nearly equal zones whose
    sectors-per-track interpolate linearly from the outermost (largest) to
    the innermost (smallest) published value.  The outermost zone gets
    exactly ``specs.max_sectors_per_track`` so that the first-zone track
    size quoted in the paper (e.g. 264 KB for the Atlas 10K II) is exact.
    """
    cylinders = specs.cylinders
    num_zones = max(1, min(specs.num_zones, cylinders))
    base = cylinders // num_zones
    extra = cylinders % num_zones
    zones: list[Zone] = []
    start = 0
    for i in range(num_zones):
        count = base + (1 if i < extra else 0)
        if num_zones == 1:
            spt = specs.max_sectors_per_track
        else:
            frac = i / (num_zones - 1)
            spt = round(
                specs.max_sectors_per_track
                - frac * (specs.max_sectors_per_track - specs.min_sectors_per_track)
            )
        zones.append(
            Zone(
                index=i,
                start_cylinder=start,
                end_cylinder=start + count - 1,
                sectors_per_track=spt,
                track_skew=specs.track_skew_sectors(spt),
                cylinder_skew=specs.cylinder_skew_sectors(spt),
                first_track=start * specs.surfaces,
            )
        )
        start += count
    return zones


class DiskGeometry:
    """The complete logical-to-physical mapping of one disk drive."""

    def __init__(
        self,
        specs: DiskSpecs,
        zones: Sequence[Zone] | None = None,
        defects: DefectList | None = None,
    ) -> None:
        self.specs = specs
        self.defects = defects if defects is not None else DefectList.empty()
        self._zones = list(zones) if zones is not None else default_zones(specs)
        self._validate_zones()
        self._surfaces = specs.surfaces
        self._cylinders = specs.cylinders
        self._num_tracks = specs.num_tracks

        # Per-track tables, filled by _build().
        self._track_first_lbn: list[int] = []
        self._track_lbn_count: list[int] = []
        self._remap_by_lbn: dict[int, PhysicalAddress] = {}
        self._remapped_slots: dict[tuple[int, int], set[int]] = {}
        self._total_lbns = 0
        # Memo caches for the hot translation paths (values are pure
        # functions of the immutable geometry, so sharing is safe).
        self._skew_cache: dict[int, int] = {}
        self._build()
        self._has_defects = bool(self.defects) or bool(self._remap_by_lbn)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def _validate_zones(self) -> None:
        if not self._zones:
            raise GeometryError("zone table is empty")
        expected_start = 0
        for zone in self._zones:
            if zone.start_cylinder != expected_start:
                raise GeometryError(
                    f"zone {zone.index} starts at cylinder {zone.start_cylinder}, "
                    f"expected {expected_start}"
                )
            if zone.end_cylinder < zone.start_cylinder:
                raise GeometryError(f"zone {zone.index} has negative extent")
            if zone.sectors_per_track <= 0:
                raise GeometryError(f"zone {zone.index} has no sectors per track")
            expected_start = zone.end_cylinder + 1
        if expected_start != self.specs.cylinders:
            raise GeometryError(
                f"zone table covers {expected_start} cylinders, drive has "
                f"{self.specs.cylinders}"
            )

    def _reserved_spares(self, zone: Zone, surface: int) -> int:
        """Number of physical slots at the end of this zone's tracks on
        ``surface`` reserved as spare space by the drive's sparing scheme."""
        scheme = self.specs.spare_scheme
        count = self.specs.spare_count
        if scheme == SpareScheme.NONE:
            return 0
        if scheme == SpareScheme.SECTORS_PER_TRACK:
            return min(count, zone.sectors_per_track)
        if scheme == SpareScheme.SECTORS_PER_CYLINDER:
            if surface == self._surfaces - 1:
                return min(count, zone.sectors_per_track)
            return 0
        if scheme == SpareScheme.TRACKS_PER_ZONE:
            # handled at whole-cylinder granularity by _spare_cylinders
            return 0
        raise GeometryError(f"unhandled spare scheme {scheme!r}")

    def _spare_cylinders(self, zone: Zone) -> int:
        """Number of whole spare cylinders at the end of ``zone``.

        Only spare-tracks-per-zone sparing has them: ``spare_count`` tracks
        rounded down to whole cylinders, at least one and at most the
        zone's own cylinders.
        """
        if self.specs.spare_scheme != SpareScheme.TRACKS_PER_ZONE:
            return 0
        return min(zone.cylinders, max(1, self.specs.spare_count // self._surfaces))

    def _is_spare_track(self, zone: Zone, cylinder: int) -> bool:
        return cylinder > zone.end_cylinder - self._spare_cylinders(zone)

    def _build(self) -> None:
        """Fill the per-track LBN tables, one zone at a time.

        A track holds its zone's sectors per track, less the spare slots its
        surface reserves, less its slipped defects (never below zero); a
        spare track holds none.  Without defects a track's count depends
        only on its zone, its surface and whether its cylinder is one of
        the zone's trailing spare cylinders.  So each zone contributes one
        per-cylinder pattern (a count per surface) repeated over its data
        cylinders, then zeros for its spare cylinders, and the slipped
        defects are subtracted afterwards on the tracks that hold them.
        Each track's first LBN is the running sum of the counts before it.
        """
        surfaces = self._surfaces
        counts: list[int] = []
        for zone in self._zones:
            spare = self._spare_cylinders(zone)
            pattern = [
                zone.sectors_per_track - self._reserved_spares(zone, surface)
                for surface in range(surfaces)
            ]
            counts += pattern * (zone.cylinders - spare)
            counts += [0] * (surfaces * spare)
        # A defect list may name tracks this drive does not have; they hold
        # none of its LBNs.
        for defect in self.defects:
            if (
                defect.handling == DefectHandling.SLIPPED
                and defect.cylinder < self._cylinders
                and defect.surface < surfaces
            ):
                track = defect.cylinder * surfaces + defect.surface
                counts[track] = max(0, counts[track] - 1)
        firsts = list(accumulate(counts, initial=0))
        self._total_lbns = firsts.pop()
        self._track_first_lbn = firsts
        self._track_lbn_count = counts
        # patch zone first_lbn values
        patched = []
        for zone in self._zones:
            patched.append(
                Zone(
                    index=zone.index,
                    start_cylinder=zone.start_cylinder,
                    end_cylinder=zone.end_cylinder,
                    sectors_per_track=zone.sectors_per_track,
                    track_skew=zone.track_skew,
                    cylinder_skew=zone.cylinder_skew,
                    first_track=zone.first_track,
                    first_lbn=firsts[zone.first_track],
                )
            )
        self._zones = patched
        self._assign_spare_slots()

    def _assign_spare_slots(self) -> None:
        """Pick a spare physical slot for every remapped defect."""
        used: dict[tuple[int, int], int] = {}
        for defect in self.defects.remapped():
            lbn = self._nominal_lbn_of_slot(defect.cylinder, defect.surface, defect.sector)
            if lbn is None:
                # The defective slot is itself spare space; nothing to remap.
                continue
            spare = self._next_spare_slot(defect, used)
            self._remap_by_lbn[lbn] = spare
            self._remapped_slots.setdefault(
                (defect.cylinder, defect.surface), set()
            ).add(defect.sector)

    def _next_spare_slot(
        self, defect: Defect, used: dict[tuple[int, int], int]
    ) -> PhysicalAddress:
        """Allocate the next unused slot of ``defect``'s spare pool, from
        the end of the pool's track.

        With per-track or per-cylinder sparing the pool is the spare slots
        of the last surface of the defect's own cylinder; with spare tracks
        per zone it is the drive's last track, a spare one; a drive without
        spare space has none.  A full pool raises :class:`GeometryError`:
        its next slot would be a data slot holding another LBN.
        """
        scheme = self.specs.spare_scheme
        surface = self._surfaces - 1
        if scheme in (SpareScheme.SECTORS_PER_CYLINDER, SpareScheme.SECTORS_PER_TRACK):
            cylinder = defect.cylinder
            zone = self.zone_of_cylinder(cylinder)
            slots = self._reserved_spares(zone, surface)
        else:
            cylinder = self._cylinders - 1
            zone = self.zone_of_cylinder(cylinder)
            slots = zone.sectors_per_track if scheme == SpareScheme.TRACKS_PER_ZONE else 0
        key = (cylinder, surface)
        index = used.get(key, 0)
        if index >= slots:
            raise GeometryError(
                f"no spare slot left for the remapped defect at cylinder "
                f"{defect.cylinder}, surface {defect.surface}, sector "
                f"{defect.sector}: its pool, {slots} slots on cylinder "
                f"{cylinder}, surface {surface} under spare scheme {scheme!r}, "
                f"is full"
            )
        used[key] = index + 1
        return PhysicalAddress(cylinder, surface, zone.sectors_per_track - 1 - index)

    def _nominal_lbn_of_slot(
        self, cylinder: int, surface: int, sector: int
    ) -> int | None:
        """LBN that slot would hold ignoring remapping (None for spare or
        slipped slots)."""
        track = self.track_index(cylinder, surface)
        zone = self.zone_of_cylinder(cylinder)
        if self._is_spare_track(zone, cylinder):
            return None
        reserved = self._reserved_spares(zone, surface)
        data_slots = zone.sectors_per_track - reserved
        if sector >= data_slots:
            return None
        slipped = [d.sector for d in self.defects.slipped_on_track(cylinder, surface)]
        if sector in slipped:
            return None
        offset = sector - sum(1 for s in slipped if s < sector)
        if offset >= self._track_lbn_count[track]:
            return None
        return self._track_first_lbn[track] + offset

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #
    @property
    def zones(self) -> list[Zone]:
        return list(self._zones)

    @property
    def has_defects(self) -> bool:
        """True when the mapping is perturbed by slipped or remapped
        defects (the batched fast paths bail out to the exact scalar code
        whenever this is set)."""
        return self._has_defects

    @property
    def total_lbns(self) -> int:
        """Number of addressable logical blocks (READ CAPACITY)."""
        return self._total_lbns

    @property
    def num_tracks(self) -> int:
        return self._num_tracks

    @property
    def surfaces(self) -> int:
        return self._surfaces

    @property
    def cylinders(self) -> int:
        return self._cylinders

    def track_to_cyl_surface(self, track: int) -> tuple[int, int]:
        if not 0 <= track < self._num_tracks:
            raise AddressError(f"track {track} out of range")
        return track // self._surfaces, track % self._surfaces

    def track_index(self, cylinder: int, surface: int) -> int:
        if not 0 <= cylinder < self._cylinders:
            raise AddressError(f"cylinder {cylinder} out of range")
        if not 0 <= surface < self._surfaces:
            raise AddressError(f"surface {surface} out of range")
        return cylinder * self._surfaces + surface

    def zone_of_cylinder(self, cylinder: int) -> Zone:
        if not 0 <= cylinder < self._cylinders:
            raise AddressError(f"cylinder {cylinder} out of range")
        lo, hi = 0, len(self._zones) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._zones[mid].end_cylinder < cylinder:
                lo = mid + 1
            else:
                hi = mid
        return self._zones[lo]

    def zone_of_lbn(self, lbn: int) -> Zone:
        track = self.track_of_lbn(lbn)
        cylinder, _ = self.track_to_cyl_surface(track)
        return self.zone_of_cylinder(cylinder)

    def zone_lbn_range(self, zone_index: int) -> tuple[int, int]:
        """(first LBN, last LBN + 1) of a zone."""
        if not 0 <= zone_index < len(self._zones):
            raise AddressError(f"zone {zone_index} out of range")
        zone = self._zones[zone_index]
        start = zone.first_lbn
        if zone_index + 1 < len(self._zones):
            end = self._zones[zone_index + 1].first_lbn
        else:
            end = self._total_lbns
        return start, end

    # ------------------------------------------------------------------ #
    # Track-level queries (ground truth for the core library)
    # ------------------------------------------------------------------ #
    def track_of_lbn(self, lbn: int) -> int:
        if not 0 <= lbn < self._total_lbns:
            raise AddressError(f"LBN {lbn} out of range (0..{self._total_lbns - 1})")
        track = bisect.bisect_right(self._track_first_lbn, lbn) - 1
        # Skip over zero-capacity (spare) tracks that share the same
        # first_lbn value as the next real track.
        while self._track_lbn_count[track] == 0:
            track -= 1
        return track

    def track_bounds(self, track: int) -> tuple[int, int]:
        """(first LBN, LBN count) of a track."""
        if not 0 <= track < self._num_tracks:
            raise AddressError(f"track {track} out of range")
        return self._track_first_lbn[track], self._track_lbn_count[track]

    def track_extents(
        self, start_lbn: int = 0, end_lbn: int | None = None
    ) -> Iterator[TrackExtent]:
        """Iterate the ground-truth extents of the LBN-holding tracks that
        lie wholly inside ``[start_lbn, end_lbn)`` (default: the whole
        drive), in LBN order.

        Only the tracks in the range are visited: the walk starts at the
        first track whose first LBN is at or after ``start_lbn`` (found by
        bisection) and stops at the first LBN-holding track that ends past
        ``end_lbn``.  A track cut by either edge is not yielded.
        """
        end = self._total_lbns if end_lbn is None else end_lbn
        first_lbns = self._track_first_lbn
        counts = self._track_lbn_count
        for track in range(bisect.bisect_left(first_lbns, start_lbn), self._num_tracks):
            count = counts[track]
            if count == 0:
                continue
            first = first_lbns[track]
            if first + count > end:
                return
            cylinder, surface = self.track_to_cyl_surface(track)
            yield TrackExtent(
                track=track,
                cylinder=cylinder,
                surface=surface,
                first_lbn=first,
                lbn_count=count,
            )

    # ------------------------------------------------------------------ #
    # Logical <-> physical translation
    # ------------------------------------------------------------------ #
    def lbn_to_physical(self, lbn: int) -> PhysicalAddress:
        """Translate an LBN to its physical location (remapping included)."""
        if not 0 <= lbn < self._total_lbns:
            raise AddressError(f"LBN {lbn} out of range (0..{self._total_lbns - 1})")
        remapped = self._remap_by_lbn.get(lbn)
        if remapped is not None:
            return remapped
        track = self.track_of_lbn(lbn)
        cylinder, surface = self.track_to_cyl_surface(track)
        offset = lbn - self._track_first_lbn[track]
        slipped = [d.sector for d in self.defects.slipped_on_track(cylinder, surface)]
        sector = offset
        for bad in sorted(slipped):
            if bad <= sector:
                sector += 1
        return PhysicalAddress(cylinder, surface, sector)

    def physical_to_lbn(self, cylinder: int, surface: int, sector: int) -> int | None:
        """Translate a physical slot to the LBN stored there.

        Returns ``None`` for spare slots, slipped defective slots and
        remapped defective slots (which hold no live data in place).
        """
        zone = self.zone_of_cylinder(cylinder)
        if not 0 <= sector < zone.sectors_per_track:
            raise AddressError(
                f"sector {sector} out of range for zone with "
                f"{zone.sectors_per_track} sectors per track"
            )
        if sector in self._remapped_slots.get((cylinder, surface), ()):
            return None
        nominal = self._nominal_lbn_of_slot(cylinder, surface, sector)
        if nominal is None:
            # Could be a spare slot hosting a remapped LBN.
            for lbn, addr in self._remap_by_lbn.items():
                if (addr.cylinder, addr.surface, addr.sector) == (
                    cylinder,
                    surface,
                    sector,
                ):
                    return lbn
            return None
        return nominal

    # ------------------------------------------------------------------ #
    # Angular positions (used by the timing model)
    # ------------------------------------------------------------------ #
    def skew_offset(self, track: int) -> int:
        """Angular offset (in sector slots) of physical slot 0 on ``track``.

        The offset accumulates track skew for every head switch and cylinder
        skew for every cylinder crossing since the start of the zone, which
        is how drives avoid losing a full revolution on sequential track
        switches.
        """
        cached = self._skew_cache.get(track)
        if cached is not None:
            return cached
        cylinder, _ = self.track_to_cyl_surface(track)
        zone = self.zone_of_cylinder(cylinder)
        k = track - zone.first_track
        cylinder_crossings = k // self._surfaces
        head_switches = k - cylinder_crossings
        offset = (
            head_switches * zone.track_skew + cylinder_crossings * zone.cylinder_skew
        ) % zone.sectors_per_track
        self._skew_cache[track] = offset
        return offset

    def slot_angle(self, track: int, sector: int) -> float:
        """Angular position of a physical slot, as a fraction of one
        revolution in [0, 1)."""
        cylinder, _ = self.track_to_cyl_surface(track)
        zone = self.zone_of_cylinder(cylinder)
        return ((sector + self.skew_offset(track)) % zone.sectors_per_track) / float(
            zone.sectors_per_track
        )

    def slot_of_lbn(self, lbn: int) -> int:
        """Physical slot index (on its own track) of an LBN, ignoring
        remapping (remapped LBNs are handled separately by the drive)."""
        return self.lbn_to_physical(lbn).sector

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def for_model(
        cls,
        name: str,
        defects: DefectList | None = None,
    ) -> "DiskGeometry":
        """Geometry for a named drive model from the spec database."""
        from .specs import get_specs

        return cls(get_specs(name), defects=defects)

    @classmethod
    def with_random_defects(
        cls,
        specs: DiskSpecs,
        defect_count: int,
        seed: int = 1,
        remap_fraction: float = 0.2,
    ) -> "DiskGeometry":
        """Geometry with a randomly generated factory defect list."""
        defects = DefectList.random(
            cylinders=specs.cylinders,
            surfaces=specs.surfaces,
            sectors_per_track=specs.min_sectors_per_track,
            count=defect_count,
            seed=seed,
            remap_fraction=remap_fraction,
        )
        return cls(specs, defects=defects)


__all__ = [
    "PhysicalAddress",
    "Zone",
    "TrackExtent",
    "DiskGeometry",
    "default_zones",
    "Defect",
    "DefectHandling",
    "DefectList",
]
