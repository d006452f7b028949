"""Media defects and defect management.

Real drives ship with factory ("primary") defects and may grow new ones in
the field.  Defective sectors never hold data; the firmware hides them from
the host by either

* **slipping** -- the LBN-to-physical mapping simply skips the bad sector,
  shifting every subsequent LBN on that track (and, transitively, the first
  LBN of every following track), or
* **remapping** -- the LBN that would have lived in the bad sector is stored
  in a spare sector elsewhere (typically at the end of the cylinder), leaving
  all other mappings untouched but making access to that one LBN expensive.

Section 3.1 of the paper identifies both mechanisms as the reason automatic
track-boundary detection is hard; the geometry model therefore implements
them faithfully.

This module models defects *baked into the geometry* before a run starts.
Defects that appear mid-run (grown defects on a live drive) are the
fault-injection layer's job: :mod:`repro.faults` charges recovery and
revector rotations at service time without mutating the LBN map, precisely
because remapping mid-replay would silently change every subsequent
request's geometry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import GeometryError


class DefectHandling:
    """How the firmware hides a defective sector from the host."""

    SLIPPED = "slipped"
    REMAPPED = "remapped"

    ALL = (SLIPPED, REMAPPED)


@dataclass(frozen=True, order=True)
class Defect:
    """One defective physical sector.

    Physical addresses are (cylinder, surface, physical sector index on the
    track); the sector index refers to the *physical* slot, i.e. it counts
    spare and defective slots too.
    """

    cylinder: int
    surface: int
    sector: int
    handling: str = DefectHandling.SLIPPED

    def __post_init__(self) -> None:
        if self.handling not in DefectHandling.ALL:
            raise GeometryError(f"unknown defect handling {self.handling!r}")
        if min(self.cylinder, self.surface, self.sector) < 0:
            raise GeometryError("defect address components must be non-negative")


class DefectList:
    """A collection of :class:`Defect` objects with fast per-track lookup."""

    def __init__(self, defects: Iterable[Defect] = ()) -> None:
        self._defects: list[Defect] = sorted(defects)
        self._by_track: dict[tuple[int, int], list[Defect]] = {}
        for d in self._defects:
            self._by_track.setdefault((d.cylinder, d.surface), []).append(d)
        for key, items in self._by_track.items():
            sectors = [d.sector for d in items]
            if len(sectors) != len(set(sectors)):
                raise GeometryError(f"duplicate defect on track {key}")

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._defects)

    def __iter__(self) -> Iterator[Defect]:
        return iter(self._defects)

    def __bool__(self) -> bool:
        return bool(self._defects)

    def slipped_on_track(self, cylinder: int, surface: int) -> list[Defect]:
        """Only the slipped defects on the given track."""
        return [
            d
            for d in self._by_track.get((cylinder, surface), ())
            if d.handling == DefectHandling.SLIPPED
        ]

    def remapped(self) -> list[Defect]:
        """All remapped defects on the drive."""
        return [d for d in self._defects if d.handling == DefectHandling.REMAPPED]

    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls) -> "DefectList":
        """A defect-free drive."""
        return cls(())

    @classmethod
    def random(
        cls,
        cylinders: int,
        surfaces: int,
        sectors_per_track: int,
        count: int,
        seed: int = 1,
        remap_fraction: float = 0.2,
    ) -> "DefectList":
        """Generate a plausible factory defect list.

        ``remap_fraction`` of defects are handled by remapping, the rest by
        slipping (slipping is "more efficient and more common" per the
        paper).  ``sectors_per_track`` should be the *smallest* zone's track
        size so every generated sector index is valid in every zone.
        """
        if count < 0:
            raise GeometryError("defect count must be non-negative")
        rng = random.Random(seed)
        seen: set[tuple[int, int, int]] = set()
        defects: list[Defect] = []
        while len(defects) < count:
            addr = (
                rng.randrange(cylinders),
                rng.randrange(surfaces),
                rng.randrange(sectors_per_track),
            )
            if addr in seen:
                continue
            seen.add(addr)
            handling = (
                DefectHandling.REMAPPED
                if rng.random() < remap_fraction
                else DefectHandling.SLIPPED
            )
            defects.append(Defect(*addr, handling=handling))
        return cls(defects)
