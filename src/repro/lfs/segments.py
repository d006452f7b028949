"""LFS segments and the segment usage table.

A log-structured file system writes all new data into large contiguous
*segments*.  The segment usage table records, for every segment, how many of
its blocks are still live; the cleaner consults it to pick victims.  To
match segments to track boundaries (Section 5.5.1) the table also stores
each segment's starting LBN and length, so segment sizes may vary from track
to track exactly as the paper's modified segment usage table does.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.traxtent import TraxtentMap


class LFSError(Exception):
    """Raised for inconsistent LFS states."""


@dataclass
class Segment:
    """One log segment."""

    index: int
    start_lbn: int
    length_sectors: int
    live_sectors: int = 0
    written: bool = False

    @property
    def utilization(self) -> float:
        if self.length_sectors == 0:
            return 0.0
        return self.live_sectors / self.length_sectors

    @property
    def is_clean(self) -> bool:
        return not self.written


class SegmentUsageTable:
    """The per-segment bookkeeping structure (SpriteLFS keeps it in memory
    and checkpoints it; BSD-LFS stores it in the IFILE)."""

    def __init__(self, segments: list[Segment]) -> None:
        if not segments:
            raise LFSError("an LFS needs at least one segment")
        self._segments = segments

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._segments)

    def __getitem__(self, index: int) -> Segment:
        return self._segments[index]

    def __iter__(self):
        return iter(self._segments)

    def clean_segments(self) -> list[Segment]:
        return [s for s in self._segments if s.is_clean]

    def dirty_segments(self) -> list[Segment]:
        return [s for s in self._segments if s.written]

    def total_sectors(self) -> int:
        return sum(s.length_sectors for s in self._segments)

    def live_sectors(self) -> int:
        return sum(s.live_sectors for s in self._segments)

    def pick_cleaning_victims(self, needed: int) -> list[Segment]:
        """Greedy cleaner: written segments in order of lowest utilization."""
        victims = sorted(self.dirty_segments(), key=lambda s: s.utilization)
        return victims[:needed]

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def fixed_size(
        cls, start_lbn: int, total_sectors: int, segment_sectors: int
    ) -> "SegmentUsageTable":
        """Conventional LFS layout: equal-sized segments, no track
        knowledge."""
        if segment_sectors <= 0:
            raise LFSError("segment size must be positive")
        segments = []
        cursor = start_lbn
        end = start_lbn + total_sectors
        index = 0
        while cursor + segment_sectors <= end:
            segments.append(Segment(index, cursor, segment_sectors))
            cursor += segment_sectors
            index += 1
        return cls(segments)

    @classmethod
    def track_aligned(
        cls,
        traxtents: TraxtentMap,
        tracks_per_segment: int = 1,
    ) -> "SegmentUsageTable":
        """Variable-sized segments matched to track boundaries: each segment
        covers ``tracks_per_segment`` whole traxtents."""
        if tracks_per_segment <= 0:
            raise LFSError("tracks_per_segment must be positive")
        segments: list[Segment] = []
        extents = list(traxtents)
        index = 0
        for base in range(0, len(extents) - tracks_per_segment + 1, tracks_per_segment):
            group = extents[base : base + tracks_per_segment]
            contiguous = all(
                group[i].end_lbn == group[i + 1].first_lbn for i in range(len(group) - 1)
            )
            if not contiguous:
                continue
            segments.append(
                Segment(
                    index,
                    group[0].first_lbn,
                    group[-1].end_lbn - group[0].first_lbn,
                )
            )
            index += 1
        return cls(segments)
