"""Track-aligned extent allocation.

Section 3.2 of the paper: to benefit from track boundaries, on-disk
placement must support variable-sized extents, choosing extent ranges that
fit track boundaries.  Two styles are covered:

* :class:`ExtentAllocator` -- a general variable-sized-extent allocator
  over a :class:`~repro.core.traxtent.TraxtentMap`; this is what an
  extent-based file system (XFS/NTFS-style), an LFS choosing segment homes,
  or a video server laying out stripe units would use.

* :func:`excluded_blocks` -- the helper a *block-based* file system (FFS,
  ext2) needs: the set of fixed-size blocks that straddle a track boundary
  and should be left unallocated ("excluded blocks", Section 4.2.2).  The
  paper reports about one excluded block in twenty for the Atlas 10K and
  one in thirty for the Atlas 10K II.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterator

from .traxtent import Traxtent, TraxtentMap


class AllocationError(Exception):
    """Raised when a request for disk space cannot be satisfied."""


@dataclass(frozen=True)
class Extent:
    """An allocated range of LBNs (may be smaller than a full traxtent)."""

    first_lbn: int
    length: int

    @property
    def end_lbn(self) -> int:
        return self.first_lbn + self.length

    @property
    def last_lbn(self) -> int:
        return self.end_lbn - 1


@dataclass
class AllocationStats:
    """Aggregate allocator behaviour, for evaluation and tests."""

    traxtents_allocated: int = 0
    sectors_allocated: int = 0
    sectors_requested: int = 0
    split_allocations: int = 0
    single_traxtent_fits: int = 0


class ExtentAllocator:
    """Allocate variable-sized, track-aligned extents.

    The allocator hands out whole traxtents (the common case for mid-size
    and large objects) or sub-extents of a traxtent for small objects,
    always preferring space close to a caller-supplied ``near_lbn`` hint --
    the same locality heuristic FFS uses when it picks "the closest cluster
    of free blocks".
    """

    def __init__(self, traxtents: TraxtentMap) -> None:
        self._map = traxtents
        self._free: list[bool] = [True] * len(traxtents)
        self._starts = [extent.first_lbn for extent in traxtents]
        self.stats = AllocationStats()

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def traxtent_map(self) -> TraxtentMap:
        return self._map

    def free_traxtents(self) -> int:
        return sum(self._free)

    def is_free(self, index: int) -> bool:
        return self._free[index]

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #
    def allocate_traxtent(self, near_lbn: int | None = None) -> Traxtent:
        """Allocate the free traxtent closest to ``near_lbn`` (or the first
        free one when no hint is given)."""
        index = self._closest_free(near_lbn)
        if index is None:
            raise AllocationError("no free traxtents remain")
        self._free[index] = False
        extent = self._map[index]
        self.stats.traxtents_allocated += 1
        self.stats.sectors_allocated += extent.length
        self.stats.sectors_requested += extent.length
        return extent

    def allocate(self, sectors: int, near_lbn: int | None = None) -> list[Extent]:
        """Allocate ``sectors`` worth of space as track-aligned extents.

        Mid-size requests (up to one track) are placed inside a single
        traxtent whenever one is free; larger requests receive a sequence
        of whole traxtents followed by a final partial extent.  The unused
        tail of a partially-used traxtent is *not* handed back -- matching
        the paper's observation that a system either reserves whole
        traxtents (preallocation) or tolerates a few percent of waste.
        """
        if sectors <= 0:
            raise AllocationError("must allocate a positive number of sectors")
        allocated: list[Extent] = []
        remaining = sectors
        hint = near_lbn
        while remaining > 0:
            traxtent = self.allocate_traxtent(near_lbn=hint)
            take = min(remaining, traxtent.length)
            allocated.append(Extent(traxtent.first_lbn, take))
            self.stats.sectors_requested += take - traxtent.length  # undo double count
            remaining -= take
            hint = traxtent.end_lbn
        if len(allocated) == 1:
            self.stats.single_traxtent_fits += 1
        else:
            self.stats.split_allocations += 1
        return allocated

    def free(self, extent: Traxtent | Extent) -> None:
        """Return a previously allocated traxtent to the free pool."""
        index = self._index_of(extent.first_lbn)
        if self._free[index]:
            raise AllocationError(
                f"traxtent at LBN {extent.first_lbn} is already free"
            )
        self._free[index] = True

    def reserve_range(self, start_lbn: int, end_lbn: int) -> int:
        """Mark every traxtent overlapping [start_lbn, end_lbn) as used
        (e.g. space taken by superblocks or another partition).  Returns the
        number of traxtents reserved."""
        reserved = 0
        for extent in self._map.extents_in_range(start_lbn, end_lbn):
            index = self._index_of(extent.first_lbn)
            if self._free[index]:
                self._free[index] = False
                reserved += 1
        return reserved

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #
    def _index_of(self, first_lbn: int) -> int:
        index = bisect.bisect_left(self._starts, first_lbn)
        if index >= len(self._starts) or self._starts[index] != first_lbn:
            raise AllocationError(f"no traxtent starts at LBN {first_lbn}")
        return index

    def _closest_free(self, near_lbn: int | None) -> int | None:
        if not any(self._free):
            return None
        if near_lbn is None:
            return self._free.index(True)
        pivot = bisect.bisect_right(self._starts, near_lbn) - 1
        pivot = max(0, pivot)
        best: int | None = None
        best_distance = None
        # Expand outwards from the hint; the first free extent in each
        # direction bounds the search.
        for index in range(pivot, len(self._free)):
            if self._free[index]:
                best = index
                best_distance = abs(self._map[index].first_lbn - near_lbn)
                break
        for index in range(min(pivot, len(self._free) - 1), -1, -1):
            if self._free[index]:
                distance = abs(self._map[index].first_lbn - near_lbn)
                if best_distance is None or distance < best_distance:
                    best = index
                break
        return best


# --------------------------------------------------------------------------- #
# Block-based systems: excluded blocks
# --------------------------------------------------------------------------- #

def excluded_blocks(
    traxtents: TraxtentMap,
    block_sectors: int,
    start_lbn: int | None = None,
    end_lbn: int | None = None,
) -> list[int]:
    """Block numbers (of ``block_sectors``-sector blocks) that straddle a
    track boundary and must be excluded from allocation.

    Block ``b`` occupies LBNs ``[b * block_sectors, (b + 1) * block_sectors)``
    relative to LBN 0; callers working inside a partition pass the
    partition's LBN range.
    """
    if block_sectors <= 0:
        raise AllocationError("block size must be positive")
    start = traxtents.first_lbn if start_lbn is None else start_lbn
    end = traxtents.end_lbn if end_lbn is None else end_lbn
    excluded: list[int] = []
    first_block = (start + block_sectors - 1) // block_sectors
    last_block = end // block_sectors
    for extent in traxtents.extents_in_range(start, end):
        boundary = extent.end_lbn
        if boundary >= end:
            continue
        block = boundary // block_sectors
        if block * block_sectors != boundary and first_block <= block < last_block:
            excluded.append(block)
    return sorted(set(excluded))


def excluded_block_fraction(
    traxtents: TraxtentMap, block_sectors: int
) -> float:
    """Fraction of blocks lost to exclusion (≈1/21 for the Atlas 10K's
    334-sector tracks with 8 KB blocks, ≈1/33 for the Atlas 10K II)."""
    total_blocks = (traxtents.end_lbn - traxtents.first_lbn) // block_sectors
    if total_blocks == 0:
        return 0.0
    return len(excluded_blocks(traxtents, block_sectors)) / total_blocks


def usable_block_runs(
    traxtents: TraxtentMap,
    block_sectors: int,
) -> Iterator[tuple[int, int]]:
    """Yield (first_block, block_count) runs of non-excluded blocks, i.e.
    the cluster candidates a block-based file system sees after marking
    excluded blocks as used."""
    excluded = set(excluded_blocks(traxtents, block_sectors))
    first_block = (traxtents.first_lbn + block_sectors - 1) // block_sectors
    last_block = traxtents.end_lbn // block_sectors
    run_start: int | None = None
    for block in range(first_block, last_block):
        if block in excluded:
            if run_start is not None:
                yield run_start, block - run_start
                run_start = None
        elif run_start is None:
            run_start = block
    if run_start is not None and last_block > run_start:
        yield run_start, last_block - run_start
