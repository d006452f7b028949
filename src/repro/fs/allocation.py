"""Block-allocation policies: clustered FFS allocation and the traxtent-aware
variant.

The default FreeBSD FFS policy (McVoy & Kleiman) allocates each new block of
a file at the physical block immediately following the previous one, falling
back to the closest free cluster when the preferred block is taken.  The
traxtent-aware policy (Section 4.2.2) changes two things only:

* blocks that straddle a track boundary are *excluded* -- marked used in the
  free-block map so no file ever receives one, and
* when the preferred block is excluded (or taken), allocation restarts at
  the first block of the closest traxtent with free space, so files remain
  track-aligned; mid-size files whose expected length fits in one track are
  placed into a single free traxtent.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.allocator import excluded_blocks
from ..core.traxtent import TraxtentMap
from .cylinder_groups import BlockMap
from .inode import Inode, OutOfSpace


@dataclass
class AllocationCounters:
    blocks_allocated: int = 0
    sequential_hits: int = 0
    relocations: int = 0
    traxtent_jumps: int = 0


class ClusteredAllocation:
    """Default FFS behaviour: next sequential block, else closest free."""

    name = "clustered"

    def __init__(self) -> None:
        self.counters = AllocationCounters()

    # ------------------------------------------------------------------ #
    def prepare(self, blockmap: BlockMap) -> None:
        """Hook for policies that pre-reserve blocks (no-op here)."""

    def allocate_first_block(
        self, blockmap: BlockMap, inode: Inode, expected_blocks: int | None = None
    ) -> int:
        """Pick the starting block for a brand-new file: the first free
        block in the inode's group (locality with its directory)."""
        group_start, group_end = blockmap.group_range(inode.group)
        candidate = blockmap.next_free(group_start, group_end - group_start)
        if candidate is None:
            candidate = blockmap.next_free(0)
        if candidate is None:
            raise OutOfSpace("file system is full")
        return self._take(blockmap, candidate)

    def allocate_block(self, blockmap: BlockMap, inode: Inode) -> int:
        """Allocate the next block of an existing file."""
        last = inode.last_blkno()
        if last is None:
            return self.allocate_first_block(blockmap, inode)
        preferred = last + 1
        if blockmap.is_free(preferred):
            self.counters.sequential_hits += 1
            return self._take(blockmap, preferred)
        candidate = blockmap.closest_free(preferred)
        if candidate is None:
            raise OutOfSpace("file system is full")
        self.counters.relocations += 1
        return self._take(blockmap, candidate)

    def free_block(self, blockmap: BlockMap, blkno: int) -> None:
        blockmap.release(blkno)

    # ------------------------------------------------------------------ #
    def _take(self, blockmap: BlockMap, blkno: int) -> int:
        blockmap.allocate(blkno)
        self.counters.blocks_allocated += 1
        return blkno


class TraxtentAllocation(ClusteredAllocation):
    """Traxtent-aware allocation: excluded blocks plus track-aligned jumps."""

    name = "traxtent"

    def __init__(
        self,
        traxtents: TraxtentMap,
        partition_start_lbn: int,
        block_sectors: int,
    ) -> None:
        super().__init__()
        self._map = traxtents
        self._partition_start = partition_start_lbn
        self._block_sectors = block_sectors
        #: per-traxtent (first_block, block_count) for whole blocks fully
        #: inside the traxtent, precomputed in prepare()
        self._traxtent_blocks: list[tuple[int, int]] = []
        self._traxtent_starts: list[int] = []
        self._excluded: list[int] = []

    # ------------------------------------------------------------------ #
    def prepare(self, blockmap: BlockMap) -> None:
        """Mark excluded blocks as used and precompute per-traxtent block
        runs."""
        self._excluded = [
            block
            for block in self._relative_excluded()
            if 0 <= block < blockmap.total_blocks
        ]
        for block in self._excluded:
            blockmap.exclude(block)
        self._traxtent_blocks = []
        for extent in self._map:
            first_rel = extent.first_lbn - self._partition_start
            first_block = (first_rel + self._block_sectors - 1) // self._block_sectors
            end_block = (first_rel + extent.length) // self._block_sectors
            if end_block > first_block:
                self._traxtent_blocks.append((first_block, end_block - first_block))
        self._traxtent_starts = [first for first, _ in self._traxtent_blocks]

    def _relative_excluded(self) -> list[int]:
        shifted = TraxtentMap.from_pairs(
            [
                (extent.first_lbn - self._partition_start, extent.length)
                for extent in self._map
            ]
        )
        return excluded_blocks(shifted, self._block_sectors)

    # ------------------------------------------------------------------ #
    @property
    def excluded_blocks(self) -> list[int]:
        return list(self._excluded)

    def blocks_to_boundary(self, blkno: int) -> int:
        """Blocks from ``blkno`` (inclusive) to the end of its traxtent --
        the natural clip length for read-ahead and write-back requests."""
        lbn = self._partition_start + blkno * self._block_sectors
        extent = self._map.extent_of(lbn)
        remaining_sectors = extent.end_lbn - lbn
        return max(1, remaining_sectors // self._block_sectors)

    # ------------------------------------------------------------------ #
    def allocate_first_block(
        self, blockmap: BlockMap, inode: Inode, expected_blocks: int | None = None
    ) -> int:
        """Place a new file at the start of a free traxtent near its group;
        mid-size files are fitted entirely within a single traxtent when a
        fully free one exists."""
        group_start, _ = blockmap.group_range(inode.group)
        needed = expected_blocks or 1
        candidate = self._closest_free_traxtent(blockmap, group_start, needed)
        if candidate is None:
            candidate = self._closest_free_traxtent(blockmap, group_start, 1)
        if candidate is None:
            return super().allocate_first_block(blockmap, inode, expected_blocks)
        self.counters.traxtent_jumps += 1
        return self._take(blockmap, candidate)

    def allocate_block(self, blockmap: BlockMap, inode: Inode) -> int:
        last = inode.last_blkno()
        if last is None:
            return self.allocate_first_block(blockmap, inode)
        preferred = last + 1
        if blockmap.is_free(preferred):
            self.counters.sequential_hits += 1
            return self._take(blockmap, preferred)
        # Preferred block is taken or excluded: jump to the closest
        # traxtent that still has free space at its start.
        candidate = self._closest_free_traxtent(blockmap, preferred, 1)
        if candidate is None:
            candidate = blockmap.closest_free(preferred)
            if candidate is None:
                raise OutOfSpace("file system is full")
            self.counters.relocations += 1
            return self._take(blockmap, candidate)
        self.counters.traxtent_jumps += 1
        return self._take(blockmap, candidate)

    # ------------------------------------------------------------------ #
    def _closest_free_traxtent(
        self, blockmap: BlockMap, near_block: int, needed_blocks: int
    ) -> int | None:
        """First block of the traxtent closest to ``near_block`` whose
        leading ``needed_blocks`` blocks are all free.

        The traxtent list is sorted by first block, so the search expands
        outwards from the insertion point of ``near_block`` and stops as
        soon as moving further away cannot improve on the best candidate.
        """
        import bisect

        if not self._traxtent_blocks:
            return None
        pivot = bisect.bisect_left(self._traxtent_starts, near_block)
        n = len(self._traxtent_blocks)

        def usable(index: int) -> bool:
            first_block, count = self._traxtent_blocks[index]
            if count < needed_blocks:
                return False
            return blockmap.free_run_length(first_block, needed_blocks) >= needed_blocks

        # Expand outwards from the insertion point; the first usable
        # traxtent encountered is (essentially) the closest one.
        for delta in range(n):
            forward = pivot + delta
            backward = pivot - 1 - delta
            if forward < n and usable(forward):
                return self._traxtent_blocks[forward][0]
            if backward >= 0 and usable(backward):
                return self._traxtent_blocks[backward][0]
            if forward >= n and backward < 0:
                break
        return None
