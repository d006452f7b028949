"""Cylinder (block) groups and the free-block map.

FFS partitions the file system into fixed-size block groups (32 MB in the
paper's experiments), each holding a little summary metadata followed by a
large run of data blocks.  Groups localise related data -- files created in
the same directory land in the same group -- which keeps seeks short even
without any track awareness.

The free-block map here is a single flat ``bytearray`` (one byte per block:
0 free, 1 allocated, 2 excluded) shared by all groups, which keeps
allocation scans cheap for multi-gigabyte files while still letting the
policies reason in group terms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .inode import OutOfSpace

FREE = 0
ALLOCATED = 1
EXCLUDED = 2
METADATA = 3


@dataclass(frozen=True)
class GroupSummary:
    """Per-group occupancy snapshot (for tests and reporting)."""

    index: int
    first_block: int
    data_blocks: int
    free_blocks: int
    excluded_blocks: int


class BlockMap:
    """Free/allocated/excluded state for every file-system block."""

    def __init__(
        self,
        total_blocks: int,
        blocks_per_group: int,
        metadata_blocks_per_group: int = 8,
    ) -> None:
        if total_blocks <= 0:
            raise ValueError("file system needs at least one block")
        if blocks_per_group <= metadata_blocks_per_group:
            raise ValueError("block group smaller than its metadata")
        self.total_blocks = total_blocks
        self.blocks_per_group = blocks_per_group
        self.metadata_blocks_per_group = metadata_blocks_per_group
        self._state = bytearray(total_blocks)
        self.num_groups = (total_blocks + blocks_per_group - 1) // blocks_per_group
        for group in range(self.num_groups):
            first = group * blocks_per_group
            for offset in range(min(metadata_blocks_per_group, total_blocks - first)):
                self._state[first + offset] = METADATA

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def group_range(self, group: int) -> tuple[int, int]:
        first = group * self.blocks_per_group
        return first, min(first + self.blocks_per_group, self.total_blocks)

    def is_free(self, block: int) -> bool:
        return 0 <= block < self.total_blocks and self._state[block] == FREE

    def is_excluded(self, block: int) -> bool:
        return 0 <= block < self.total_blocks and self._state[block] == EXCLUDED

    def free_blocks(self) -> int:
        return self._state.count(FREE)

    def summary(self, group: int) -> GroupSummary:
        first, end = self.group_range(group)
        states = self._state[first:end]
        return GroupSummary(
            index=group,
            first_block=first,
            data_blocks=end - first,
            free_blocks=states.count(FREE),
            excluded_blocks=states.count(EXCLUDED),
        )

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def exclude(self, block: int) -> None:
        """Mark a block as excluded (straddles a track boundary)."""
        if self._state[block] == FREE:
            self._state[block] = EXCLUDED

    def allocate(self, block: int) -> None:
        if self._state[block] != FREE:
            raise OutOfSpace(f"block {block} is not free")
        self._state[block] = ALLOCATED

    def release(self, block: int) -> None:
        if self._state[block] == ALLOCATED:
            self._state[block] = FREE

    # ------------------------------------------------------------------ #
    # Search helpers used by the allocation policies
    # ------------------------------------------------------------------ #
    def next_free(self, start: int, limit: int | None = None) -> int | None:
        """First free block at or after ``start`` (within ``limit`` blocks)."""
        end = self.total_blocks if limit is None else min(self.total_blocks, start + limit)
        index = self._state.find(FREE, max(0, start), end)
        return None if index < 0 else index

    def closest_free(self, near: int) -> int | None:
        """Free block closest to ``near`` (searching both directions)."""
        forward = self.next_free(near)
        backward = self._state.rfind(FREE, 0, min(near, self.total_blocks))
        backward = None if backward < 0 else backward
        if forward is None:
            return backward
        if backward is None:
            return forward
        return forward if forward - near <= near - backward else backward

    def free_run_length(self, start: int, cap: int) -> int:
        """Length of the run of free blocks starting at ``start`` (capped)."""
        run = 0
        while run < cap and self.is_free(start + run):
            run += 1
        return run

    def find_free_run(self, near: int, length: int, cap_scan: int = 1 << 20) -> int | None:
        """First block of a run of ``length`` free blocks, preferring runs
        that start at or after ``near`` (wrapping to the beginning)."""
        for base in (near, 0):
            cursor = base
            scanned = 0
            while scanned < cap_scan:
                cursor = self.next_free(cursor)
                if cursor is None:
                    break
                run = self.free_run_length(cursor, length)
                if run >= length:
                    return cursor
                cursor += max(run, 1)
                scanned += max(run, 1)
        return None
