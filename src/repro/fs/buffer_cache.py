"""The operating system's block buffer cache.

Holds recently read blocks (for re-use and read-ahead) and dirty blocks
awaiting write-back.  FFS commits dirty buffers as soon as a complete
cluster of contiguous blocks has been written (McVoy & Kleiman clustering),
which is what turns application writes into the large sequential disk
writes whose alignment the paper optimises.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_flushes: int = 0


class BufferCache:
    """LRU cache of file-system blocks, keyed by physical block number."""

    def __init__(self, capacity_blocks: int = 8192) -> None:
        if capacity_blocks <= 0:
            raise ValueError("buffer cache needs a positive capacity")
        self.capacity = capacity_blocks
        self._clean: OrderedDict[int, bool] = OrderedDict()
        self._dirty: set[int] = set()
        self.stats = CacheStats()

    # ------------------------------------------------------------------ #
    def __contains__(self, blkno: int) -> bool:
        return blkno in self._clean or blkno in self._dirty

    def __len__(self) -> int:
        return len(self._clean) + len(self._dirty)

    @property
    def dirty_blocks(self) -> set[int]:
        return set(self._dirty)

    # ------------------------------------------------------------------ #
    def lookup(self, blkno: int) -> bool:
        """True (and refresh LRU position) when the block is resident."""
        if blkno in self._dirty:
            self.stats.hits += 1
            return True
        if blkno in self._clean:
            self._clean.move_to_end(blkno)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def insert_clean(self, blkno: int) -> None:
        """Add a block read from disk (or one whose write-back completed)."""
        if blkno in self._dirty:
            return
        self._clean[blkno] = True
        self._clean.move_to_end(blkno)
        self._evict_if_needed()

    def insert_dirty(self, blkno: int) -> None:
        """Add (or promote) a block with unwritten data."""
        self._clean.pop(blkno, None)
        self._dirty.add(blkno)
        self._evict_if_needed()

    def mark_clean(self, blkno: int) -> None:
        """The block's data reached the disk."""
        if blkno in self._dirty:
            self._dirty.discard(blkno)
            self._clean[blkno] = True
            self.stats.dirty_flushes += 1

    def invalidate(self, blkno: int) -> None:
        self._clean.pop(blkno, None)
        self._dirty.discard(blkno)

    def invalidate_all(self) -> None:
        self._clean.clear()
        self._dirty.clear()

    # ------------------------------------------------------------------ #
    def _evict_if_needed(self) -> None:
        # Dirty blocks are never evicted silently; the file system is
        # responsible for flushing them before the cache overflows.
        while len(self._clean) + len(self._dirty) > self.capacity and self._clean:
            self._clean.popitem(last=False)
            self.stats.evictions += 1
