"""An FFS-like file system driving the disk simulator.

This is the stand-in for the paper's FreeBSD 4.0 FFS prototype: a
functional (in-memory metadata, simulated time) file system that turns
application-level ``create`` / ``read`` / ``write`` / ``delete`` calls into
disk requests against a :class:`~repro.disksim.drive.DiskDrive`, using
pluggable allocation and read-ahead policies.

Three variants reproduce the systems compared in Table 2:

========== =============================== ===============================
variant     allocation                      read-ahead
========== =============================== ===============================
default     clustered (McVoy & Kleiman)     history-based, slow ramp-up
fast start  clustered                       32-block window immediately
traxtent    excluded blocks, track-aligned  whole traxtents, boundary clip
========== =============================== ===============================

The file system owns a simulated clock: every disk request advances it by
the request's response time, and every system call adds a small CPU cost,
so workload "run times" are directly comparable across variants.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.traxtent import TraxtentMap
from ..disksim.drive import DiskDrive
from ..disksim.specs import SECTOR_SIZE
from .allocation import ClusteredAllocation, TraxtentAllocation
from .buffer_cache import BufferCache
from .cylinder_groups import BlockMap
from .inode import FileExists, FileSystemError, Inode, NoSuchFile
from .readahead import (
    DefaultReadAhead,
    FastStartReadAhead,
    ReadState,
    TraxtentReadAhead,
)

#: The three FFS variants evaluated in the paper.
VARIANTS = ("default", "faststart", "traxtent")


@dataclass
class FFSConfig:
    """Tunables of the file-system model (defaults follow the paper)."""

    block_bytes: int = 8192
    block_group_bytes: int = 32 * 1024 * 1024
    metadata_blocks_per_group: int = 8
    max_cluster_blocks: int = 32          # 256 KB write clusters
    max_readahead_blocks: int = 32
    buffer_cache_blocks: int = 8192       # 64 MB of 8 KB blocks
    cpu_per_call_ms: float = 0.05
    cpu_per_block_ms: float = 0.004

    @property
    def block_sectors(self) -> int:
        return self.block_bytes // SECTOR_SIZE

    @property
    def blocks_per_group(self) -> int:
        return self.block_group_bytes // self.block_bytes


@dataclass
class FFSStats:
    """Counters describing how the file system used the disk."""

    disk_reads: int = 0
    disk_writes: int = 0
    sectors_read: int = 0
    sectors_written: int = 0
    disk_time_ms: float = 0.0
    cpu_time_ms: float = 0.0
    files_created: int = 0
    files_deleted: int = 0

    @property
    def io_count(self) -> int:
        return self.disk_reads + self.disk_writes

    @property
    def mean_request_kb(self) -> float:
        total = self.sectors_read + self.sectors_written
        if self.io_count == 0:
            return 0.0
        return total * SECTOR_SIZE / 1024.0 / self.io_count

    def to_dict(self) -> dict[str, float]:
        """JSON-serialisable form (used by the scenario facade's RunResult)."""
        return {
            "disk_reads": float(self.disk_reads),
            "disk_writes": float(self.disk_writes),
            "sectors_read": float(self.sectors_read),
            "sectors_written": float(self.sectors_written),
            "disk_time_ms": self.disk_time_ms,
            "cpu_time_ms": self.cpu_time_ms,
            "files_created": float(self.files_created),
            "files_deleted": float(self.files_deleted),
            "mean_request_kb": self.mean_request_kb,
        }


class FFS:
    """The file-system engine."""

    def __init__(
        self,
        drive: DiskDrive,
        partition_start_lbn: int = 0,
        partition_sectors: int | None = None,
        variant: str = "default",
        traxtents: TraxtentMap | None = None,
        config: FFSConfig | None = None,
    ) -> None:
        if variant not in VARIANTS:
            raise FileSystemError(f"unknown FFS variant {variant!r}")
        self.drive = drive
        self.variant = variant
        self.config = config or FFSConfig()
        total = drive.geometry.total_lbns
        if partition_sectors is None:
            partition_sectors = total - partition_start_lbn
        if partition_start_lbn + partition_sectors > total:
            raise FileSystemError("partition extends beyond the device")
        self.partition_start = partition_start_lbn
        self.partition_sectors = partition_sectors
        total_blocks = partition_sectors // self.config.block_sectors
        self.blockmap = BlockMap(
            total_blocks=total_blocks,
            blocks_per_group=self.config.blocks_per_group,
            metadata_blocks_per_group=self.config.metadata_blocks_per_group,
        )
        self.cache = BufferCache(self.config.buffer_cache_blocks)

        # ----- policies ------------------------------------------------ #
        if variant == "traxtent":
            if traxtents is None:
                traxtents = TraxtentMap.from_geometry(
                    drive.geometry,
                    partition_start_lbn,
                    partition_start_lbn + partition_sectors,
                )
            self.traxtents = traxtents
            self.allocation = TraxtentAllocation(
                traxtents, partition_start_lbn, self.config.block_sectors
            )
            self.readahead = TraxtentReadAhead(
                self.allocation, self.config.max_readahead_blocks
            )
        else:
            self.traxtents = traxtents
            self.allocation = ClusteredAllocation()
            if variant == "faststart":
                self.readahead = FastStartReadAhead(self.config.max_readahead_blocks)
            else:
                self.readahead = DefaultReadAhead(self.config.max_readahead_blocks)
        self.allocation.prepare(self.blockmap)

        # ----- state ---------------------------------------------------- #
        self.now_ms = 0.0
        self.stats = FFSStats()
        self._inodes: dict[str, Inode] = {}
        self._next_inode = 2
        self._next_group = 0
        self._read_state: dict[str, ReadState] = {}
        self._dirty_runs: dict[str, list[int]] = {}

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _lbn_of_block(self, blkno: int) -> int:
        return self.partition_start + blkno * self.config.block_sectors

    def _charge_cpu(self, calls: int = 1, blocks: int = 0) -> None:
        cost = calls * self.config.cpu_per_call_ms + blocks * self.config.cpu_per_block_ms
        self.now_ms += cost
        self.stats.cpu_time_ms += cost

    def _disk_read(self, blkno: int, blocks: int) -> None:
        lbn = self._lbn_of_block(blkno)
        count = blocks * self.config.block_sectors
        done = self.drive.read(lbn, count, self.now_ms)
        self.now_ms = done.completion
        self.stats.disk_reads += 1
        self.stats.sectors_read += count
        self.stats.disk_time_ms += done.response_time

    def _disk_write(self, blkno: int, blocks: int) -> None:
        lbn = self._lbn_of_block(blkno)
        count = blocks * self.config.block_sectors
        done = self.drive.write(lbn, count, self.now_ms)
        self.now_ms = done.completion
        self.stats.disk_writes += 1
        self.stats.sectors_written += count
        self.stats.disk_time_ms += done.response_time

    def _inode(self, path: str) -> Inode:
        try:
            return self._inodes[path]
        except KeyError:
            raise NoSuchFile(path) from None

    # ------------------------------------------------------------------ #
    # Namespace operations
    # ------------------------------------------------------------------ #
    def exists(self, path: str) -> bool:
        return path in self._inodes

    def mkdir(self, path: str) -> Inode:
        """Create a directory; new directories rotate across block groups,
        which is how FFS spreads unrelated data over the disk."""
        if path in self._inodes:
            raise FileExists(path)
        self._charge_cpu()
        group = self._next_group % self.blockmap.num_groups
        self._next_group += 1
        inode = Inode(self._next_inode, path, is_directory=True, group=group)
        self._next_inode += 1
        self._inodes[path] = inode
        return inode

    def create(self, path: str, expected_bytes: int | None = None) -> Inode:
        """Create an empty regular file.

        ``expected_bytes`` is an optional size hint: the traxtent allocator
        uses it to fit mid-size files entirely within one traxtent.
        """
        if path in self._inodes:
            raise FileExists(path)
        self._charge_cpu()
        parent = path.rsplit("/", 1)[0] if "/" in path else ""
        if parent and parent in self._inodes:
            group = self._inodes[parent].group
        else:
            group = self._next_group % self.blockmap.num_groups
        inode = Inode(self._next_inode, path, group=group)
        self._next_inode += 1
        if expected_bytes:
            inode_hint = (expected_bytes + self.config.block_bytes - 1) // self.config.block_bytes
            inode.blocks.append(
                self.allocation.allocate_first_block(self.blockmap, inode, inode_hint)
            )
            # The hinted first block is part of the file but holds no data
            # yet; treat it as the first data block when writing.
            inode.size_bytes = 0
        self._inodes[path] = inode
        self.stats.files_created += 1
        return inode

    def delete(self, path: str) -> None:
        inode = self._inode(path)
        self._charge_cpu(blocks=len(inode.blocks) // 64 + 1)
        self._flush_file(path)
        for blkno in inode.blocks:
            self.allocation.free_block(self.blockmap, blkno)
            self.cache.invalidate(blkno)
        del self._inodes[path]
        self._read_state.pop(path, None)
        self._dirty_runs.pop(path, None)
        self.stats.files_deleted += 1

    # ------------------------------------------------------------------ #
    # Data path: writes
    # ------------------------------------------------------------------ #
    def write(self, path: str, nbytes: int, sync: bool = False) -> None:
        """Append ``nbytes`` to the file (creating blocks as needed).

        FFS-style delayed writes: dirty blocks are committed as soon as a
        complete cluster (default) or a complete traxtent (traxtent
        variant) of contiguous dirty blocks exists; ``sync`` forces
        everything out immediately (small synchronous metadata-ish writes).
        """
        if nbytes <= 0:
            return
        inode = self._inode(path)
        block_bytes = self.config.block_bytes
        self._charge_cpu(blocks=(nbytes + block_bytes - 1) // block_bytes)
        remaining = nbytes
        while remaining > 0:
            index = inode.size_bytes // block_bytes
            within = inode.size_bytes % block_bytes
            if index < len(inode.blocks):
                # Either filling the partial tail block or using a block
                # preallocated at create() time.
                blkno = inode.blocks[index]
            else:
                blkno = self.allocation.allocate_block(self.blockmap, inode)
                inode.blocks.append(blkno)
            take = min(remaining, block_bytes - within)
            remaining -= take
            inode.size_bytes += take
            self.cache.insert_dirty(blkno)
            self._note_dirty(path, blkno)
            self._maybe_flush(path)
        if sync:
            self._flush_file(path)

    def _note_dirty(self, path: str, blkno: int) -> None:
        run = self._dirty_runs.setdefault(path, [])
        if run and blkno == run[-1]:
            # Repeated small writes into the same (tail) block.
            return
        if run and blkno != run[-1] + 1:
            # Physically discontiguous: commit what we have and restart.
            self._flush_run(run)
            run.clear()
        run.append(blkno)

    def _cluster_limit(self, run: list[int]) -> int:
        """Dirty-run length that triggers a commit."""
        if isinstance(self.allocation, TraxtentAllocation):
            return min(
                self.config.max_cluster_blocks * 4,
                self.allocation.blocks_to_boundary(run[0]),
            )
        return self.config.max_cluster_blocks

    def _maybe_flush(self, path: str) -> None:
        run = self._dirty_runs.get(path)
        if not run:
            return
        if len(run) >= self._cluster_limit(run):
            self._flush_run(run)
            run.clear()

    def _flush_run(self, run: list[int]) -> None:
        if not run:
            return
        self._disk_write(run[0], len(run))
        for blkno in run:
            self.cache.mark_clean(blkno)

    def _flush_file(self, path: str) -> None:
        run = self._dirty_runs.get(path)
        if run:
            self._flush_run(run)
            run.clear()

    def sync(self) -> None:
        """Flush every dirty run (the workloads call this at the end so run
        times include all write-back)."""
        for path in list(self._dirty_runs):
            self._flush_file(path)

    def drop_caches(self) -> None:
        """Flush dirty data and empty both the OS buffer cache and the
        drive's firmware cache -- the state of a freshly-booted system,
        which is how the paper runs every macro-benchmark."""
        self.sync()
        self.cache.invalidate_all()
        self.drive.cache.invalidate()

    # ------------------------------------------------------------------ #
    # Data path: reads
    # ------------------------------------------------------------------ #
    def read(self, path: str, offset: int, nbytes: int) -> int:
        """Read ``nbytes`` at ``offset``; returns the number of bytes read
        (clipped at end of file).  Only timing is modelled; no data moves."""
        inode = self._inode(path)
        if offset >= inode.size_bytes or nbytes <= 0:
            self._charge_cpu()
            return 0
        nbytes = min(nbytes, inode.size_bytes - offset)
        block_bytes = self.config.block_bytes
        first_block = offset // block_bytes
        last_block = (offset + nbytes - 1) // block_bytes
        self._charge_cpu(blocks=last_block - first_block + 1)
        state = self._read_state.setdefault(path, ReadState())
        lblkno = first_block
        while lblkno <= last_block:
            blkno = inode.blkno_of(lblkno)
            if self.cache.lookup(blkno):
                lblkno += 1
                continue
            run = inode.contiguous_run(lblkno)
            fetch = self.readahead.request_blocks(inode, lblkno, run, state)
            fetch = max(1, min(fetch, inode.block_count - lblkno))
            self._disk_read(blkno, fetch)
            for i in range(fetch):
                self.cache.insert_clean(inode.blkno_of(lblkno + i))
            lblkno += fetch
        state.update(first_block, last_block - first_block + 1)
        return nbytes

    def read_all(self, path: str, chunk_bytes: int = 64 * 1024) -> int:
        """Sequentially read an entire file in ``chunk_bytes`` application
        requests; returns total bytes read."""
        inode = self._inode(path)
        offset = 0
        while offset < inode.size_bytes:
            offset += self.read(path, offset, chunk_bytes)
        return offset

    # ------------------------------------------------------------------ #
    # Introspection helpers used by tests and benchmarks
    # ------------------------------------------------------------------ #
    def stat(self, path: str) -> Inode:
        return self._inode(path)

    def file_lbns(self, path: str) -> list[int]:
        """Starting LBN of every block of the file, in logical order."""
        inode = self._inode(path)
        return [self._lbn_of_block(blkno) for blkno in inode.blocks]

    def excluded_block_count(self) -> int:
        if isinstance(self.allocation, TraxtentAllocation):
            return len(self.allocation.excluded_blocks)
        return 0

    def elapsed_seconds(self) -> float:
        return self.now_ms / 1000.0
