"""LBN-range sharding: fan one logical block space out over many drives.

The fleet layer concatenates the LBN spaces of N simulated drives into one
flat global space (drive 0 owns ``[0, C0)``, drive 1 owns ``[C0, C0+C1)``,
and so on) and routes each request to the drive owning its first LBN,
splitting requests that straddle an ownership boundary.  This is the
classic range-striping used by volume managers, and it is what lets one
trace exercise a 4-drive (or 40-drive) fleet without any change to the
workload generators.

Request-count conservation is tracked explicitly: every trace request maps
to one or more routed pieces, and ``routed_requests == trace_requests +
split_extra`` always holds (the replay tests assert it).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator, NamedTuple, Sequence

from ..disksim.drive import READ, DiskDrive, DriveStats, row_problem
from ..disksim.errors import RequestError


class RoutedPiece(NamedTuple):
    """One shard-local piece of a global request."""

    shard: int
    lbn: int  # shard-local LBN
    count: int


class LbnRangeShard:
    """A fleet of drives striped by contiguous global LBN ranges."""

    def __init__(self, drives: Sequence[DiskDrive]) -> None:
        if not drives:
            raise RequestError("a shard fleet needs at least one drive")
        self.drives: list[DiskDrive] = list(drives)
        self._starts: list[int] = []
        start = 0
        for drive in self.drives:
            self._starts.append(start)
            start += drive.geometry.total_lbns
        self._total_lbns = start
        self.routed_requests = 0
        self.split_requests = 0

    # ------------------------------------------------------------------ #
    @classmethod
    def for_model(cls, name: str, n_drives: int) -> "LbnRangeShard":
        """A fleet of ``n_drives`` identical drives of a named model."""
        if n_drives <= 0:
            raise RequestError("n_drives must be positive")
        return cls([DiskDrive.for_model(name) for _ in range(n_drives)])

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.drives)

    def __iter__(self) -> Iterator[DiskDrive]:
        return iter(self.drives)

    @property
    def total_lbns(self) -> int:
        """Capacity of the combined global LBN space."""
        return self._total_lbns

    def shard_of(self, lbn: int) -> int:
        """Index of the drive owning global ``lbn``."""
        if not 0 <= lbn < self._total_lbns:
            raise RequestError(
                f"global LBN {lbn} out of range (0..{self._total_lbns - 1})"
            )
        return bisect_right(self._starts, lbn) - 1

    def shard_range(self, shard: int) -> tuple[int, int]:
        """Global ``[start, end)`` range owned by ``shard``."""
        start = self._starts[shard]
        if shard + 1 < len(self._starts):
            return start, self._starts[shard + 1]
        return start, self._total_lbns

    def route(self, lbn: int, count: int) -> list[RoutedPiece]:
        """Split a global request into shard-local pieces.

        Requests entirely inside one shard (the overwhelmingly common case
        with any sane data layout) return exactly one piece; requests that
        straddle an ownership boundary are split at the boundary.  A bad
        count or LBN, or one past the fleet's capacity, raises
        :class:`RequestError` in :func:`~repro.disksim.drive.row_problem`'s
        words (a routed request has no opcode: ``READ`` passes that clause).
        """
        problem = row_problem(READ, lbn, count, self._total_lbns)
        if problem is not None:
            raise RequestError(problem)
        shard = bisect_right(self._starts, lbn) - 1
        start, end = self.shard_range(shard)
        if lbn + count <= end:
            self.routed_requests += 1
            return [RoutedPiece(shard, lbn - start, count)]
        pieces: list[RoutedPiece] = []
        cursor = lbn
        remaining = count
        while remaining > 0:
            shard = bisect_right(self._starts, cursor) - 1
            start, end = self.shard_range(shard)
            take = min(remaining, end - cursor)
            pieces.append(RoutedPiece(shard, cursor - start, take))
            cursor += take
            remaining -= take
        self.routed_requests += len(pieces)
        self.split_requests += 1
        return pieces

    # ------------------------------------------------------------------ #
    def reset(self, time: float = 0.0) -> None:
        """Reset every drive and the routing counters."""
        for drive in self.drives:
            drive.reset(time)
        self.routed_requests = 0
        self.split_requests = 0

    def combined_stats(self) -> DriveStats:
        """Sum of the per-drive aggregate counters.

        Spare drives standing in for fail-stopped primaries (see
        :mod:`repro.faults`) are included: a redirected request is
        accounted on the spare, not the primary, so the fleet totals
        still conserve request counts.
        """
        members: list[DiskDrive] = []
        for drive in self.drives:
            members.append(drive)
            faults = getattr(drive, "faults", None)
            if faults is not None and faults.spare is not None:
                members.append(faults.spare)
        total = DriveStats()
        for drive in members:
            stats = drive.stats
            total.requests += stats.requests
            total.reads += stats.reads
            total.writes += stats.writes
            total.cache_hits += stats.cache_hits
            total.streamed += stats.streamed
            total.sectors_read += stats.sectors_read
            total.sectors_written += stats.sectors_written
            total.busy_ms += stats.busy_ms
        return total


__all__ = ["LbnRangeShard", "RoutedPiece"]
