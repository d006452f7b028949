"""Firmware segment cache with read-ahead (prefetch).

Disk firmware keeps a handful of cache segments and, after servicing a read,
keeps the head busy prefetching the sectors that follow the request.  Two
behaviours of the paper depend on this:

* sequential streams (a single large file read through FFS) run at the
  drive's full streaming rate because successive requests hit the ongoing
  prefetch ("the disk's prefetching logic will ensure that this occurs",
  Section 2.3), and
* naive timing-based track-boundary extraction fails, because re-reading the
  same location hits the cache; the paper's general algorithm interleaves
  100 extraction streams precisely to defeat the cache (Section 4.1.1).

The model keeps an LRU list of cached LBN ranges plus the state of the
currently running prefetch stream.  Prefetch advances at the drive's
streaming rate from the end of the last read until either the read-ahead
limit is reached or a new request arrives.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CacheLookup:
    """Result of probing the cache for a read request."""

    #: True when every requested sector is already buffered.
    full_hit: bool
    #: Number of requested sectors, starting at the request's first LBN,
    #: that are already buffered (0 for a clean miss).
    hit_sectors: int
    #: LBN from which the media transfer may simply continue the active
    #: prefetch stream (no seek, no rotational latency), or None when the
    #: request requires a random repositioning.
    stream_from: int | None


@dataclass
class FirmwareCache:
    """LRU segment cache plus a single active prefetch stream.

    Cached ranges are stored as plain ``(start, end)`` tuples (end
    exclusive), oldest first -- the probe loops below are on the drive's
    per-request hot path.
    """

    num_segments: int = 10
    readahead_sectors: int = 1024
    enable_caching: bool = True
    enable_prefetch: bool = True

    _segments: list[tuple[int, int]] = field(default_factory=list, init=False)
    _prefetch_start: int | None = field(default=None, init=False)
    _prefetch_limit: int = field(default=0, init=False)
    _prefetch_time: float = field(default=0.0, init=False)
    _prefetch_rate_ms: float = field(default=0.0, init=False)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def prefetch_position(self, now: float) -> int | None:
        """LBN the prefetch stream has reached by time ``now`` (or None when
        no prefetch is active)."""
        if not self.enable_prefetch or self._prefetch_start is None:
            return None
        if self._prefetch_rate_ms <= 0:
            return self._prefetch_start
        advanced = int(max(0.0, now - self._prefetch_time) / self._prefetch_rate_ms)
        return min(self._prefetch_start + advanced, self._prefetch_limit)

    def _buffered_until(self, lbn: int, now: float) -> int:
        """Largest LBN ``e`` such that [lbn, e) is entirely buffered."""
        end = lbn
        progressed = True
        while progressed:
            progressed = False
            for start, seg_end in self._segments:
                if start <= end < seg_end:
                    end = seg_end
                    progressed = True
            pos = self.prefetch_position(now)
            if (
                pos is not None
                and self._prefetch_start is not None
                and self._prefetch_start <= end < pos
            ):
                end = pos
                progressed = True
        return end

    def probe(self, lbn: int, count: int, now: float) -> tuple[bool, int, int | None]:
        """Allocation-free cache probe: ``(full_hit, hit_sectors,
        stream_from)``.

        Identical semantics to :meth:`lookup`; the batched drive path uses
        this tuple form to avoid constructing a :class:`CacheLookup` per
        request.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        if not self.enable_caching:
            return False, 0, None
        end = lbn + count
        buffered = self._buffered_until(lbn, now)
        hit = max(0, min(buffered, end) - lbn)
        if hit >= count:
            return True, count, None
        # Can the remainder ride the active prefetch stream?
        stream_from = None
        if self.enable_prefetch and self._prefetch_start is not None:
            pos = self.prefetch_position(now)
            first_missing = lbn + hit
            if pos is not None and pos <= first_missing < self._prefetch_limit:
                stream_from = pos
            elif pos is not None and self._prefetch_start <= first_missing <= pos:
                # The prefetch already passed this point; continue from here.
                stream_from = first_missing
        return False, hit, stream_from

    def lookup(self, lbn: int, count: int, now: float) -> CacheLookup:
        """Probe the cache for a read of ``count`` sectors at ``lbn``."""
        full_hit, hit, stream_from = self.probe(lbn, count, now)
        return CacheLookup(full_hit=full_hit, hit_sectors=hit, stream_from=stream_from)

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def record_read(
        self,
        lbn: int,
        count: int,
        media_end_time: float,
        streaming_ms_per_sector: float,
    ) -> None:
        """Record a completed media read and (re)start prefetch after it."""
        if not self.enable_caching:
            return
        self._insert_segment(lbn, lbn + count)
        if self.enable_prefetch:
            self._prefetch_start = lbn + count
            self._prefetch_limit = lbn + count + self.readahead_sectors
            self._prefetch_time = media_end_time
            self._prefetch_rate_ms = streaming_ms_per_sector
        else:
            self._prefetch_start = None

    def record_write(self, lbn: int, count: int) -> None:
        """A write invalidates any overlapping cached data and cancels
        prefetch (write data itself is not cached for reads here)."""
        if not self.enable_caching:
            return
        end = lbn + count
        kept: list[tuple[int, int]] = []
        for start, seg_end in self._segments:
            if seg_end <= lbn or start >= end:
                kept.append((start, seg_end))
                continue
            if start < lbn:
                kept.append((start, lbn))
            if seg_end > end:
                kept.append((end, seg_end))
        self._segments = kept[-self.num_segments :]
        self._prefetch_start = None

    def invalidate(self) -> None:
        """Drop all cached data and cancel prefetch."""
        self._segments.clear()
        self._prefetch_start = None

    def _insert_segment(self, start: int, end: int) -> None:
        # Merge with any adjacent/overlapping segment, then LRU-trim.
        m_start, m_end = start, end
        kept: list[tuple[int, int]] = []
        for seg_start, seg_end in self._segments:
            if seg_end < m_start or seg_start > m_end:
                kept.append((seg_start, seg_end))
            else:
                if seg_start < m_start:
                    m_start = seg_start
                if seg_end > m_end:
                    m_end = seg_end
        kept.append((m_start, m_end))
        if len(kept) > self.num_segments:
            kept = kept[-self.num_segments :]
        self._segments = kept

    # ------------------------------------------------------------------ #
    @property
    def segments(self) -> list[tuple[int, int]]:
        """Cached LBN ranges, oldest first (exposed for tests)."""
        return list(self._segments)
