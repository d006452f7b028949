"""Video stream model: bit rates, per-round I/O sizes and buffering.

A video server fetches one time interval of video per stream per *round*.
The per-round I/O size trades throughput against startup latency and buffer
space (Section 5.4): a stream of bit rate ``r`` that receives ``IOsize``
bytes per round can tolerate a round no longer than ``IOsize * 8 / r``
seconds, the worst-case startup latency on a ``D``-disk array is
``round_time * (D + 1)``, and the server must buffer ``2 * IOsize`` bytes
per stream.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The paper's streaming rate: 4 Mb/s MPEG-2-ish video.
DEFAULT_BIT_RATE = 4_000_000


@dataclass(frozen=True)
class StreamSpec:
    """One class of video streams served at a constant bit rate."""

    bit_rate: float = DEFAULT_BIT_RATE
    io_size_bytes: int = 264 * 1024

    def __post_init__(self) -> None:
        if self.bit_rate <= 0:
            raise ValueError("bit rate must be positive")
        if self.io_size_bytes <= 0:
            raise ValueError("I/O size must be positive")

    @property
    def io_size_sectors(self) -> int:
        return self.io_size_bytes // 512

    @property
    def round_budget_s(self) -> float:
        """Longest admissible round: the time the fetched data lasts."""
        return self.io_size_bytes * 8.0 / self.bit_rate

    def buffer_bytes(self, streams: int) -> int:
        """Server buffer requirement for double-buffered rounds."""
        return 2 * self.io_size_bytes * streams

    def startup_latency_s(self, round_time_s: float, disks: int) -> float:
        """Worst-case startup latency of a newly admitted stream on a
        ``disks``-wide array (Santos et al. / RIO accounting)."""
        return round_time_s * (disks + 1)
