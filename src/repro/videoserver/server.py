"""Round-based video server running on the disk simulator.

The evaluation methodology follows RIO (Santos et al.) and Section 5.4 of
the paper: for a given number of concurrent streams ``V`` per disk, issue
``V`` random per-stream requests as one scheduled batch (a *round*), measure
the completion time of the batch, repeat many times to build a distribution,
and use a high percentile of that distribution for admission control.

Track-aligned servers issue whole-traxtent requests; unaligned servers issue
constant-sized requests with no knowledge of track boundaries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..core.traxtent import TraxtentMap
from ..disksim.drive import DiskDrive, DiskRequest
from ..disksim.queueing import run_round
from .admission import SoftAdmission, soft_admission
from .streams import StreamSpec


@dataclass
class RoundMeasurement:
    """Round-time samples for one stream count."""

    streams: int
    round_times_ms: list[float] = field(default_factory=list)

    @property
    def mean_ms(self) -> float:
        return sum(self.round_times_ms) / len(self.round_times_ms)


class VideoServer:
    """A single-disk video server model (arrays scale results by D)."""

    def __init__(
        self,
        drive: DiskDrive,
        stream: StreamSpec,
        aligned: bool,
        zone_index: int = 0,
        seed: int = 1,
    ) -> None:
        self.drive = drive
        self.stream = stream
        self.aligned = aligned
        self.zone_index = zone_index
        self._rng = random.Random(seed)
        geometry = drive.geometry
        self._zone_start, self._zone_end = geometry.zone_lbn_range(zone_index)
        if aligned:
            self._traxtents = TraxtentMap.from_geometry(
                geometry, self._zone_start, self._zone_end
            )
            # The zone's nominal (longest) track length.
            self._nominal = max(e.length for e in self._traxtents)
        else:
            self._traxtents = None

    # ------------------------------------------------------------------ #
    # Request generation
    # ------------------------------------------------------------------ #
    def _one_request(self) -> DiskRequest:
        if self._traxtents is not None:
            extent = self._traxtents[self._rng.randrange(len(self._traxtents))]
            io_sectors = self.stream.io_size_sectors
            if io_sectors <= extent.length:
                # Mid-size IO: stays within this track.
                sectors = io_sectors
            elif io_sectors <= self._nominal:
                # "Track-sized" IO on a slightly short track: a traxtent
                # server issues the whole (shorter) track rather than
                # crossing into the next one.
                sectors = extent.length
            else:
                # Multi-track IO: span whole tracks.
                sectors = min(io_sectors, self._zone_end - extent.first_lbn)
            return DiskRequest.read(extent.first_lbn, sectors)
        sectors = self.stream.io_size_sectors
        lbn = self._rng.randrange(self._zone_start, self._zone_end - sectors)
        return DiskRequest.read(lbn, sectors)

    def round_requests(self, streams: int) -> list[DiskRequest]:
        """One round: one request per admitted stream."""
        return [self._one_request() for _ in range(streams)]

    # ------------------------------------------------------------------ #
    # Measurement
    # ------------------------------------------------------------------ #
    def measure_round_times(
        self, streams: int, rounds: int
    ) -> RoundMeasurement:
        """Measure ``rounds`` independent rounds of ``streams`` requests."""
        measurement = RoundMeasurement(streams=streams)
        now = 0.0
        for _ in range(rounds):
            requests = self.round_requests(streams)
            elapsed = run_round(self.drive, requests, start_time=now)
            measurement.round_times_ms.append(elapsed)
            now += elapsed
        return measurement

    def measure_sweep(
        self,
        stream_counts: list[int],
        rounds: int,
    ) -> dict[int, list[float]]:
        """Round-time distributions for several stream counts."""
        results: dict[int, list[float]] = {}
        for streams in stream_counts:
            self.drive.reset()
            results[streams] = self.measure_round_times(streams, rounds).round_times_ms
        return results

    # ------------------------------------------------------------------ #
    # Admission / capacity planning
    # ------------------------------------------------------------------ #
    def max_streams_soft(
        self,
        stream_counts: list[int],
        rounds: int,
        deadline_s: float | None = None,
        percentile: float = 0.9999,
    ) -> SoftAdmission:
        measured = self.measure_sweep(stream_counts, rounds)
        return soft_admission(
            measured, self.stream, deadline_s=deadline_s, percentile=percentile
        )

    def startup_latency_curve(
        self,
        stream_counts: list[int],
        rounds: int,
        disks: int,
        percentile: float = 0.9999,
    ) -> list[tuple[int, float]]:
        """(total streams on the array, worst-case startup latency) pairs --
        the two curves of Figure 9.

        For stream counts beyond what the base IO size supports, a real
        deployment increases the IO size; here the measured round time
        itself grows with V, and the startup latency is
        ``round_time * (D + 1)``.
        """
        curve: list[tuple[int, float]] = []
        measured = self.measure_sweep(stream_counts, rounds)
        for streams in stream_counts:
            times = measured[streams]
            ordered = sorted(times)
            index = min(len(ordered) - 1, int(percentile * len(ordered)))
            round_s = ordered[index] / 1000.0
            latency = self.stream.startup_latency_s(round_s, disks)
            curve.append((streams * disks, latency))
        return curve
