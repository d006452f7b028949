"""Campaign startup benchmark: the drive-build cache.

Every point of a campaign builds its fleet before replaying anything.
Uncached, that means building a :class:`DiskGeometry` (zones, spare slots,
per-track tables, one zone pattern at a time) and fitting the seek curve
for every drive of every point, in every worker process: a few
milliseconds per drive for the full-size model.  The factory memoizes both
per :class:`DiskSpecs`, so the N points of a sweep share one geometry and
a cached point only wires up fresh drive state.

This benchmark measures per-point setup time for a 16-point campaign over
the full-size reference model, cached vs uncached, writes the numbers to
``BENCH_campaign_startup.txt`` among the perf gates' untracked outputs
(``test_replay_throughput.write_report``), and asserts the cache buys at
least a 3x setup speedup.
"""

from __future__ import annotations

import time

from repro import DriveConfig, FleetConfig, build_fleet
from repro.api.factory import clear_drive_build_cache
from test_replay_throughput import write_report

MODEL = "Quantum Atlas 10K II"
POINTS = 16
N_DRIVES = 2
MIN_SETUP_SPEEDUP = 3.0


def _build_points(clear_between: bool) -> float:
    """Total wall-clock seconds to build the fleets of a 16-point campaign."""
    drive_config = DriveConfig(model=MODEL)
    fleet_config = FleetConfig(n_drives=N_DRIVES)
    clear_drive_build_cache()
    t0 = time.perf_counter()
    for _ in range(POINTS):
        if clear_between:
            clear_drive_build_cache()
        build_fleet(fleet_config, drive_config)
    return time.perf_counter() - t0


def test_campaign_startup_cache():
    uncached_s = _build_points(clear_between=True)
    cached_s = _build_points(clear_between=False)
    clear_drive_build_cache()

    uncached_point_ms = uncached_s / POINTS * 1e3
    cached_point_ms = cached_s / POINTS * 1e3
    speedup = uncached_s / cached_s

    write_report(
        "BENCH_campaign_startup",
        "\n".join(
            [
                f"Campaign startup ({POINTS} points x {N_DRIVES} drives, {MODEL})",
                f"  uncached per-point setup : {uncached_point_ms:8.2f} ms",
                f"  cached   per-point setup : {cached_point_ms:8.2f} ms",
                f"  setup speedup            : {speedup:8.2f}x "
                f"(required >= {MIN_SETUP_SPEEDUP}x)",
            ]
        ),
    )

    assert speedup >= MIN_SETUP_SPEEDUP, (
        f"drive-build cache setup speedup only {speedup:.2f}x "
        f"(need >= {MIN_SETUP_SPEEDUP}x): {uncached_point_ms:.2f} ms vs "
        f"{cached_point_ms:.2f} ms per point"
    )
