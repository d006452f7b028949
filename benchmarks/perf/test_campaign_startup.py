"""Campaign startup benchmark: the drive-build cache.

Every point of a campaign builds its fleet before replaying anything.
Uncached, that means building a :class:`DiskGeometry` (zones, spare slots,
per-track tables, one zone pattern at a time) and fitting the seek curve
for every drive of every point, in every worker process: a few
milliseconds per drive for the full-size model.  The factory memoizes both
per :class:`DiskSpecs`, so the N points of a sweep share one geometry and
a cached point only wires up fresh drive state.

This benchmark times building the fleets of a 16-point campaign over the
full-size reference model, cached against uncached, as the perf harness
times every gate (``harness.py``), and asserts the cache buys at least a
3x set-up speedup.  Its rps are points built per second.  No committed
section bounds it: the floor is its only gate.
"""

from __future__ import annotations

from harness import CAMPAIGN_STARTUP, record_and_check, time_pairs
from repro import DriveConfig, FleetConfig, build_fleet
from repro.api.factory import clear_drive_build_cache

MODEL = "Quantum Atlas 10K II"
POINTS = 16
N_DRIVES = 2


def measure_campaign_startup() -> dict:
    """One run of the campaign start-up gate: after one untimed run of
    each side, :func:`time_pairs` of cached/uncached pairs of building
    every point's fleet."""
    drive_config = DriveConfig(model=MODEL)
    fleet_config = FleetConfig(n_drives=N_DRIVES)

    def uncached() -> None:
        for _ in range(POINTS):
            clear_drive_build_cache()
            build_fleet(fleet_config, drive_config)

    def cached() -> None:
        clear_drive_build_cache()
        for _ in range(POINTS):
            build_fleet(fleet_config, drive_config)

    uncached()
    cached()
    row = CAMPAIGN_STARTUP.row(time_pairs(cached, uncached), POINTS)
    clear_drive_build_cache()
    return CAMPAIGN_STARTUP.measured(
        {"cached": row}, model=MODEL, points=POINTS, drives=N_DRIVES
    )


def test_campaign_startup_cache():
    record_and_check(
        CAMPAIGN_STARTUP,
        measure_campaign_startup(),
        f"Campaign startup, {POINTS} points x {N_DRIVES} drives ({MODEL}), "
        "cached vs uncached drive builds; rps = points built per second",
    )
