"""Tests for ``repro.faults``: the deterministic fault-injection subsystem.

Covers the declarative schedule (validation + JSON round-trip + hashing),
the drive-level fault semantics (fail-stop, spare redirect, transient
retries, grown defects, slowdown windows, the retry budget), seeded
determinism across runs and resets, and the degraded-mode service metrics.
"""

from __future__ import annotations

import pytest

import repro
from _numpy_gate import HAVE_NUMPY
from repro.api import DriveConfig, Scenario, ScenarioConfig, scenario_hash
from repro.disksim.drive import DiskRequest
from repro.disksim.errors import ConfigError
from repro.faults import (
    DriveFaultConfig,
    DriveFaultState,
    FaultConfig,
    GrownDefectConfig,
    SlowdownConfig,
    TransientFaultConfig,
    attach_fleet_faults,
    available_fault_kinds,
    fleet_fault_extras,
)

SMALL_DRIVE = DriveConfig(cylinders_per_zone=8, num_zones=2)


def small_drive():
    return repro.build_drive(SMALL_DRIVE)


def transient_schedule(probability=1.0, max_retries=2, **kwargs):
    return FaultConfig(
        seed=7,
        drives={0: DriveFaultConfig(
            transient=TransientFaultConfig(
                probability=probability, max_retries=max_retries
            )
        )},
        **kwargs,
    )


# --------------------------------------------------------------------------- #
# Declarative schedule
# --------------------------------------------------------------------------- #

class TestFaultConfig:
    def test_round_trip(self):
        config = FaultConfig(
            seed=11,
            retry_budget=4,
            drives={
                0: DriveFaultConfig(
                    fail_stop_ms=50.0,
                    spare=True,
                    transient=TransientFaultConfig(probability=0.1),
                ),
                2: DriveFaultConfig(
                    grown_defects=(GrownDefectConfig(at_ms=5.0, lbn=10, sectors=4),),
                    slowdowns=(SlowdownConfig(start_ms=0.0, end_ms=9.0, factor=2.0),),
                ),
            },
        )
        assert FaultConfig.from_dict(config.to_dict()) == config

    def test_registry_names(self):
        assert available_fault_kinds() == [
            "transient", "grown-defect", "slowdown", "fail-stop"
        ]

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: TransientFaultConfig(probability=1.5),
            lambda: TransientFaultConfig(max_retries=0),
            lambda: GrownDefectConfig(at_ms=-1.0),
            lambda: GrownDefectConfig(sectors=0),
            lambda: SlowdownConfig(start_ms=5.0, end_ms=5.0),
            lambda: SlowdownConfig(end_ms=1.0, factor=0.5),
            lambda: DriveFaultConfig(fail_stop_ms=-1.0),
            lambda: DriveFaultConfig(spare=True),  # spare without fail-stop
            lambda: FaultConfig(retry_budget=0),
            lambda: FaultConfig(drives={-1: DriveFaultConfig(fail_stop_ms=0.0)}),
        ],
    )
    def test_validation_refuses(self, bad):
        with pytest.raises(ConfigError):
            bad()

    def test_unknown_fields_refused(self):
        with pytest.raises(ConfigError, match="unknown fields"):
            FaultConfig.from_dict({"seed": 1, "bogus": 2})

    def test_empty_schedule_normalizes_to_none(self):
        config = ScenarioConfig(faults=FaultConfig(seed=3))
        assert config.faults is None
        assert "faults" not in config.to_dict()

    def test_faults_enter_scenario_hash(self):
        plain = ScenarioConfig(drive=SMALL_DRIVE)
        faulty = ScenarioConfig(drive=SMALL_DRIVE, faults=transient_schedule())
        reseeded = ScenarioConfig(
            drive=SMALL_DRIVE,
            faults=FaultConfig(
                seed=8,
                drives=transient_schedule().drives,
            ),
        )
        assert scenario_hash(plain) != scenario_hash(faulty)
        assert scenario_hash(faulty) != scenario_hash(reseeded)

    def test_scenario_config_round_trips_faults(self):
        config = ScenarioConfig(drive=SMALL_DRIVE, faults=transient_schedule())
        again = ScenarioConfig.from_dict(config.to_dict())
        assert again == config
        assert scenario_hash(again) == scenario_hash(config)

    def test_faults_refused_on_efficiency(self):
        config = ScenarioConfig(
            kind="efficiency",
            drive=SMALL_DRIVE,
            faults=transient_schedule(),
            options={"n_requests": 10},
        )
        with pytest.raises(ConfigError, match="efficiency"):
            repro.run_scenario(config)


# --------------------------------------------------------------------------- #
# Drive-level fault semantics
# --------------------------------------------------------------------------- #

def attach(drive, entry, *, seed=7, retry_budget=8, spare=None):
    drive.attach_faults(
        DriveFaultState(entry, seed=seed, retry_budget=retry_budget, spare=spare)
    )
    return drive.faults


class TestDriveFaults:
    def test_fail_stop_without_spare_fails_requests(self):
        drive = small_drive()
        state = attach(drive, DriveFaultConfig(fail_stop_ms=10.0))
        alive = drive.submit(DiskRequest.read(0, 8), 0.0)
        assert not alive.failed
        dead = drive.submit(DiskRequest.read(1000, 8), 20.0)
        assert dead.failed
        assert dead.seek_ms == 0.0 and dead.media_transfer_ms == 0.0
        assert dead.completion == pytest.approx(
            20.0 + drive.bus.command_overhead_ms
        )
        assert state.stats.failed_requests == 1
        # failed requests are still accounted as requests
        assert drive.stats.requests == 2

    def test_fail_stop_with_spare_redirects(self):
        drive = small_drive()
        spare = small_drive()
        state = attach(
            drive,
            DriveFaultConfig(fail_stop_ms=10.0, spare=True),
            spare=spare,
        )
        done = drive.submit(DiskRequest.read(1000, 8), 20.0)
        assert not done.failed
        assert state.stats.redirected_requests == 1
        assert spare.stats.requests == 1
        assert drive.stats.requests == 0  # primary never serviced it

    def test_transient_retries_cost_rotations(self):
        drive = small_drive()
        state = attach(
            drive,
            DriveFaultConfig(
                transient=TransientFaultConfig(probability=1.0, max_retries=3)
            ),
        )
        done = drive.submit(DiskRequest.read(0, 8), 0.0)
        assert not done.failed
        assert state.stats.transient_errors == 1
        assert 1 <= state.stats.retries <= 3
        assert state.stats.recovery_ms == pytest.approx(
            state.stats.retries * drive.specs.rotation_ms
        )

    def test_retry_budget_fails_request(self):
        drive = small_drive()
        state = attach(
            drive,
            DriveFaultConfig(
                transient=TransientFaultConfig(probability=1.0, max_retries=5)
            ),
            retry_budget=1,
        )
        failures = 0
        for i in range(8):
            done = drive.submit(DiskRequest.read(i * 500, 8), float(i) * 50.0)
            failures += done.failed
        assert failures == state.stats.failed_requests > 0
        # charged rotations never exceed the budget per request
        assert state.stats.retries <= 8 * 1

    def test_grown_defect_first_touch_then_revector(self):
        # cache disabled so every read touches media (cache hits skip faults)
        drive = repro.build_drive(
            DriveConfig(
                cylinders_per_zone=8, num_zones=2,
                enable_caching=False, enable_prefetch=False,
            )
        )
        state = attach(
            drive,
            DriveFaultConfig(
                grown_defects=(
                    GrownDefectConfig(at_ms=10.0, lbn=0, sectors=8, retries=3),
                )
            ),
        )
        before = drive.submit(DiskRequest.read(0, 8), 0.0)
        assert state.stats.retries == 0 and not before.failed
        first = drive.submit(DiskRequest.read(0, 8), 20.0)
        assert state.stats.retries == 3
        second = drive.submit(DiskRequest.read(0, 8), 40.0)
        assert state.stats.retries == 4  # one revector rotation
        assert not first.failed and not second.failed

    def test_slowdown_window_scales_positioning(self):
        plain = small_drive()
        baseline = plain.submit(DiskRequest.read(5000, 8), 0.0)
        slow = small_drive()
        state = attach(
            slow,
            DriveFaultConfig(
                slowdowns=(
                    SlowdownConfig(start_ms=0.0, end_ms=1e9, factor=3.0),
                )
            ),
        )
        degraded = slow.submit(DiskRequest.read(5000, 8), 0.0)
        expect = (baseline.seek_ms + baseline.settle_ms) * 2.0
        assert state.stats.slowdown_ms == pytest.approx(expect)
        assert degraded.completion == pytest.approx(
            baseline.completion + expect
        )

    def test_cache_hits_skip_fault_model(self):
        drive = small_drive()
        state = attach(
            drive,
            DriveFaultConfig(
                transient=TransientFaultConfig(probability=1.0, max_retries=2)
            ),
        )
        drive.submit(DiskRequest.read(0, 8), 0.0)
        errors = state.stats.transient_errors
        # sequential re-read served from cache: no media touch, no fault draw
        done = drive.submit(DiskRequest.read(0, 8), 100.0)
        if done.cache_hit:
            assert state.stats.transient_errors == errors

    def test_reset_restores_power_on_state(self):
        drive = small_drive()
        state = attach(drive, DriveFaultConfig(
            transient=TransientFaultConfig(probability=0.5, max_retries=3),
            grown_defects=(GrownDefectConfig(at_ms=0.0, lbn=0, sectors=8),),
        ))

        def run():
            out = []
            for i in range(20):
                done = drive.submit(
                    DiskRequest.read((i * 977) % 5000, 8), float(i) * 30.0
                )
                out.append((done.completion, done.failed))
            return out, state.stats.to_dict()

        first, stats_first = run()
        drive.reset()
        second, stats_second = run()
        assert first == second
        assert stats_first == stats_second


# --------------------------------------------------------------------------- #
# Fleet wiring and aggregation
# --------------------------------------------------------------------------- #

class TestFleetFaults:
    def test_attach_refuses_out_of_range_index(self):
        fleet = repro.build_fleet(repro.FleetConfig(n_drives=2), SMALL_DRIVE)
        with pytest.raises(ConfigError, match="2 drive"):
            attach_fleet_faults(
                fleet,
                FaultConfig(drives={5: DriveFaultConfig(fail_stop_ms=0.0)}),
            )

    def test_spare_requires_factory(self):
        fleet = repro.build_fleet(repro.FleetConfig(n_drives=1), SMALL_DRIVE)
        with pytest.raises(ConfigError, match="spare_factory"):
            attach_fleet_faults(
                fleet,
                FaultConfig(
                    drives={0: DriveFaultConfig(fail_stop_ms=0.0, spare=True)}
                ),
            )

    def test_extras_empty_without_faults(self):
        fleet = repro.build_fleet(repro.FleetConfig(n_drives=2), SMALL_DRIVE)
        assert fleet_fault_extras(fleet) == {}

    def test_combined_stats_include_spare(self):
        fleet = repro.build_fleet(repro.FleetConfig(n_drives=1), SMALL_DRIVE)
        attach_fleet_faults(
            fleet,
            FaultConfig(
                drives={0: DriveFaultConfig(fail_stop_ms=0.0, spare=True)}
            ),
            spare_factory=small_drive,
        )
        fleet.drives[0].submit(DiskRequest.read(0, 8), 5.0)
        total = fleet.combined_stats()
        assert total.requests == 1  # redirected request counted exactly once
        extras = fleet_fault_extras(fleet)
        assert extras["fault_redirected_requests"] == 1.0
        assert extras["fault_failed_requests"] == 0.0


# --------------------------------------------------------------------------- #
# Degraded-mode service metrics
# --------------------------------------------------------------------------- #

class TestServiceUnderFaults:
    def service_scenario(self, faults=None):
        builder = (
            Scenario("svc")
            .drive(**{k: v for k, v in SMALL_DRIVE.to_dict().items()
                      if k != "model"})
            .seed(3)
            .service(arrivals="poisson", slo_ms=20.0,
                     rate_rps=500.0, n_requests=200)
        )
        if faults is not None:
            builder = builder.faults(faults)
        return builder.run()

    def test_fault_free_service_reports_no_fault_metrics(self):
        result = self.service_scenario()
        assert "availability" not in result.metrics
        assert "fault_failed_requests" not in result.replay.extras

    def test_fail_stop_degrades_availability(self):
        result = self.service_scenario(
            FaultConfig(
                seed=5,
                drives={0: DriveFaultConfig(fail_stop_ms=200.0)},
            )
        )
        assert result.details["fast_reason"] == (
            "fault injection active" if HAVE_NUMPY else "numpy unavailable"
        )
        assert result.metrics["failed_requests"] > 0
        assert 0.0 < result.metrics["availability"] < 1.0
        assert result.metrics["error_fraction"] == pytest.approx(
            1.0 - result.metrics["availability"]
        )

    def test_fail_stop_with_spare_keeps_availability(self):
        result = self.service_scenario(
            FaultConfig(
                seed=5,
                drives={0: DriveFaultConfig(fail_stop_ms=200.0, spare=True)},
            )
        )
        assert result.metrics["availability"] == 1.0
        assert result.metrics["failed_requests"] == 0
        assert result.metrics["redirected_requests"] > 0
