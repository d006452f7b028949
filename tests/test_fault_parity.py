"""Parity discipline for the fault-injection layer.

Two guarantees, parametrized over every replay path:

* a fault-bearing config refuses the columnar kernels with the documented
  ``last_fast_reason == "fault injection active"`` (``"numpy unavailable"``
  without numpy, which the engine checks first) and lands on the exact
  scalar path, so ``fast=True`` and ``fast=False`` produce identical
  results even under faults;
* a config whose fault schedule is empty (or absent) is bitwise identical
  -- payload and scenario hash -- to the same config with no ``faults``
  key at all, on every path.
"""

from __future__ import annotations

import json

import pytest

from _numpy_gate import HAVE_NUMPY
from repro.api import ScenarioConfig, run_scenario, scenario_hash
from repro.api.config import DriveConfig, WorkloadConfig
from repro.api.result import VOLATILE_DETAIL_KEYS
from repro.faults import DriveFaultConfig, FaultConfig, TransientFaultConfig

SMALL_DRIVE = DriveConfig(cylinders_per_zone=8, num_zones=2)

#: The refusal a fault-bearing replay reports: without numpy the engine
#: refuses the kernels for that reason first.
FAULT_REASON = "fault injection active" if HAVE_NUMPY else "numpy unavailable"

FAULTS = FaultConfig(
    seed=13,
    drives={0: DriveFaultConfig(
        transient=TransientFaultConfig(probability=0.2, max_retries=2)
    )},
)

#: (id, extra ScenarioConfig kwargs) for every replay path the engine has.
PATHS = [
    ("open", {}),
    ("closed", {"mode": "closed"}),
    ("open-sched", {"options": {"scheduler": "sptf"}}),
    (
        "closed-sched",
        {"mode": "closed", "options": {"scheduler": "sptf", "queue_depth": 4}},
    ),
    (
        "service",
        {
            "kind": "service",
            "workload": WorkloadConfig(
                name="poisson",
                params={"rate_rps": 500.0, "n_requests": 150},
            ),
        },
    ),
]


def scenario(faults=None, **extra) -> ScenarioConfig:
    return ScenarioConfig(
        name="parity",
        drive=SMALL_DRIVE,
        workload=extra.pop(
            "workload",
            WorkloadConfig(
                name="synthetic",
                params={"n_requests": 150},
                interarrival_ms=1.0,
            ),
        ),
        seed=5,
        faults=faults,
        **extra,
    )


def canonical(result) -> str:
    """The result payload as canonical JSON, volatile detail keys stripped."""
    payload = result.to_dict()
    payload["details"] = {
        k: v
        for k, v in payload.get("details", {}).items()
        if k not in VOLATILE_DETAIL_KEYS
    }
    return json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("path,extra", PATHS, ids=[p[0] for p in PATHS])
class TestFaultParity:
    def test_faulty_config_reports_fault_reason(self, path, extra):
        result = run_scenario(scenario(faults=FAULTS, **extra), fast=True)
        assert result.details["replay_path"] == "scalar"
        assert result.details["fast_reason"] == FAULT_REASON
        assert result.replay.extras.get("fault_transient_errors", 0.0) >= 0.0

    def test_fast_flag_is_identity_under_faults(self, path, extra):
        fast = run_scenario(scenario(faults=FAULTS, **extra), fast=True)
        slow = run_scenario(scenario(faults=FAULTS, **extra), fast=False)
        assert canonical(fast) == canonical(slow)

    def test_empty_schedule_is_bitwise_identical_to_none(self, path, extra):
        plain = scenario(**extra)
        # an empty schedule normalizes away entirely...
        empty = scenario(faults=FaultConfig(seed=99), **extra)
        assert empty.faults is None
        assert scenario_hash(empty) == scenario_hash(plain)
        # ...and replays byte-identically on this path, kernel on or off
        for fast in (True, False):
            a = run_scenario(plain, fast=fast)
            b = run_scenario(empty, fast=fast)
            assert canonical(a) == canonical(b)
            assert "fault_failed_requests" not in a.replay.extras

    def test_faults_change_the_hash(self, path, extra):
        assert scenario_hash(scenario(**extra)) != scenario_hash(
            scenario(faults=FAULTS, **extra)
        )
