"""Tests for the ``repro.api`` campaign layer.

Covers the tentpole and its acceptance criteria: campaign config JSON
round-trips and validation, dotted-path axis expansion with stable
content hashes, serial-vs-parallel bitwise identity (workers=4 over >= 8
sweep points, seeded workloads included), the resumable result store
(zero recomputation on a second pass), the long-form export into
``analysis.report``, and the ``python -m repro sweep`` CLI.
"""

from __future__ import annotations

import json

import pytest

import repro
from _numpy_gate import HAVE_NUMPY
from repro.api import (
    Campaign,
    CampaignConfig,
    ConfigError,
    DriveConfig,
    ProcessExecutor,
    ResultStore,
    RunResult,
    Scenario,
    ScenarioConfig,
    SerialExecutor,
    WorkloadConfig,
    run_campaign,
    run_scenario,
    scenario_hash,
)
from repro.api.cli import main as cli_main

# --------------------------------------------------------------------------- #
# Shared fixtures: small, fast campaigns
# --------------------------------------------------------------------------- #

SMALL_DRIVE = DriveConfig(cylinders_per_zone=10, num_zones=2)


def efficiency_campaign(n_requests: int = 30) -> CampaignConfig:
    """2x2 efficiency sweep on a scaled-down drive (fast)."""
    base = ScenarioConfig(
        name="eff",
        kind="efficiency",
        drive=SMALL_DRIVE,
        seed=1,
        options={"queue_depth": 2, "n_requests": n_requests},
    )
    return CampaignConfig(
        name="eff-sweep",
        base=base,
        grid={
            "traxtent": [True, False],
            "options.sizes_sectors": [[132], [264]],
        },
    )


def replay_campaign() -> CampaignConfig:
    """8-point seeded replay sweep: grid x zip over four different layers."""
    base = ScenarioConfig(
        name="rep",
        kind="replay",
        drive=SMALL_DRIVE,
        workload=WorkloadConfig(
            name="synthetic",
            params={"n_requests": 40},
            interarrival_ms=1.0,
        ),
        seed=3,
    )
    return CampaignConfig(
        name="rep-sweep",
        base=base,
        grid={"traxtent": [True, False], "seed": [3, 4]},
        zip_axes={
            "workload.params.n_requests": [30, 40],
            "fleet.n_drives": [1, 2],
        },
    )


# --------------------------------------------------------------------------- #
# Dotted-path overrides
# --------------------------------------------------------------------------- #

class TestOverridePaths:
    def test_override_each_config_layer(self):
        config = ScenarioConfig().with_overrides(
            {
                "traxtent": False,
                "fleet.n_drives": 3,
                "drive.model": "Quantum Atlas 10K II",
                "workload.params.n_requests": 99,
                "options.queue_depth": 4,
            }
        )
        assert config.traxtent is False
        assert config.fleet.n_drives == 3
        assert config.workload.params == {"n_requests": 99}
        assert config.options == {"queue_depth": 4}

    def test_unknown_dataclass_field_fails_loudly(self):
        with pytest.raises(ConfigError, match="traxtant"):
            ScenarioConfig().with_overrides({"traxtant": True})

    def test_missing_intermediate_fails(self):
        with pytest.raises(ConfigError, match="does not exist"):
            ScenarioConfig().with_overrides({"wl.params.x": 1})

    def test_descending_into_scalar_fails(self):
        with pytest.raises(ConfigError, match="non-mapping"):
            ScenarioConfig().with_overrides({"traxtent.deeper": 1})

    def test_malformed_path_fails(self):
        with pytest.raises(ConfigError, match="malformed"):
            ScenarioConfig().with_overrides({"fleet..n_drives": 1})


# --------------------------------------------------------------------------- #
# CampaignConfig: round-trip, validation, expansion
# --------------------------------------------------------------------------- #

class TestCampaignConfig:
    def test_json_round_trip(self):
        config = replay_campaign()
        clone = CampaignConfig.from_json(config.to_json())
        assert clone == config
        assert clone.to_dict() == config.to_dict()
        # zip axes serialise under the JSON key "zip"
        assert "zip" in config.to_dict()

    def test_load_save(self, tmp_path):
        config = efficiency_campaign()
        path = str(tmp_path / "campaign.json")
        config.save(path)
        assert CampaignConfig.load(path) == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="axes"):
            CampaignConfig.from_dict({"axes": {}})

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError, match="non-empty"):
            CampaignConfig(grid={"traxtent": []})

    def test_ragged_zip_rejected(self):
        with pytest.raises(ConfigError, match="equal lengths"):
            CampaignConfig(zip_axes={"seed": [1, 2], "think_ms": [0.0]})

    def test_grid_zip_overlap_rejected(self):
        with pytest.raises(ConfigError, match="both 'grid' and 'zip'"):
            CampaignConfig(grid={"seed": [1]}, zip_axes={"seed": [2]})

    def test_expansion_order_and_len(self):
        config = CampaignConfig(
            name="c",
            grid={"seed": [512, 1024]},
            zip_axes={"think_ms": [0.0, 1.0], "workload.start_ms": [0.0, 5.0]},
        )
        points = config.expand()
        assert len(points) == len(config) == 4
        # grid is slowest axis, zip rows advance together (fastest)
        combos = [
            (p.config.seed, p.config.think_ms, p.config.workload.start_ms)
            for p in points
        ]
        assert combos == [
            (512, 0.0, 0.0),
            (512, 1.0, 5.0),
            (1024, 0.0, 0.0),
            (1024, 1.0, 5.0),
        ]
        assert [p.index for p in points] == [0, 1, 2, 3]
        assert [p.config.name for p in points] == [
            "c[0000]", "c[0001]", "c[0002]", "c[0003]",
        ]

    def test_expansion_is_deterministic(self):
        first = replay_campaign().expand()
        second = replay_campaign().expand()
        assert [p.hash for p in first] == [p.hash for p in second]
        assert len({p.hash for p in first}) == len(first)  # all distinct

    def test_bad_axis_path_names_the_point(self):
        config = CampaignConfig(name="bad", grid={"traxtant": [True]})
        with pytest.raises(ConfigError, match=r"campaign 'bad', point 0"):
            config.expand()

    def test_scenario_hash_tracks_content_not_name(self):
        a = ScenarioConfig(name="x", seed=1)
        b = ScenarioConfig(name="y", seed=1)  # presentation-only difference
        c = ScenarioConfig(name="x", seed=2)
        assert scenario_hash(a) == scenario_hash(b)
        assert scenario_hash(a) != scenario_hash(c)

    def test_scenario_hash_includes_scheduler_but_not_fast(self):
        """Regression: ``options["scheduler"]`` (and its companions) are
        semantic and must produce distinct hashes; ``options["fast"]`` is
        an execution knob and must stay hash-invariant."""
        base = ScenarioConfig(seed=1)
        policies = ["fcfs", "sstf", "sptf", "clook", "traxtent"]
        hashes = {
            scenario_hash(
                base.with_overrides({"options.scheduler": policy})
            )
            for policy in policies
        }
        assert len(hashes) == len(policies)
        assert scenario_hash(base) not in hashes  # no-scheduler differs too
        # starvation bound and queue depth are part of the identity as well
        sstf = base.with_overrides({"options.scheduler": "sstf"})
        assert scenario_hash(
            sstf.with_overrides({"options.starvation_ms": 50.0})
        ) != scenario_hash(sstf)
        assert scenario_hash(
            sstf.with_overrides({"options.queue_depth": 8})
        ) != scenario_hash(sstf)
        # ... while 'fast' stays invariant, scheduler set or not
        assert scenario_hash(
            sstf.with_overrides({"options.fast": False})
        ) == scenario_hash(sstf)
        assert scenario_hash(
            base.with_overrides({"options.fast": True})
        ) == scenario_hash(base)

    def test_scheduler_points_get_distinct_store_records(self, tmp_path):
        """Distinct policies must land as distinct records in one store."""
        base = ScenarioConfig(
            name="sched-base",
            kind="replay",
            # Caching off so every policy is eligible for the scheduled
            # kernel (random synthetic LBNs trip the firmware-cache reuse
            # refusal otherwise).
            drive=DriveConfig(
                cylinders_per_zone=10, num_zones=2, enable_caching=False
            ),
            workload=WorkloadConfig(
                name="synthetic",
                params={"n_requests": 40},
                interarrival_ms=1.0,
            ),
            traxtent=False,
            seed=3,
        )
        campaign = CampaignConfig(
            name="sched",
            base=base,
            grid={"options.scheduler": ["fcfs", "sstf", "sptf"]},
        )
        store = ResultStore(tmp_path / "store")
        result = run_campaign(campaign, store=store)
        assert len(store) == 3
        assert result.executed == 3
        again = run_campaign(campaign, store=store)
        assert again.cache_hits == 3
        by_policy = {
            run.overrides["options.scheduler"]: run.payload for run in result
        }
        assert by_policy["fcfs"] != by_policy["sstf"]
        # Without numpy every replay takes the scalar path.
        kernel_sched = "kernel_sched" if HAVE_NUMPY else "scalar"
        assert by_policy["sstf"]["details"]["replay_path"] == kernel_sched
        assert by_policy["sptf"]["details"]["replay_path"] == kernel_sched
        assert by_policy["sstf"]["details"]["fast_reason"] == (
            "ok" if HAVE_NUMPY else "numpy unavailable"
        )
        assert by_policy["fcfs"]["details"]["replay_path"] in (
            ("kernel", "kernel_sched") if HAVE_NUMPY else ("scalar",)
        )
        # Execution-path metadata is volatile: it never reaches the store.
        for point in campaign.expand():
            record = json.loads(store.path(point.hash).read_text())
            assert "replay_path" not in record["result"]["details"]
            assert "fast_reason" not in record["result"]["details"]

    def test_extending_a_sweep_keeps_existing_hashes(self):
        """Adding a grid value must not shift prior points' store keys."""
        small = efficiency_campaign()
        extended = CampaignConfig(
            name=small.name,
            base=small.base,
            grid={
                "traxtent": [True, False],
                "options.sizes_sectors": [[132], [264], [528]],
            },
        )
        before = {p.hash for p in small.expand()}
        after = {p.hash for p in extended.expand()}
        assert before < after  # strict superset: old points keep their hashes


# --------------------------------------------------------------------------- #
# Fluent builder
# --------------------------------------------------------------------------- #

class TestCampaignBuilder:
    def test_builder_mirrors_config(self):
        base = Scenario("eff").drive(
            "Quantum Atlas 10K II", cylinders_per_zone=10, num_zones=2
        )
        campaign = (
            Campaign("sweep")
            .base(base)
            .axis("traxtent", [True, False])
            .zip_axis({"seed": [1, 2], "think_ms": [0.0, 1.0]})
        )
        config = campaign.config
        assert config.name == "sweep"
        assert config.base == base.config
        assert config.grid == {"traxtent": [True, False]}
        assert config.zip_axes == {"seed": [1, 2], "think_ms": [0.0, 1.0]}
        assert len(campaign) == 4
        assert len(campaign.expand()) == 4

    def test_builder_round_trip(self, tmp_path):
        path = str(tmp_path / "c.json")
        Campaign.from_config(efficiency_campaign()).save(path)
        assert Campaign.load(path).config == efficiency_campaign()

    def test_builder_validates_eagerly(self):
        with pytest.raises(ConfigError, match="equal lengths"):
            Campaign("c").zip_axis({"seed": [1, 2]}).zip_axis({"think_ms": [0.0]})


# --------------------------------------------------------------------------- #
# Execution: serial, parallel, bitwise identity
# --------------------------------------------------------------------------- #

def _canon(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


class TestRunCampaign:
    def test_serial_matches_run_scenario_loop(self):
        config = efficiency_campaign()
        result = run_campaign(config)
        assert result.executed == len(result) == 4
        for run in result:
            direct = run_scenario(run.config).to_dict()
            assert _canon(run.payload) == _canon(direct)

    def test_parallel_bitwise_identical_to_serial(self):
        """workers=4 over 8 seeded sweep points == a serial loop, bitwise."""
        config = replay_campaign()
        points = config.expand()
        assert len(points) >= 8
        serial = run_campaign(config, workers=1)
        parallel = run_campaign(config, workers=4)
        by_hash = {run.hash: run.payload for run in serial}
        for run in parallel:
            assert not run.cached
            assert _canon(run.payload) == _canon(by_hash[run.hash])
        # the loop equivalence, point by point
        for point in points:
            direct = run_scenario(point.config).to_dict()
            assert _canon(direct) == _canon(by_hash[point.hash])

    def test_custom_executor_seam(self):
        calls = []

        class CountingExecutor(SerialExecutor):
            def map(self, fn, items):
                calls.append(len(items))
                return super().map(fn, items)

        result = run_campaign(efficiency_campaign(), executor=CountingExecutor())
        assert calls == [4]
        assert result.executed == 4

    def test_process_executor_validates_workers(self):
        with pytest.raises(ConfigError, match="positive"):
            ProcessExecutor(0)

    def test_run_campaign_validates_workers(self):
        with pytest.raises(ConfigError, match="positive"):
            run_campaign(efficiency_campaign(), workers=0)


# --------------------------------------------------------------------------- #
# ResultStore: persistence + resume
# --------------------------------------------------------------------------- #

class TestResultStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        config = ScenarioConfig(name="s")
        digest = scenario_hash(config)
        result = {"scenario": "s", "kind": "replay", "metrics": {"x": 1.0}}
        store.put(digest, config, result)
        record = store.get(digest)
        assert record["result"] == result
        assert record["scenario"] == config.to_dict()
        assert digest in store
        assert store.hashes() == [digest]
        assert len(store) == 1

    def test_corrupt_record_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        digest = scenario_hash(ScenarioConfig())
        store.path(digest).write_text("{not json", encoding="utf-8")
        assert store.get(digest) is None
        assert digest not in store

    def test_wrong_hash_record_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("deadbeef", ScenarioConfig(), {"kind": "replay"})
        # a record whose recorded hash disagrees with its lookup key is stale
        store.path("deadbeef").rename(store.path("cafebabe"))
        assert store.get("cafebabe") is None

    def test_resume_skips_completed_points(self, tmp_path):
        config = efficiency_campaign()
        store = ResultStore(tmp_path / "store")
        first = run_campaign(config, store=store)
        assert first.cache_hits == 0 and first.executed == 4

        class ForbiddenExecutor(SerialExecutor):
            def map(self, fn, items):
                assert not items, "resume must not recompute anything"
                return []

        second = run_campaign(config, store=store, executor=ForbiddenExecutor())
        assert second.cache_hits == 4 and second.executed == 0
        for before, after in zip(first, second):
            assert after.cached
            assert _canon(before.payload) == _canon(after.payload)

    def test_partial_resume_recomputes_only_missing(self, tmp_path):
        config = efficiency_campaign()
        store = ResultStore(tmp_path / "store")
        first = run_campaign(config, store=store)
        victim = first.runs[2]
        store.path(victim.hash).unlink()
        second = run_campaign(config, store=store)
        assert second.cache_hits == 3 and second.executed == 1
        recomputed = [run for run in second if not run.cached]
        assert recomputed == [second.runs[2]]
        assert _canon(recomputed[0].payload) == _canon(victim.payload)

    def test_cache_hits_are_logged(self, tmp_path):
        config = efficiency_campaign()
        messages: list[str] = []
        run_campaign(config, store=str(tmp_path))
        run_campaign(config, store=str(tmp_path), log=messages.append)
        hits = [m for m in messages if m.startswith("cache hit")]
        assert len(hits) == len(messages) == 4
        assert any("eff-sweep[0000]" in m for m in hits)


# --------------------------------------------------------------------------- #
# CampaignResult: selection + long-form export
# --------------------------------------------------------------------------- #

class TestCampaignResult:
    @pytest.fixture(scope="class")
    def result(self):
        return run_campaign(efficiency_campaign())

    def test_find_and_where(self, result):
        run = result.find({"traxtent": True, "options.sizes_sectors": [264]})
        assert run.overrides["traxtent"] is True
        assert len(result.where({"traxtent": False})) == 2
        with pytest.raises(ConfigError, match="expected 1"):
            result.find({"traxtent": True})
        with pytest.raises(ConfigError, match="unknown axes"):
            result.where({"nope": 1})

    def test_rows_feed_format_table(self, result):
        headers = result.columns()
        rows = result.rows()
        assert headers[:2] == ["scenario", "hash"]
        assert "traxtent" in headers and "efficiency" in headers
        assert len(rows) == 4
        assert all(len(row) == len(headers) for row in rows)
        table = result.table(title="sweep")
        assert table.splitlines()[0] == "sweep"
        assert "eff-sweep[0000]" in table

    def test_series(self, result):
        aligned = result.series("io_kb", "efficiency", where={"traxtent": True})
        assert len(aligned) == 2
        assert aligned[0][0] == pytest.approx(66.0)
        with pytest.raises(ConfigError, match="neither an axis"):
            result.series("nope", "efficiency")

    def test_run_result_rehydrates(self, result):
        run = result.find({"traxtent": True, "options.sizes_sectors": [132]})
        rehydrated = run.result
        assert isinstance(rehydrated, RunResult)
        assert rehydrated.kind == "efficiency"
        assert rehydrated.points[0].io_sectors == 132
        assert _canon(rehydrated.to_dict()) == _canon(run.payload)

    def test_to_dict_shape(self, result):
        payload = result.to_dict()
        assert payload["cache_hits"] == 0 and payload["executed"] == 4
        assert len(payload["points"]) == 4
        point = payload["points"][0]
        assert set(point) == {
            "index", "hash", "overrides", "cached", "scenario", "result",
        }
        json.dumps(payload)  # fully JSON-serialisable


class TestRunResultFromDict:
    def test_replay_payload_round_trips(self):
        scenario = ScenarioConfig(
            name="r",
            drive=SMALL_DRIVE,
            workload=WorkloadConfig(
                name="synthetic", params={"n_requests": 20}, interarrival_ms=1.0
            ),
            seed=5,
        )
        original = run_scenario(scenario)
        clone = RunResult.from_dict(original.to_dict())
        assert clone.replay is None
        assert clone.replay_data == original.replay.to_dict()
        assert _canon(clone.to_dict()) == _canon(original.to_dict())


# --------------------------------------------------------------------------- #
# CLI: sweep, list --json, --version
# --------------------------------------------------------------------------- #

class TestCli:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {repro.__version__}" in capsys.readouterr().out

    def test_list_json(self, capsys):
        assert cli_main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == repro.__version__
        names = [entry["name"] for entry in payload["workloads"]]
        assert "synthetic" in names and "raw" in names
        synthetic = next(e for e in payload["workloads"] if e["name"] == "synthetic")
        assert synthetic["params"]["n_requests"] == 5000
        assert "Quantum Atlas 10K II" in payload["drive_models"]

    def test_sweep_runs_and_resumes(self, tmp_path, capsys):
        campaign_path = str(tmp_path / "campaign.json")
        efficiency_campaign(n_requests=20).save(campaign_path)
        store = str(tmp_path / "store")
        out_first = str(tmp_path / "first.json")
        out_second = str(tmp_path / "second.json")

        assert cli_main(
            ["sweep", campaign_path, "--store", store, "--json", out_first]
        ) == 0
        captured = capsys.readouterr()
        assert "eff-sweep[0000]" in captured.out
        assert "4 scenarios, 0 cache hits, 4 executed" in captured.out

        assert cli_main(
            ["sweep", campaign_path, "--store", store, "--json", out_second]
        ) == 0
        captured = capsys.readouterr()
        assert "4 cache hits, 0 executed" in captured.out
        assert "cache hit" in captured.err

        first = json.loads(open(out_first).read())
        second = json.loads(open(out_second).read())
        assert second["executed"] == 0
        assert {p["hash"]: p["result"] for p in first["points"]} == {
            p["hash"]: p["result"] for p in second["points"]
        }

    def test_sweep_error_paths(self, tmp_path, capsys):
        assert cli_main(["sweep", str(tmp_path / "missing.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text('{"grid": {"traxtant": [true]}}', encoding="utf-8")
        assert cli_main(["sweep", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err
