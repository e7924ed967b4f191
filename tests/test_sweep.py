"""Tests for the sweep executor, run cache, and lossless stats JSON."""

import json
import shutil

import pytest

from repro.config import SimulatorConfig
from repro.errors import ConfigurationError, ReproError, SweepError
from repro.experiments import fig11_combinations, run_suite_setting
from repro.stats import FailedRun, SimStats
from repro.sweep import (
    RunCache,
    SweepCell,
    execute_cells,
    sweep_context,
)
from repro.workloads.registry import make_workload
from tests.old_formats import REMOVED_CONFIG_FIELDS, as_format

TINY = ["pathfinder", "hotspot"]
SCALE = 0.12


def tiny_cells(**overrides):
    setting = dict(prefetcher="tbn", eviction="lru4k")
    setting.update(overrides)
    cells = []
    for name in TINY:
        cells.append(SweepCell(
            workload_spec={"name": name, "scale": SCALE},
            config=SimulatorConfig(**setting),
        ))
    return cells


def run_tiny_sim(**config_overrides) -> SimStats:
    workload = make_workload("hotspot", scale=SCALE)
    from repro.runtime import UvmRuntime
    config = SimulatorConfig(prefetcher="tbn", eviction="lru4k",
                             **config_overrides)
    return UvmRuntime(config).run_workload(workload)


class TestConfigSerialization:
    def test_round_trip(self):
        config = SimulatorConfig(prefetcher="tbn", eviction="tbn",
                                 device_memory_bytes=1 << 24, seed=3)
        assert SimulatorConfig.from_dict(config.to_dict()) == config

    def test_unknown_field_rejected(self):
        for name in ("definitely_not_a_field", *REMOVED_CONFIG_FIELDS):
            data = SimulatorConfig().to_dict()
            data[name] = 1
            with pytest.raises(ConfigurationError,
                               match=f"unknown SimulatorConfig fields: "
                                     f"{name}$"):
                SimulatorConfig.from_dict(data)

    def test_mistyped_values_rejected(self):
        """Config input is untyped JSON: a field takes only the type its
        annotation names, and a float field also takes an int."""
        for name, value in (("tbn_threshold", "0.5"),
                            ("fault_batch_limit", 2.5),
                            ("batch_fault_handling", "no"),
                            ("prefetcher", []),
                            ("num_sms", True),
                            ("seed", False),
                            ("device_memory_bytes", float(1 << 24)),
                            ("watchdog_sim_time_budget_ns", "1e6"),
                            ("record_access_trace", 1)):
            with pytest.raises(ConfigurationError,
                               match=f"^{name} must be "):
                SimulatorConfig.from_dict({name: value})
        config = SimulatorConfig.from_dict(
            {"fault_handling_latency_ns": 45000, "tbn_threshold": 0.75,
             "watchdog_sim_time_budget_ns": None})
        assert config.fault_handling_latency_ns == 45000

    def test_cache_key_stable_and_sensitive(self):
        a = SimulatorConfig(prefetcher="tbn")
        b = SimulatorConfig(prefetcher="tbn")
        c = SimulatorConfig(prefetcher="none")
        assert a.cache_key() == b.cache_key()
        assert a.cache_key() != c.cache_key()
        assert len(a.cache_key()) == 64

    def test_fault_profile_round_trips(self):
        config = SimulatorConfig(
            fault_profile={"transfer_fault_rate": 0.1, "seed": 7})
        restored = SimulatorConfig.from_dict(config.to_dict())
        assert restored == config
        assert restored.cache_key() == config.cache_key()


class TestStatsSerialization:
    def test_lossless_round_trip(self):
        stats = run_tiny_sim(record_access_trace=True,
                             record_timeline=True)
        restored = SimStats.from_json_dict(stats.to_json_dict())
        assert restored == stats
        assert restored.metrics.snapshot() == stats.metrics.snapshot()
        # Equality again after a trip through an actual JSON string.
        assert SimStats.from_json(stats.to_json()) == stats

    def test_every_field_serialized(self):
        import dataclasses
        payload = SimStats().to_json_dict()
        for spec in dataclasses.fields(SimStats):
            assert spec.name in payload

    def test_version_mismatch_raises(self):
        payload = SimStats().to_json_dict()
        payload["format"] = 999
        with pytest.raises(ReproError):
            SimStats.from_json_dict(payload)

    def test_key_mismatch_raises(self):
        payload = SimStats().to_json_dict()
        del payload["far_faults"]
        payload["bogus"] = 1
        with pytest.raises(ReproError) as excinfo:
            SimStats.from_json_dict(payload)
        assert "far_faults" in str(excinfo.value)
        assert "bogus" in str(excinfo.value)

    def test_failed_run_round_trip(self):
        failed = FailedRun("bfs", "WatchdogTimeout", "stuck")
        assert FailedRun.from_json(failed.to_json()) == failed
        with pytest.raises(ReproError):
            FailedRun.from_json_dict({"workload": "bfs"})


class TestSweepCell:
    def test_cache_key_covers_workload_and_config(self):
        base = tiny_cells()[0]
        other_workload = SweepCell(
            workload_spec={"name": "bfs", "scale": SCALE},
            config=base.config,
        )
        other_config = SweepCell(
            workload_spec=base.workload_spec,
            config=SimulatorConfig(prefetcher="none", eviction="lru4k"),
        )
        keys = {base.cache_key(), other_workload.cache_key(),
                other_config.cache_key()}
        assert len(keys) == 3

    def test_derived_seed_deterministic(self):
        cells = tiny_cells()
        assert cells[0].derived_seed() == tiny_cells()[0].derived_seed()
        assert cells[0].derived_seed() != cells[1].derived_seed()


class TestRunCache:
    def test_miss_then_hit(self, tmp_path):
        cache = RunCache(tmp_path)
        cells = tiny_cells()
        with sweep_context(cache=cache) as report:
            first = execute_cells(cells)
        assert (report.executed, report.cached) == (len(cells), 0)
        with sweep_context(cache=cache) as report:
            second = execute_cells(cells)
        assert (report.executed, report.cached) == (0, len(cells))
        assert [s.to_json() for s in first] == \
            [s.to_json() for s in second]

    def test_config_change_invalidates(self, tmp_path):
        cache = RunCache(tmp_path)
        with sweep_context(cache=cache):
            execute_cells(tiny_cells())
        with sweep_context(cache=cache) as report:
            execute_cells(tiny_cells(eviction="tbn"))
        assert report.cached == 0
        assert report.executed == len(TINY)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        cells = tiny_cells()
        with sweep_context(cache=cache):
            execute_cells(cells)
        path = cache.path_for(cells[0].cache_key())
        path.write_text("{not json")
        with sweep_context(cache=cache) as report:
            execute_cells(cells)
        assert (report.executed, report.cached) == (1, len(cells) - 1)

    def test_stale_stats_format_is_a_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        cells = tiny_cells() + tiny_cells(eviction="tbn")[:1]
        with sweep_context(cache=cache):
            execute_cells(cells)
        # A stale stats payload, and whole entries as formats 1 and 2
        # wrote them.
        stale, old1, old2 = (cache.path_for(cell.cache_key())
                             for cell in cells)
        document = json.loads(stale.read_text())
        document["result"]["stats"]["format"] = 999
        stale.write_text(json.dumps(document))
        for version, old in ((1, old1), (2, old2)):
            old.write_text(json.dumps(
                as_format(json.loads(old.read_text()), version)))
        with sweep_context(cache=cache) as report:
            execute_cells(cells)
        assert report.executed == 3
        assert sorted(p.name for p in cache.quarantine_dir.iterdir()) \
            == sorted([stale.name, old1.name, old2.name])

    def test_entry_under_another_key_is_a_quarantined_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        first, second = tiny_cells()[:2]
        cache.store(first.cache_key(), first, SimStats())
        target = cache.path_for(second.cache_key())
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(cache.path_for(first.cache_key()), target)
        assert cache.load(second.cache_key()) is None
        assert (cache.hits, cache.misses, cache.quarantined) == (0, 1, 1)
        assert not target.exists()

    def test_entries_are_self_describing(self, tmp_path):
        cache = RunCache(tmp_path)
        cells = tiny_cells()
        with sweep_context(cache=cache):
            execute_cells(cells)
        document = json.loads(
            cache.path_for(cells[0].cache_key()).read_text())
        assert document["workload"]["name"] == TINY[0]
        assert document["config"]["prefetcher"] == "tbn"


class TestExecutor:
    def test_empty_cell_list(self):
        assert execute_cells([]) == []

    def test_suite_uses_active_context_cache(self, tmp_path):
        cache = RunCache(tmp_path)
        with sweep_context(cache=cache):
            run_suite_setting(SCALE, TINY, prefetcher="tbn",
                              eviction="lru4k")
        with sweep_context(cache=cache) as report:
            run_suite_setting(SCALE, TINY, prefetcher="tbn",
                              eviction="lru4k")
        assert report.executed == 0
        assert report.cached == len(TINY)

    @pytest.mark.sweep
    def test_parallel_matches_serial(self):
        cells = tiny_cells()
        serial = execute_cells(cells)
        with sweep_context(jobs=2):
            parallel = execute_cells(cells)
        assert [s.to_json() for s in serial] == \
            [s.to_json() for s in parallel]

    @pytest.mark.sweep
    def test_parallel_failure_isolated_as_failed_run(self):
        cells = tiny_cells(watchdog_sim_time_budget_ns=1.0,
                           watchdog_interval_events=10)
        with sweep_context(jobs=2):
            outcomes = execute_cells(cells, isolate_failures=True)
        assert all(isinstance(o, FailedRun) for o in outcomes)
        assert outcomes[0].error_type == "WatchdogTimeout"
        assert outcomes[0].workload == TINY[0]

    @pytest.mark.sweep
    def test_parallel_failure_raises_sweep_error(self):
        cells = tiny_cells(watchdog_sim_time_budget_ns=1.0,
                           watchdog_interval_events=10)
        with sweep_context(jobs=2):
            with pytest.raises(SweepError):
                execute_cells(cells)

    def test_serial_failure_keeps_original_exception(self):
        from repro.errors import WatchdogTimeout
        cells = tiny_cells(watchdog_sim_time_budget_ns=1.0,
                           watchdog_interval_events=10)
        with pytest.raises(WatchdogTimeout):
            execute_cells(cells)

    def test_cached_failed_run_replayed(self, tmp_path):
        cache = RunCache(tmp_path)
        cells = tiny_cells(watchdog_sim_time_budget_ns=1.0,
                           watchdog_interval_events=10)
        with sweep_context(cache=cache):
            execute_cells(cells, isolate_failures=True)
        with sweep_context(cache=cache) as report:
            outcomes = execute_cells(cells, isolate_failures=True)
        assert report.executed == 0
        assert all(isinstance(o, FailedRun) for o in outcomes)


@pytest.mark.sweep
class TestDeterminism:
    def test_fig11_parallel_table_byte_identical(self):
        serial = fig11_combinations.run(scale=SCALE, workload_names=TINY)
        with sweep_context(jobs=4):
            parallel = fig11_combinations.run(scale=SCALE,
                                              workload_names=TINY)
        assert parallel.to_table() == serial.to_table()


@pytest.mark.sweep
def test_warm_fig11_cli_run_executes_nothing_and_prints_same_tables(
        tmp_path, capsys):
    """A second ``repro experiment fig11`` against the first run's cache
    executes no simulation and prints byte-identical stdout."""
    from repro.cli import main
    argv = ["experiment", "fig11", "--scale", str(SCALE), "--jobs", "2",
            "--cache-dir", str(tmp_path / "runcache")]
    assert main(argv) == 0
    cold = capsys.readouterr()
    assert "[sweep] 0 simulation(s) executed" not in cold.err
    assert main(argv) == 0
    warm = capsys.readouterr()
    assert "[sweep] 0 simulation(s) executed" in warm.err
    assert warm.out == cold.out
