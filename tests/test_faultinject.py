"""Fault injection, retry/backoff, degraded mode, watchdog, isolation."""

import json

import pytest

from repro import constants, validation
from repro.config import SimulatorConfig, oversubscribed
from repro.core.engine import Simulator
from repro.errors import (
    ConfigurationError,
    FaultInjectionError,
    ReproError,
    RetryExhaustedError,
    SimulationError,
    WatchdogTimeout,
)
from repro.experiments import FailedRun, common, run_suite_setting
from repro.experiments import extension_resilience, registry
from repro.experiments.common import ExperimentResult
from repro.faultinject import (
    PROFILES,
    ClusterFaultProfile,
    FaultProfile,
    ServiceFaultProfile,
)
from repro.gpu.kernel import KernelSpec, ThreadBlockSpec, WarpSpec
from repro.runtime import run_workload
from repro.validation import Claim
from repro.workloads.registry import make_workload

MIB = constants.MIB


def scan_kernel(base, num_pages, name="scan"):
    accesses = [(base + i, False) for i in range(num_pages)]
    warps = [WarpSpec(accesses[i:i + 32])
             for i in range(0, len(accesses), 32)]
    tbs = [ThreadBlockSpec(warps[i:i + 2])
           for i in range(0, len(warps), 2)]
    return KernelSpec(name, tbs)


def make_sim(**overrides):
    overrides.setdefault("num_sms", 4)
    return Simulator(SimulatorConfig(**overrides))


def run_scan(num_pages=256, **overrides):
    sim = make_sim(**overrides)
    alloc = sim.malloc_managed("a", max(num_pages, 1) * constants.PAGE_SIZE)
    sim.launch_kernel(scan_kernel(alloc.page_range[0], num_pages))
    sim.synchronize()
    return sim


class TestProfile:
    def test_named_profiles_validate(self):
        for name, profile in PROFILES.items():
            profile.validate()
            assert profile.injects_anything, name

    @pytest.mark.parametrize("bad", [
        dict(transfer_fault_rate=1.5),
        dict(fault_drop_rate=-0.1),
        dict(latency_spike_multiplier=0.5),
        dict(backoff_multiplier=0.9),
        dict(max_retries=-1),
        dict(degrade_after_failures=-2),
        dict(backoff_base_ns=-1.0),
    ])
    def test_invalid_fields_raise(self, bad):
        with pytest.raises(ConfigurationError):
            FaultProfile(**bad)

    def test_backoff_is_capped_exponential(self):
        profile = FaultProfile(backoff_base_ns=100.0, backoff_multiplier=3.0,
                               backoff_cap_ns=1000.0)
        assert profile.backoff_ns(1) == 100.0
        assert profile.backoff_ns(2) == 300.0
        assert profile.backoff_ns(3) == 900.0
        assert profile.backoff_ns(4) == 1000.0  # capped
        assert profile.backoff_ns(40) == 1000.0
        assert profile.backoff_ns(10**6) == 1000.0  # no float overflow
        with pytest.raises(ConfigurationError):
            profile.backoff_ns(0)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            FaultProfile.from_dict({"transfer_fault_rat": 0.1})

    def test_to_dict_and_cache_key_are_stable(self):
        """Profiled configs keep their serialized bytes and cache keys,
        so existing run-cache entries stay addressable.  The keys moved
        once, on purpose, when seven config fields were removed (run
        cache format 2)."""
        profile = PROFILES["moderate"].replace(seed=7)
        assert json.dumps(profile.to_dict()) == (
            '{"transfer_fault_rate": 0.05, "latency_spike_rate": 0.05, '
            '"latency_spike_multiplier": 4.0, "fault_drop_rate": 0.02, '
            '"fault_duplicate_rate": 0.02, "mshr_overflow_rate": 0.0, '
            '"service_delay_rate": 0.05, "service_delay_ns": 100000.0, '
            '"fault_redelivery_ns": 50000.0, "max_retries": 8, '
            '"backoff_base_ns": 10000.0, "backoff_multiplier": 2.0, '
            '"backoff_cap_ns": 1000000.0, "degrade_after_failures": 4, '
            '"seed": 7}')
        config = SimulatorConfig(prefetcher="tbn", eviction="lru4k",
                                 seed=3, fault_profile=profile)
        assert config.cache_key() == (
            "aadaa4e48538ac23503623aa9c8f2283"
            "d5d5bfbc6d3d1f9d52c8fc33cc127e1e")
        inline = oversubscribed(
            8 * MIB, 110.0, seed=1, fault_profile=FaultProfile.load(
                "transfer_fault_rate=0.2,max_retries=3"))
        assert inline.cache_key() == (
            "afc77007f6bf42eeecf8b76e43965945"
            "bdda0d6dabb52007111aa32b6d53ef4f")

    def test_config_coerces_profile_dict(self):
        config = SimulatorConfig(fault_profile={"transfer_fault_rate": 0.1})
        assert isinstance(config.fault_profile, FaultProfile)
        with pytest.raises(ConfigurationError):
            SimulatorConfig(fault_profile={"transfer_fault_rate": 2.0})
        with pytest.raises(ConfigurationError):
            SimulatorConfig(watchdog_interval_events=0)

    def test_error_hierarchy(self):
        for exc_type in (FaultInjectionError, RetryExhaustedError,
                         WatchdogTimeout):
            assert issubclass(exc_type, ReproError)


#: One case per profile shape: ``Profile.load`` resolves the same
#: spellings for all three.
LOADER_CASES = [
    pytest.param(FaultProfile, dict(
        name="moderate",
        inline="transfer_fault_rate=0.2, max_retries=3",
        inline_fields=dict(transfer_fault_rate=0.2, max_retries=3),
        file_fields=dict(latency_spike_rate=0.4),
        bare="transfer_fault_rate",
    ), id="FaultProfile"),
    pytest.param(ServiceFaultProfile, dict(
        name="worker-kill",
        inline="kill_every_jobs=2,poison_seeds=1+2,stall_seconds=1.5",
        inline_fields=dict(kill_every_jobs=2, poison_seeds=(1, 2),
                           stall_seconds=1.5),
        file_fields=dict(corrupt_cache_every=4, poison_seeds=[5, 6]),
        bare="kill_every_jobs",
    ), id="ServiceFaultProfile"),
    pytest.param(ClusterFaultProfile, dict(
        name="shard-kill",
        inline="kill_shards=2,kill_after_jobs=1,seed=9",
        inline_fields=dict(kill_shards=2, kill_after_jobs=1, seed=9),
        file_fields=dict(stall_heartbeats=1),
        bare="kill_shards",
    ), id="ClusterFaultProfile"),
]


class TestProfileLoad:
    @pytest.mark.parametrize("cls, case", LOADER_CASES)
    def test_load_forms(self, tmp_path, cls, case):
        named = cls.named()[case["name"]]
        assert cls.load(case["name"]) is named
        assert cls.load(named) is named
        assert cls.load(named.to_dict()) == named

        inline = cls.load(case["inline"])
        for key, value in case["inline_fields"].items():
            assert getattr(inline, key) == value

        path = tmp_path / "profile.json"
        path.write_text(json.dumps(case["file_fields"]))
        from_file = cls.load(str(path))
        for key, value in case["file_fields"].items():
            expected = tuple(value) if isinstance(value, list) else value
            assert getattr(from_file, key) == expected
        assert cls.from_dict(json.loads(json.dumps(
            from_file.to_dict()))) == from_file

        path.write_text("[1, 2]")
        with pytest.raises(ConfigurationError, match="JSON object"):
            cls.load(str(path))
        with pytest.raises(ConfigurationError, match="unknown"):
            cls.load("explode=1")
        with pytest.raises(ConfigurationError):
            cls.load(case["bare"])
        with pytest.raises(ConfigurationError, match="assignment"):
            cls.load(f"{case['bare']}=1,{case['bare']}")
        with pytest.raises(ConfigurationError, match="named profile"):
            cls.load("no-such-profile")

        assert cls.load(case["name"], seed=5).seed == 5
        assert cls.load(case["name"], seed=named.seed) is named


class TestZeroCostWhenDisabled:
    def test_no_profile_means_no_injector(self):
        sim = run_scan(prefetcher="tbn")
        assert sim.injector is None
        assert sim.driver.injector is None
        assert sim.mshr.injector is None
        assert sim.stats.injected_faults == 0
        # degradation_times_ns is a (empty) list; everything else is 0.
        assert all(not v for v in sim.stats.resilience_dict().values())

    def test_resilience_counters_stay_out_of_as_dict(self):
        stats = run_scan(prefetcher="tbn").stats
        assert "migration_retries" not in stats.as_dict()
        assert "injected_transfer_faults" not in stats.as_dict()

    def test_watchdog_ticks_do_not_change_results(self):
        quiet = run_scan(num_pages=512, prefetcher="tbn",
                         watchdog_enabled=False).stats
        noisy = run_scan(num_pages=512, prefetcher="tbn",
                         watchdog_interval_events=25,
                         invariant_check_ticks=2).stats
        assert noisy.watchdog_ticks > 0
        assert noisy.as_dict() == quiet.as_dict()


class TestDeterminism:
    PROFILE = FaultProfile(transfer_fault_rate=0.1, latency_spike_rate=0.1,
                           fault_drop_rate=0.05, fault_duplicate_rate=0.05,
                           service_delay_rate=0.1, seed=11)

    def _run(self, profile):
        workload = make_workload("bfs", scale=0.15)
        config = oversubscribed(
            workload.footprint_bytes, 110.0, prefetcher="tbn",
            eviction="tbn", disable_prefetch_on_oversubscription=False,
            fault_profile=profile,
        )
        return run_workload(workload, config)

    def test_same_seed_same_stats(self):
        first = self._run(self.PROFILE)
        second = self._run(self.PROFILE)
        assert first.injected_faults > 0
        assert first.as_dict() == second.as_dict()
        assert first.resilience_dict() == second.resilience_dict()
        assert first.total_kernel_time_ns == second.total_kernel_time_ns

    def test_different_seed_different_injections(self):
        first = self._run(self.PROFILE)
        other = self._run(self.PROFILE.replace(seed=99))
        assert first.resilience_dict() != other.resilience_dict()

    def test_wake_warps_kicks_sms_in_waiter_order(self):
        # Regression: deduping kicked SMs through a set() iterated them in
        # id()-hash order, which varies across processes and made
        # same-timestamp wakeups nondeterministic.
        class FakeSm:
            def __init__(self):
                self.time_ns = 0.0
                self.scheduled = False

        class FakeWarp:
            def __init__(self, sm):
                self.sm = sm

            def wake(self):
                pass

        sim = make_sim()
        sms = [FakeSm() for _ in range(4)]
        waiters = [FakeWarp(sms[i]) for i in (2, 0, 3, 0, 1, 2)]
        sim.wake_warps(waiters, 10.0)
        kicked = []
        while sim.events:
            _, callback = sim.events.pop()
            kicked.append(callback.__defaults__[0])
        assert kicked == [sms[2], sms[0], sms[3], sms[1]]


class TestRetryAndDegradation:
    def test_retries_and_backoff_are_accounted(self):
        profile = FaultProfile(transfer_fault_rate=0.5, seed=2,
                               degrade_after_failures=0, max_retries=64)
        stats = run_scan(prefetcher="tbn", fault_profile=profile).stats
        assert stats.injected_transfer_faults > 0
        assert stats.migration_retries == stats.injected_transfer_faults
        assert stats.retry_backoff_ns >= \
            stats.migration_retries * profile.backoff_base_ns
        assert stats.pages_migrated == 256  # every page still arrives

    def test_retry_exhaustion_raises(self):
        profile = FaultProfile(transfer_fault_rate=1.0, max_retries=2,
                               degrade_after_failures=0)
        with pytest.raises(RetryExhaustedError, match="2 retries"):
            run_scan(prefetcher="none", fault_profile=profile)

    def test_degrades_to_on_demand_after_threshold(self):
        profile = FaultProfile(transfer_fault_rate=0.8, max_retries=256,
                               degrade_after_failures=3, seed=5)
        sim = run_scan(prefetcher="tbn", fault_profile=profile)
        assert sim.driver.degraded
        assert not sim.driver.prefetch_enabled
        assert sim.stats.degradation_events == 1
        assert sim.stats.degradation_times_ns
        # the run still finishes correctly in degraded mode
        assert sim.page_table.valid_count == 256

    def test_success_resets_consecutive_failures(self):
        profile = FaultProfile(transfer_fault_rate=0.1, max_retries=256,
                               degrade_after_failures=4)
        sim = make_sim(prefetcher="tbn", fault_profile=profile)
        driver = sim.driver
        for _ in range(3):
            driver._note_migration_failure(0.0)
        assert driver._consecutive_failures == 3
        # one successful group resets the streak: no degradation
        driver._consecutive_failures = 0
        for _ in range(3):
            driver._note_migration_failure(0.0)
        assert not driver.degraded
        assert driver.prefetch_enabled
        assert sim.stats.degradation_events == 0
        # the fourth consecutive failure crosses the threshold
        driver._note_migration_failure(0.0)
        assert driver.degraded
        assert not driver.prefetch_enabled
        assert sim.stats.degradation_events == 1


class TestLostAndDuplicateFaults:
    def test_dropped_faults_are_redelivered(self):
        profile = FaultProfile(fault_drop_rate=1.0)
        sim = run_scan(num_pages=64, prefetcher="none",
                       fault_profile=profile)
        assert sim.stats.injected_dropped_faults > 0
        assert sim.stats.recovered_faults > 0
        assert sim.page_table.valid_count == 64

    def test_mshr_overflow_is_survivable(self):
        profile = FaultProfile(mshr_overflow_rate=1.0)
        sim = run_scan(num_pages=64, prefetcher="none",
                       fault_profile=profile)
        assert sim.stats.injected_mshr_overflows > 0
        assert sim.stats.recovered_faults > 0
        assert sim.page_table.valid_count == 64

    def test_duplicate_faults_are_deduplicated(self):
        profile = FaultProfile(fault_duplicate_rate=1.0)
        sim = run_scan(num_pages=64, prefetcher="none",
                       fault_profile=profile)
        assert sim.stats.injected_duplicate_faults > 0
        assert sim.page_table.valid_count == 64
        assert sim.stats.pages_migrated == 64  # no double-migrations


class TestWatchdog:
    def test_livelock_aborts_with_watchdog_timeout(self):
        profile = FaultProfile(transfer_fault_rate=1.0, max_retries=10**9,
                               degrade_after_failures=0,
                               backoff_cap_ns=20_000.0)
        with pytest.raises(WatchdogTimeout, match="no progress") as info:
            run_scan(prefetcher="none", fault_profile=profile,
                     watchdog_interval_events=100,
                     watchdog_no_progress_ticks=3)
        exc = info.value
        assert exc.kernel == "scan"
        assert exc.events_processed >= 300
        assert "pages_migrated" in exc.progress

    def test_sim_time_budget_aborts(self):
        with pytest.raises(WatchdogTimeout, match="budget"):
            run_scan(num_pages=2048, prefetcher="none",
                     watchdog_interval_events=50,
                     watchdog_sim_time_budget_ns=5000.0)

    def test_watchdog_disabled_skips_budget(self):
        sim = run_scan(prefetcher="none", watchdog_enabled=False,
                       watchdog_sim_time_budget_ns=5000.0)
        assert sim.watchdog is None
        assert sim.stats.watchdog_ticks == 0


class TestSuiteIsolation:
    def _explode_on(self, monkeypatch, bad_name):
        real = common._local_runner

        def wrapped(cell):
            if cell.workload_spec["name"] == bad_name:
                raise SimulationError(f"synthetic failure in {bad_name}")
            return real(cell)

        monkeypatch.setattr(common, "_local_runner", wrapped)

    def test_failures_become_rows(self, monkeypatch):
        self._explode_on(monkeypatch, "hotspot")
        results = run_suite_setting(
            0.1, ["bfs", "hotspot", "nw"], isolate_failures=True,
            prefetcher="none", eviction="lru4k",
        )
        failed = results["hotspot"]
        assert isinstance(failed, FailedRun)
        assert failed.error_type == "SimulationError"
        assert "synthetic failure" in str(failed)
        assert not isinstance(results["bfs"], FailedRun)
        assert not isinstance(results["nw"], FailedRun)

    def test_without_isolation_the_suite_raises(self, monkeypatch):
        self._explode_on(monkeypatch, "bfs")
        with pytest.raises(SimulationError):
            run_suite_setting(0.1, ["bfs"], prefetcher="none",
                              eviction="lru4k")


class TestValidationIsolation:
    def test_crashing_section_becomes_failed_claim(self, monkeypatch):
        def bad(scale):
            raise SimulationError("section exploded")

        monkeypatch.setattr(registry, "EXPERIMENTS", {
            "good": lambda scale: ExperimentResult("good", "d", ["x"]),
            "bad": bad,
        })
        monkeypatch.setattr(validation, "CLAIMS", (
            Claim("ok", ("good",), "fine", "x", lambda r: ("x", True)),
            Claim("bad", ("bad",), "a crashing experiment", "x",
                  lambda r: ("x", True)),
        ))
        checks = validation.validate_claims(scale=0.1)
        assert [c.claim_id for c in checks] == ["ok", "bad-error"]
        assert checks[0].passed
        assert not checks[1].passed
        assert "SimulationError: section exploded" in checks[1].measured


class TestResilienceExperiment:
    def test_zero_rate_disables_injection(self):
        assert extension_resilience.profile_for_rate(0.0) is None
        profile = extension_resilience.profile_for_rate(0.08, seed=4)
        assert profile.transfer_fault_rate == 0.08
        assert profile.seed == 4

    @pytest.mark.slow
    def test_full_sweep_smoke(self):
        result = extension_resilience.run(
            scale=0.15, workload_names=["bfs"], rates=(0.0, 0.05))
        assert len(result.rows) == 2
        assert result.column("fault rate") == [0.0, 0.05]
        table = result.to_table()
        assert "TBNe+TBNp slowdown" in table


class TestCli:
    def test_run_with_named_profile_prints_resilience_counters(self,
                                                               capsys):
        from repro.cli import main
        assert main(["run", "bfs", "--scale", "0.15",
                     "--oversubscription", "110", "--prefetcher", "tbn",
                     "--eviction", "tbn", "--fault-profile",
                     "moderate"]) == 0
        out = capsys.readouterr().out
        assert "resilience counter" in out
        assert "injected_transfer_faults" in out

    def test_faults_severity_sweep(self, capsys):
        from repro.cli import main
        assert main(["faults", "bfs", "--scale", "0.15",
                     "--rates", "0", "0.05", "0.2"]) == 0
        rows = [line.split() for line in capsys.readouterr().out
                .splitlines() if line.strip()[:1].isdigit()]
        assert [row[0] for row in rows] == ["0.00", "0.05", "0.20"]
        # Column 3 counts injected perturbations: none at rate 0.
        assert rows[0][2] == "0" and int(rows[2][2]) > 0
