"""Tests for the worker-process fleet and the service chaos layer.

Unmarked tests are pure in-process unit tests — fault-profile
validation (spec parsing is tested once for every profile shape in
``tests/test_faultinject.py``), run-cache self-healing, fleet-option
policy, the harness's job mix — and run in the tier-1 suite.  The
``chaos``-marked classes spawn real worker processes and exercise the
supervisor's recovery machinery: crash detection, lease revocation and
requeue, poison-job quarantine, hang kills, and the full ``repro
chaos`` invariant harness and CLI.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.chaos import build_chaos_cells, run_chaos
from repro.config import SimulatorConfig
from repro.errors import ConfigurationError, ServeError, WorkloadError
from repro.faultinject import ServiceFaultProfile
from repro.serve import FleetOptions, JobJournal, SimulationService
from repro.serve.queue import DONE, FAILED
from repro.stats import FailedRun, SimStats
from repro.sweep import RunCache, SweepCell

SCALE = 0.12


def cell(seed: int = 0, name: str = "hotspot") -> SweepCell:
    return SweepCell(
        workload_spec={"name": name, "scale": SCALE},
        config=SimulatorConfig(prefetcher="tbn", eviction="lru4k",
                               seed=seed),
    )


class TestServiceFaultProfile:
    def test_defaults_inject_nothing(self):
        profile = ServiceFaultProfile()
        assert not profile.injects_anything
        assert not profile.should_kill(1, 0)
        assert not profile.should_stall(1)
        assert not profile.should_corrupt_store(1)

    def test_counter_based_decisions_are_deterministic(self):
        profile = ServiceFaultProfile(kill_every_jobs=2,
                                      stall_every_jobs=3,
                                      corrupt_cache_every=2)
        assert [profile.should_kill(i, 0) for i in (1, 2, 3, 4)] == \
            [False, True, False, True]
        assert [profile.should_stall(i) for i in (1, 2, 3)] == \
            [False, False, True]
        assert [profile.should_corrupt_store(i) for i in (1, 2)] == \
            [False, True]

    def test_poison_seed_kills_regardless_of_counter(self):
        profile = ServiceFaultProfile(poison_seeds=(1097,))
        assert profile.should_kill(1, 1097)
        assert not profile.should_kill(1, 0)

    def test_validation_rejects_nonsense(self):
        for bad in (
            {"kill_every_jobs": -1},
            {"stall_seconds": -2.0},
            {"poison_seeds": (1, "x")},
            {"seed": "abc"},
        ):
            with pytest.raises(ConfigurationError):
                ServiceFaultProfile(**bad)
        with pytest.raises(ConfigurationError):
            ServiceFaultProfile.from_dict({"bogus_field": 1})

    def test_round_trip_through_dict(self):
        profile = ServiceFaultProfile(kill_every_jobs=3,
                                      poison_seeds=(7, 9),
                                      corrupt_cache_every=2, seed=4)
        clone = ServiceFaultProfile.from_dict(
            json.loads(json.dumps(profile.to_dict())))
        assert clone == profile


class TestFleetOptions:
    def test_backoff_is_capped_exponential(self):
        options = FleetOptions(backoff_base=0.1, backoff_multiplier=2.0,
                               backoff_cap=0.3)
        assert options.backoff_for(1) == pytest.approx(0.1)
        assert options.backoff_for(2) == pytest.approx(0.2)
        assert options.backoff_for(5) == pytest.approx(0.3)  # capped

    def test_validation(self):
        with pytest.raises(ServeError):
            FleetOptions(max_attempts=0).validate()
        with pytest.raises(ServeError):
            FleetOptions(job_timeout=-1.0).validate()
        with pytest.raises(ServeError):
            FleetOptions(backoff_multiplier=0.5).validate()

    def test_injected_runner_forces_thread_mode(self):
        with pytest.raises(ServeError):
            SimulationService(jobs=1, runner=lambda c: None,
                              worker_mode="process")
        with pytest.raises(ServeError):
            SimulationService(jobs=1, worker_mode="fibers")


class TestRunCacheSelfHealing:
    def test_missing_entry_is_a_plain_miss(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        assert cache.load("0" * 64) is None
        assert cache.misses == 1 and cache.quarantined == 0

    def test_corrupt_entry_quarantined_and_healed(self, tmp_path,
                                                  capsys):
        cache = RunCache(tmp_path / "cache")
        target = cell(1)
        key = target.cache_key()
        cache.store(key, target, SimStats())
        assert isinstance(cache.load(key), SimStats)

        # Tear the file in half: the next load must quarantine it and
        # report a miss, never raise or serve garbage.
        path = cache.path_for(key)
        raw = path.read_text()
        path.write_text(raw[:len(raw) // 2])
        assert cache.load(key) is None
        assert cache.quarantined == 1
        assert "quarantined corrupt entry" in capsys.readouterr().err
        assert (cache.quarantine_dir / path.name).is_file()

        # Self-healing: a fresh store lands in the now-empty slot.
        cache.store(key, target, SimStats())
        assert isinstance(cache.load(key), SimStats)

    def test_stale_format_and_bad_payloads_quarantine(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        key = "ab" + "0" * 62
        path = cache.path_for(key)
        for bad in (
            json.dumps({"format": -1}),        # stale schema
            json.dumps([1, 2, 3]),             # not even an object
            json.dumps({"format": 1, "result": {"kind": "bogus"}}),
        ):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(bad)
            assert cache.load(key) is None
        assert cache.quarantined == 3


class TestChaosCells:
    def test_poison_seeds_are_appended_once(self):
        profile = ServiceFaultProfile(poison_seeds=(1097,))
        cells = build_chaos_cells(["hotspot"], SCALE, [1, 1097],
                                  profile.poison_seeds)
        assert [c.config.seed for c in cells] == [1, 1097]
        assert len({c.cache_key() for c in cells}) == 2

    def test_unknown_workload_raises_before_boot(self, tmp_path):
        """A bad job mix is refused before any daemon starts: no
        dispatcher thread is left behind and no run root is written."""
        before = set(threading.enumerate())
        with pytest.raises(WorkloadError):
            run_chaos(workloads=["nosuch"], root_dir=tmp_path / "chaos")
        started = [thread.name for thread in threading.enumerate()
                   if thread not in before]
        assert not [name for name in started
                    if name.startswith("serve-dispatch")]
        assert not (tmp_path / "chaos").exists()


def process_service(tmp_path, profile=None, workers=1, **fleet_kwargs):
    """A process-mode service with fast supervision knobs for tests."""
    fleet_kwargs.setdefault("max_attempts", 3)
    fleet = FleetOptions(
        heartbeat_interval=0.1,
        backoff_base=0.01,
        backoff_cap=0.05,
        fault_profile=profile,
        **fleet_kwargs,
    )
    service = SimulationService(
        jobs=workers,
        cache=RunCache(tmp_path / "cache"),
        journal=JobJournal(tmp_path / "journal"),
        worker_mode="process",
        fleet=fleet,
    )
    service.start()
    return service


@pytest.mark.chaos
class TestProcessFleet:
    """Real worker processes under injected faults."""

    def test_plain_job_runs_and_matches_in_process_result(
            self, tmp_path):
        from repro.sweep import execute_cell

        service = process_service(tmp_path)
        try:
            job, _ = service.submit(cell(1))
            assert job.wait(timeout=120)
            assert job.state == DONE
            direct, _ = execute_cell(cell(1))
            assert job.result == direct
            assert service.health()["worker_mode"] == "process"
        finally:
            service.drain(timeout=60)

    def test_worker_crash_revokes_lease_and_job_still_completes(
            self, tmp_path):
        # Every worker dies on its 1st job, then the respawn (job
        # counter reset) would die again — so use kill_every_jobs=2:
        # worker survives job 1, dies on job 2, respawn finishes it.
        profile = ServiceFaultProfile(kill_every_jobs=2)
        service = process_service(tmp_path, profile=profile)
        try:
            first, _ = service.submit(cell(1))
            second, _ = service.submit(cell(2))
            assert first.wait(timeout=120) and second.wait(timeout=120)
            assert first.state == DONE and second.state == DONE
            assert second.attempts == 2  # one revoked lease
            snapshot = service.metrics_snapshot()
            assert snapshot["serve.worker_restarts"] >= 1
            assert snapshot["serve.lease_revocations"] >= 1
            assert snapshot["serve.jobs_done"] == 2
            # Nothing owed: journal and lease WALs are clean.
            assert service.journal.load_leases() == []
        finally:
            service.drain(timeout=60)

    def test_poison_job_is_quarantined_after_max_attempts(
            self, tmp_path):
        profile = ServiceFaultProfile(poison_seeds=(1097,))
        service = process_service(tmp_path, profile=profile,
                                  max_attempts=2)
        try:
            poison, _ = service.submit(cell(1097))
            healthy, _ = service.submit(cell(1))
            assert poison.wait(timeout=120)
            assert healthy.wait(timeout=120)
            assert healthy.state == DONE
            assert poison.state == FAILED
            assert isinstance(poison.result, FailedRun)
            assert poison.result.error_type == "PoisonJobError"
            assert poison.attempts == 2
            snapshot = service.metrics_snapshot()
            assert snapshot["serve.jobs_quarantined"] == 1
            assert snapshot["serve.worker_restarts"] == 2
        finally:
            service.drain(timeout=60)

    def test_wedged_worker_is_killed_by_the_job_deadline(
            self, tmp_path):
        # The worker stalls 30s on its 2nd job; a 2s deadline kills it
        # and the respawned worker (counter reset) finishes the job.
        profile = ServiceFaultProfile(stall_every_jobs=2,
                                      stall_seconds=30.0)
        service = process_service(tmp_path, profile=profile,
                                  job_timeout=2.0,
                                  heartbeat_timeout=10.0)
        try:
            first, _ = service.submit(cell(1))
            second, _ = service.submit(cell(2))
            assert first.wait(timeout=120) and second.wait(timeout=120)
            assert first.state == DONE and second.state == DONE
            assert service.metrics_snapshot()[
                "serve.worker_restarts"] >= 1
        finally:
            service.drain(timeout=60)


#: The harness's fault mix: worker kills, a poison seed, every cache
#: store torn, and two planted corrupt journal files.
MIXED = ServiceFaultProfile(kill_every_jobs=3, poison_seeds=(1097,),
                            corrupt_cache_every=1,
                            truncate_journal_entries=2)


@pytest.mark.chaos
class TestChaosHarness:
    @pytest.mark.parametrize("profile, seeds", [
        pytest.param(MIXED, [1, 2], id="mixed"),
        pytest.param("worker-kill", [1, 2, 3], id="worker-kill"),
    ])
    def test_profile_invariants_hold(self, tmp_path, profile, seeds):
        report = run_chaos(
            workloads=["hotspot"], scale=SCALE, seeds=seeds,
            profile=profile, workers=2, max_attempts=3,
            root_dir=tmp_path / "chaos",
        )
        assert report.violations == []
        assert report.ok
        payload = report.to_json_dict()
        assert payload["ok"] and payload["violations"] == []
        assert "chaos: PASS" in report.to_table()
        if profile is MIXED:
            assert report.jobs_total == 5  # 3 first wave + 2 reuse wave
            assert report.poison_jobs == 1
            assert report.jobs_failed == 1
            assert report.metrics["serve.jobs_quarantined"] == 1
            assert report.metrics[
                "serve.journal_entries_quarantined"] == 2
            assert report.metrics[
                "serve.cache_entries_quarantined"] >= 1
        else:
            # Three jobs over two workers: one worker reaches its 2nd
            # job and is killed.
            assert report.metrics["serve.worker_restarts"] >= 1

    def test_stalling_profile_requires_job_timeout(self):
        with pytest.raises(ServeError):
            run_chaos(workloads=["hotspot"],
                      profile=ServiceFaultProfile(stall_every_jobs=1))

    def test_cli_json_report(self, tmp_path):
        """``repro chaos --json`` exits 0 with an ``ok`` report."""
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run(
            [sys.executable, "-m", "repro", "chaos", "--json",
             "--dir", str(tmp_path / "chaos")],
            capture_output=True, text=True, timeout=600,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert out.returncode == 0, out.stderr
        report = json.loads(out.stdout)
        assert report["ok"] is True
        assert report["violations"] == []
