"""The chaos harness behind ``repro chaos`` and ``repro chaos --cluster``.

A chaos run boots a real serving target, pushes a deterministic job
mix through its ``/v1/jobs`` API with
:class:`~repro.serve.client.ServeClient` while faults land under it,
and then *asserts the recovery invariants* instead of merely observing
them.  One harness serves two targets:

* **single daemon** (the default): an in-process process-mode
  :class:`~repro.serve.server.SimulationService` (supervised worker
  fleet, journal, run cache) behind
  :func:`~repro.serve.server.shard_server` in the background, with a
  :class:`~repro.faultinject.service.ServiceFaultProfile` installed in
  its workers — a cluster of one;
* **cluster** (``cluster=True``): the coordinator in-process (it is
  the observer) plus N real ``repro serve --join`` shard *processes*
  under a :class:`~repro.faultinject.cluster.ClusterFaultProfile`, so a
  mid-wave SIGKILL is a real host death, not a mock; heartbeats stall
  and extra shards join as the profile asks.

Both targets run the same two waves: a *cold* wave of every cell, then
— once it is terminal — a *warm* wave resubmitting every non-poison
cell, so the cache-reuse path runs under fault too (a cache hit
normally; quarantine-and-reexecute when the profile corrupted the
stored entry).  Invariants checked on every target:

1. **No job lost** — every submitted job reaches a terminal state
   before the deadline, even while workers or whole shards are killed
   under it.
2. **No duplicate terminal state** — job ids are unique and
   ``done + failed + lost`` equals the number of unique jobs: a job
   revoked, requeued, stolen or failed over completes exactly once.
3. **Byte-identical results** — every non-poison job's served stats
   equal a fresh fault-free in-process run of the same cell
   (``repro run --json`` parity), byte for byte after canonical JSON
   encoding.  Crash-retry, cache self-healing, stealing, failover and
   re-execution on another host must be invisible in the payload.

Single daemon only:

4. **Poison quarantine** — every poison job (config seed listed in
   ``poison_seeds``) ends ``failed`` with a ``PoisonJobError`` after
   exactly ``max_attempts`` lease grants; nothing crash-loops.
5. **Clean journal** — after the drain the journal owes nothing: no
   main entries, no lease WAL entries; every pre-planted corrupt
   journal file (``truncate_journal_entries``) was quarantined at boot;
   and a profile that corrupts every cache store tripped the cache's
   self-healing in the warm wave.

Cluster only:

4. **Warm cluster** — the warm wave is served from shard run caches
   (hit rate at least ``WARM_HIT_RATE`` when the membership did not
   churn; a mid-wave join legitimately cools the keys that re-homed
   onto the new shard, so churn profiles only report the rate).

A report with an empty ``violations`` list is the harness's definition
of "the fleet survived"; the CLI exits non-zero otherwise.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from .analysis.report import format_table
from .cluster.coordinator import ClusterCoordinator, coordinator_server
from .config import oversubscribed
from .errors import ClusterError, ReproError, ServeClientError, ServeError
from .faultinject.cluster import ClusterFaultProfile
from .faultinject.profile import Profile
from .faultinject.service import ServiceFaultProfile
from .serve.api import ApiServer
from .serve.client import ServeClient
from .serve.journal import JOURNAL_FORMAT, JobJournal
from .serve.queue import FAILED, TERMINAL_STATES
from .serve.server import SimulationService, shard_server
from .serve.supervisor import FleetOptions
from .stats import FailedRun
from .sweep import (
    RunCache,
    SweepCell,
    decode_result,
    encode_result,
    execute_cell,
)
from .workloads import make_workload

#: Default wall deadline (seconds) for every job of a wave to go terminal.
DEFAULT_DEADLINE = 120.0
#: Required warm-wave cache-hit rate when cluster membership did not churn.
WARM_HIT_RATE = 0.9
#: Heartbeat interval a "stalled" shard is started with: long enough
#: that the coordinator reaps it as silent while it still serves.
STALLED_INTERVAL = 3600.0
#: Longest wait (seconds) for the coordinator to declare a SIGKILLed
#: shard dead before the run's shard table is snapshotted.
REAP_WAIT = 10.0


def build_chaos_cells(
    workloads: list[str],
    scale: float,
    seeds: list[int],
    poison_seeds: tuple[int, ...] = (),
    oversubscription: float = 110.0,
) -> list[SweepCell]:
    """The deterministic job mix: workloads x (seeds + poison seeds).

    Poison seeds are appended once, so the quarantine path is always
    exercised when the profile defines one.
    """
    all_seeds = list(seeds)
    for seed in poison_seeds:
        if seed not in all_seeds:
            all_seeds.append(seed)
    cells = []
    for name in workloads:
        workload = make_workload(name, scale=scale)
        for seed in all_seeds:
            cells.append(SweepCell(
                workload_spec={"name": name, "scale": scale},
                config=oversubscribed(
                    workload.footprint_bytes, oversubscription,
                    seed=seed,
                ),
            ))
    return cells


#: Report keys each target adds to the shared ones.
_TARGET_KEYS = {
    "serve": ("jobs_rerun", "poison_jobs", "planted_journal_corruption"),
    "cluster": ("shards", "shards_killed", "shards_stalled",
                "shards_joined_midwave", "victims", "shard_states",
                "warm_jobs", "warm_hits", "warm_hit_rate"),
}
#: Run metrics each target's table shows under the report's counts.
_TABLE_METRICS = {
    "serve": ("serve.jobs_quarantined", "serve.worker_restarts",
              "serve.lease_revocations", "serve.cache_entries_quarantined",
              "serve.journal_entries_quarantined"),
    "cluster": ("cluster.jobs_routed", "cluster.jobs_stolen",
                "cluster.jobs_failed_over"),
}


@dataclass
class ChaosReport:
    """What one chaos run injected, observed, and concluded.

    ``target`` is ``"serve"`` (single daemon) or ``"cluster"``; the
    other target's counters stay at their defaults and are left out of
    the JSON and the table.
    """

    target: str
    profile: ServiceFaultProfile | ClusterFaultProfile
    #: Jobs submitted over both waves, and how they ended.
    jobs_total: int = 0
    jobs_done: int = 0
    jobs_failed: int = 0
    #: Warm-wave jobs, and how many the run cache answered.
    warm_jobs: int = 0
    warm_hits: int = 0
    parity_checked: int = 0
    # --- single daemon -----------------------------------------------------
    poison_jobs: int = 0
    planted_journal_corruption: int = 0
    # --- cluster -----------------------------------------------------------
    shards: int = 0
    shards_stalled: int = 0
    shards_joined_midwave: int = 0
    #: Ids of the SIGKILLed shards.
    victims: list[str] = field(default_factory=list)
    #: ``GET /v1/cluster/shards`` at the end of the run: id -> state.
    shard_states: dict[str, str] = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    #: Invariant violations; empty means the fleet survived.
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def jobs_rerun(self) -> int:
        """The single-daemon name of :attr:`warm_jobs`."""
        return self.warm_jobs

    @property
    def shards_killed(self) -> int:
        return len(self.victims)

    @property
    def warm_hit_rate(self) -> float | None:
        if not self.warm_jobs:
            return None
        return self.warm_hits / self.warm_jobs

    def to_json_dict(self) -> dict:
        keys = ("jobs_total", "jobs_done", "jobs_failed",
                "parity_checked", "metrics", "violations") \
            + _TARGET_KEYS[self.target]
        payload = {"ok": self.ok, "profile": self.profile.to_dict()}
        payload.update((key, getattr(self, key)) for key in keys)
        return payload

    def to_table(self) -> str:
        """The JSON report's counts and the target's headline metrics."""
        rows = [[key, value] for key, value in self.to_json_dict().items()
                if key != "ok" and (value is None or isinstance(
                    value, (int, float)))]
        rows += [[name, self.metrics.get(name, 0)]
                 for name in _TABLE_METRICS[self.target]]
        rows.append(["invariant violations", len(self.violations)])
        label = "chaos" if self.target == "serve" else "cluster chaos"
        lines = [format_table([f"{label} outcome", "value"], rows,
                              title=f"{label} run")]
        for violation in self.violations:
            lines.append(f"VIOLATION: {violation}")
        lines.append(f"{label}: PASS — all recovery invariants hold"
                     if self.ok else f"{label}: FAIL")
        return "\n".join(lines)


#: One submitted job: (job id, the cell it runs).
Submitted = tuple[str, SweepCell]
#: A terminal job's (status, result) payloads, by job id.
Outcomes = dict[str, tuple[dict, dict]]


# --- single-daemon target ----------------------------------------------------

def _plant_corrupt_journal(journal_dir: Path, count: int) -> int:
    """Drop ``count`` torn/garbage journal files for boot to survive."""
    journal_dir.mkdir(parents=True, exist_ok=True)
    for index in range(count):
        path = journal_dir / f"zz-corrupt-{index:02d}.json"
        if index % 2 == 0:
            # Torn write: valid prefix, truncated mid-document.
            document = json.dumps({"format": JOURNAL_FORMAT,
                                   "id": f"torn-{index}", "seq": 10**6})
            path.write_text(document[:len(document) // 2])
        else:
            path.write_text("not json at all\x00")
    return count


class _ServiceTarget:
    """One process-mode daemon, served over HTTP from this process."""

    name = "serve"

    def __init__(self, profile: ServiceFaultProfile, workers: int,
                 max_attempts: int, job_timeout: float, deadline: float,
                 verbose: bool) -> None:
        if profile.stall_every_jobs and job_timeout <= 0:
            raise ServeError(
                "profile stalls workers; a --job-timeout > 0 is required "
                "so the supervisor can kill them"
            )
        self.profile = profile
        self.poison_seeds = profile.poison_seeds
        self.workers = workers
        self.fleet = FleetOptions(
            max_attempts=max_attempts,
            job_timeout=job_timeout,
            heartbeat_timeout=max(5.0, job_timeout * 2) if job_timeout
            else 30.0,
            heartbeat_interval=0.1,
            backoff_base=0.01,
            backoff_cap=0.1,
            fault_profile=profile if profile.injects_anything else None,
        )
        self.deadline = deadline
        self.verbose = verbose
        self.service: SimulationService | None = None
        self.server: ApiServer | None = None

    def boot(self, root: Path, report: ChaosReport) -> str:
        """Start the daemon under ``root``; returns its URL."""
        journal_dir = root / "journal"
        report.planted_journal_corruption = _plant_corrupt_journal(
            journal_dir, self.profile.truncate_journal_entries)
        self.service = SimulationService(
            jobs=self.workers,
            cache=RunCache(root / "cache"),
            journal=JobJournal(journal_dir),
            verbose=self.verbose,
            worker_mode="process",
            fleet=self.fleet,
        )
        self.service.start()
        server = shard_server(self.service)
        server.start_background()
        self.server = server
        return f"http://{server.host}:{server.port}"

    def mid_wave(self, count: int, total: int,
                 report: ChaosReport) -> None:
        """Nothing to do mid-wave: the faults live in the workers."""

    def check(self, client: ServeClient, report: ChaosReport,
              jobs: list[Submitted], outcomes: Outcomes) -> None:
        self.service.drain(timeout=self.deadline)
        report.metrics = self.service.metrics_snapshot()

        # -- poison quarantine, read from the terminal status -------------
        for job_id, cell in jobs:
            if cell.config.seed not in self.poison_seeds:
                continue
            report.poison_jobs += 1
            if job_id not in outcomes:
                continue
            status, _ = outcomes[job_id]
            error_type = (status.get("error") or {}).get("type")
            if status.get("state") != FAILED \
                    or error_type != "PoisonJobError":
                report.violations.append(
                    f"poison job {job_id} not quarantined: state "
                    f"{status.get('state')!r}, error {error_type!r}"
                )
            elif status.get("attempts") != self.fleet.max_attempts:
                report.violations.append(
                    f"poison job {job_id} quarantined after "
                    f"{status.get('attempts')} attempt(s), expected "
                    f"{self.fleet.max_attempts}"
                )

        # -- clean journal ------------------------------------------------
        journal = self.service.journal
        leftover = [path.name for path in journal.root.glob("*.json")]
        if leftover:
            report.violations.append(
                f"journal not clean after drain: {sorted(leftover)}")
        leases = journal.load_leases()
        if leases:
            report.violations.append(
                f"lease WAL not clean after drain: "
                f"{sorted(entry['id'] for entry in leases)}"
            )
        quarantined = report.metrics.get(
            "serve.journal_entries_quarantined", 0)
        if quarantined < report.planted_journal_corruption:
            report.violations.append(
                f"only {quarantined} of "
                f"{report.planted_journal_corruption} planted corrupt "
                "journal entries were quarantined"
            )

        # -- cache self-healing -------------------------------------------
        # With every store corrupted, the warm wave must have tripped the
        # quarantine-and-reexecute path at least once (the parity check
        # already proved the healed results are right).
        if self.profile.corrupt_cache_every == 1 and report.warm_jobs \
                and not report.metrics.get(
                    "serve.cache_entries_quarantined", 0):
            report.violations.append(
                "profile corrupts every cache store, the reuse wave ran, "
                "but no cache entry was quarantined"
            )

    def close(self) -> None:
        if self.service is not None:
            self.service.drain(timeout=self.deadline)
        if self.server is not None:
            self.server.shutdown()
            self.server.close()


# --- cluster target ----------------------------------------------------------

@dataclass
class _Shard:
    """One shard daemon under harness control."""

    shard_id: str
    process: subprocess.Popen
    stalled: bool = False


class _ClusterTarget:
    """An in-process coordinator plus shard subprocesses."""

    name = "cluster"
    poison_seeds: tuple[int, ...] = ()

    def __init__(self, profile: ClusterFaultProfile, shards: int,
                 workers_per_shard: int, verbose: bool) -> None:
        if shards < 2:
            raise ClusterError(
                f"cluster chaos needs >= 2 shards, got {shards}"
            )
        if profile.kill_shards >= shards:
            raise ClusterError(
                f"profile kills {profile.kill_shards} of {shards} "
                "shards; at least one must survive"
            )
        self.profile = profile
        self.shards = shards
        self.workers_per_shard = workers_per_shard
        self.verbose = verbose
        self.fleet: list[_Shard] = []
        self.coordinator: ClusterCoordinator | None = None
        self.server: ApiServer | None = None

    def boot(self, root: Path, report: ChaosReport) -> str:
        """Start the coordinator and the shards under ``root``; returns
        the coordinator's URL."""
        self.root = root
        self.coordinator = ClusterCoordinator(
            seed=self.profile.seed, heartbeat_timeout=1.5,
            steal_threshold=2, steal_batch=2, verbose=self.verbose)
        server = coordinator_server(self.coordinator)
        server.start_background()
        self.server = server
        self.coordinator.start_maintenance(tick=0.1)
        self.url = f"http://{server.host}:{server.port}"

        stalled = min(self.profile.stall_heartbeats, self.shards - 1)
        report.shards = self.shards
        report.shards_stalled = stalled
        for index in range(self.shards):
            self._boot_shard(index, stalled=index < stalled)
        # Wait until every shard has *registered* (not necessarily
        # still alive: a heartbeat-stalled shard may legitimately be
        # reaped before the slowest sibling finishes booting).
        limit = time.monotonic() + 30.0
        while len(self.coordinator.registry.shards()) < self.shards:
            if time.monotonic() >= limit:
                raise ClusterError(
                    f"only {len(self.coordinator.registry.shards())} of "
                    f"{self.shards} shards registered within 30s"
                )
            time.sleep(0.05)
        return self.url

    def _boot_shard(self, index: int, stalled: bool) -> None:
        shard_id = f"chaos-s{index}"
        shard_root = self.root / shard_id
        shard_root.mkdir(parents=True, exist_ok=True)
        interval = STALLED_INTERVAL if stalled else 0.2
        command = [
            sys.executable, "-m", "repro", "serve",
            # Port 0: the shard binds a free port and advertises it to
            # the coordinator, the only way the harness reaches it.
            "--host", "127.0.0.1", "--port", "0",
            "--jobs", str(self.workers_per_shard),
            "--worker-mode", "thread",
            "--cache-dir", str(shard_root / "cache"),
            "--journal-dir", str(shard_root / "journal"),
            "--no-events",
            "--join", self.url,
            "--shard-id", shard_id,
            "--heartbeat-interval", str(interval),
        ]
        with (shard_root / "serve.err").open("w") as stderr:
            process = subprocess.Popen(
                command, stdout=subprocess.DEVNULL, stderr=stderr,
                cwd=str(Path(__file__).resolve().parents[1]))
        self.fleet.append(_Shard(shard_id, process, stalled=stalled))

    def mid_wave(self, count: int, total: int,
                 report: ChaosReport) -> None:
        """SIGKILL the victims and join extra shards once ``count`` of
        the cold wave's ``total`` jobs are submitted."""
        if count != max(1, min(self.profile.kill_after_jobs, total)):
            return
        # Deterministic victim choice: rotate the boot order by the
        # profile seed, kill from the front.  Stalled shards are not
        # SIGKILL victims — their whole point is to stay alive while
        # the coordinator reaps them.
        candidates = [shard for shard in self.fleet if not shard.stalled]
        rotation = self.profile.seed % max(len(candidates), 1)
        victims = candidates[rotation:] + candidates[:rotation]
        for victim in victims[:self.profile.kill_shards]:
            victim.process.send_signal(signal.SIGKILL)
            report.victims.append(victim.shard_id)
            if self.verbose:
                print(f"[chaos] SIGKILLed {victim.shard_id}",
                      file=sys.stderr)
        for _ in range(self.profile.join_midwave):
            self._boot_shard(len(self.fleet), stalled=False)
            report.shards_joined_midwave += 1

    def check(self, client: ServeClient, report: ChaosReport,
              jobs: list[Submitted], outcomes: Outcomes) -> None:
        # A SIGKILLed shard is declared dead on a failed proxy or after
        # heartbeat silence; give the reaper time before the snapshot.
        limit = time.monotonic() + REAP_WAIT
        while True:
            report.shard_states = {
                shard["id"]: shard["state"]
                for shard in client.cluster_shards()["shards"]}
            if time.monotonic() >= limit or all(
                    report.shard_states.get(victim) == "dead"
                    for victim in report.victims):
                break
            time.sleep(0.05)
        report.metrics = self.coordinator.cluster_metrics().get(
            "coordinator", {})

        rate = report.warm_hit_rate
        if rate is not None and not self.profile.join_midwave \
                and rate < WARM_HIT_RATE:
            report.violations.append(
                f"warm wave hit rate {rate:.2f} < {WARM_HIT_RATE} with "
                "no membership churn: shard caches were not reused"
            )

    def close(self) -> None:
        for shard in self.fleet:
            if shard.process.poll() is None:
                shard.process.terminate()
        for shard in self.fleet:
            try:
                shard.process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                shard.process.kill()
                shard.process.wait(timeout=10.0)
        if self.server is not None:
            self.server.shutdown()
            self.server.close()


# --- shared by both targets --------------------------------------------------

def _wait_terminal(client: ServeClient, job_ids: list[str],
                   deadline: float) -> Outcomes:
    """Poll until every id is terminal; returns its (status, result)."""
    limit = time.monotonic() + deadline
    outcomes: Outcomes = {}
    pending = list(job_ids)
    while pending and time.monotonic() < limit:
        still = []
        for job_id in pending:
            try:
                status = client.status(job_id)
                if status.get("state") in TERMINAL_STATES:
                    outcomes[job_id] = (status, client.result(job_id))
                    continue
            except ServeClientError:
                pass
            still.append(job_id)
        pending = still
        if pending:
            time.sleep(0.05)
    return outcomes


def _wave(target, client: ServeClient, cells: list[SweepCell],
          report: ChaosReport, deadline: float, warm: bool = False,
          ) -> tuple[list[Submitted], Outcomes]:
    """Submit ``cells``, wait for them, and flag every lost job.

    The cold wave hands the target its mid-wave hook after every
    submission; the warm wave runs on whatever membership is left.
    """
    jobs: list[Submitted] = []
    for index, cell in enumerate(cells):
        answer = client.submit(cell.workload_spec,
                               config=cell.config.to_dict())
        if not answer.get("coalesced"):
            jobs.append((answer["id"], cell))
        if not warm:
            target.mid_wave(index + 1, len(cells), report)
    outcomes = _wait_terminal(client, [job_id for job_id, _ in jobs],
                              deadline)
    label = " (warm wave)" if warm else ""
    for job_id, _ in jobs:
        if job_id not in outcomes:
            try:
                state = client.status(job_id).get("state")
            except ReproError:
                state = "?"
            report.violations.append(
                f"lost job: {job_id}{label} not terminal within "
                f"{deadline:g}s (state {state!r})"
            )
    return jobs, outcomes


def _check_shared(report: ChaosReport, jobs: list[Submitted],
                  outcomes: Outcomes,
                  poison_seeds: tuple[int, ...]) -> None:
    """Terminal accounting, duplicate ids, and result parity."""
    ids = [job_id for job_id, _ in jobs]
    if len(set(ids)) != len(ids):
        report.violations.append("duplicate job ids issued")
    expected: dict[str, str] = {}
    for job_id, cell in jobs:
        if job_id not in outcomes:
            continue  # already flagged as lost
        status, body = outcomes[job_id]
        result = decode_result(body["result"])
        if isinstance(result, FailedRun):
            report.jobs_failed += 1
        elif result is not None:
            report.jobs_done += 1
        if cell.config.seed in poison_seeds:
            continue  # the target judges its poison jobs
        if isinstance(result, FailedRun):
            report.violations.append(
                f"non-poison job {job_id} failed: {result}")
            continue
        if result is None:
            report.violations.append(
                f"job {job_id} ended {status.get('state')!r}, "
                "expected stats")
            continue
        # Byte-identical to a fresh fault-free in-process run.
        report.parity_checked += 1
        key = cell.cache_key()
        if key not in expected:
            baseline, _ = execute_cell(cell, cache=None)
            expected[key] = json.dumps(encode_result(baseline),
                                       sort_keys=True)
        if json.dumps(body["result"], sort_keys=True) != expected[key]:
            report.violations.append(
                f"parity broken: job {job_id} served stats differ "
                "from a fresh fault-free run"
            )

    lost = sum(1 for v in report.violations if v.startswith("lost job"))
    if report.jobs_done + report.jobs_failed + lost != len(set(ids)):
        report.violations.append(
            f"terminal-state accounting broken: {report.jobs_done} "
            f"done + {report.jobs_failed} failed + {lost} lost != "
            f"{len(set(ids))} unique jobs"
        )


def run_chaos(
    workloads: list[str],
    scale: float = 0.12,
    seeds: list[int] | None = None,
    profile: str | dict | Profile | None = None,
    cluster: bool = False,
    workers: int = 2,
    max_attempts: int = 3,
    job_timeout: float = 0.0,
    shards: int = 3,
    workers_per_shard: int = 1,
    deadline: float = DEFAULT_DEADLINE,
    root_dir: str | Path | None = None,
    verbose: bool = False,
) -> ChaosReport:
    """Run the whole harness once and return the invariant report.

    ``profile`` is anything :meth:`~repro.faultinject.profile.Profile.load`
    resolves — a :class:`ClusterFaultProfile` spec with ``cluster``, a
    :class:`ServiceFaultProfile` spec otherwise; ``None`` injects
    nothing.  ``workers``, ``max_attempts`` and ``job_timeout`` shape the
    single daemon (``job_timeout`` must be > 0 when the profile stalls
    workers, or the stall would win); ``shards`` and
    ``workers_per_shard`` shape the cluster.  ``root_dir`` holds the
    run's caches and journals (a temp dir is created and removed when
    None).
    """
    if cluster:
        profile = ClusterFaultProfile.load(
            profile if profile is not None else {})
        target = _ClusterTarget(profile, shards, workers_per_shard,
                                verbose)
        seeds = list(seeds) if seeds else [1, 2, 3, 4]
    else:
        profile = ServiceFaultProfile.load(
            profile if profile is not None else {})
        target = _ServiceTarget(profile, workers, max_attempts,
                                job_timeout, deadline, verbose)
        seeds = list(seeds) if seeds else [1, 2]
    # Built before boot, so a bad workload name starts nothing.
    cells = build_chaos_cells(workloads, scale, seeds,
                              target.poison_seeds)

    own_root = root_dir is None
    root = Path(tempfile.mkdtemp(prefix="repro-chaos-")) if own_root \
        else Path(root_dir)
    report = ChaosReport(target=target.name, profile=profile)
    try:
        client = ServeClient.from_url(target.boot(root, report),
                                      timeout=10.0, connect_retries=3)
        jobs, outcomes = _wave(target, client, cells, report, deadline)
        warm_cells = [cell for cell in cells
                      if cell.config.seed not in target.poison_seeds]
        warm, warm_outcomes = _wave(target, client, warm_cells, report,
                                    deadline, warm=True)
        report.warm_jobs = len(warm)
        report.warm_hits = sum(
            1 for _, payload in warm_outcomes.values()
            if payload.get("cache_hit"))
        jobs += warm
        outcomes.update(warm_outcomes)
        report.jobs_total = len(jobs)

        _check_shared(report, jobs, outcomes, target.poison_seeds)
        target.check(client, report, jobs, outcomes)
    finally:
        target.close()
        if own_root:
            shutil.rmtree(root, ignore_errors=True)
    if verbose:
        print(f"[chaos] {report.jobs_total} jobs, "
              f"{len(report.violations)} violation(s)", file=sys.stderr)
    return report
