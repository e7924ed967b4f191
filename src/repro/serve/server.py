"""The long-running simulation service behind ``repro serve``.

:class:`SimulationService` owns the whole job lifecycle:

* admission through the bounded, coalescing
  :class:`~repro.serve.queue.JobQueue` (full queue -> 429 upstream),
* one execution backend, the :class:`~repro.serve.supervisor.Supervisor`:
  per-slot job leases whose attempt counts land in the journal, and —
  with worker *processes* in the slots, the default for ``repro
  serve`` — crash/hang detection via heartbeats and job deadlines,
  leases revoked and requeued with bounded backoff when a worker dies,
  poison jobs quarantined after ``max_attempts`` worker-killing
  executions.  ``worker_mode="thread"`` fills the slots
  with in-process workers instead (shared imports, injectable runners,
  no crash isolation),
* metrics through a :class:`~repro.obs.metrics.MetricsRegistry`
  (queue depth, running jobs, cache hit/miss, jobs served, worker
  restarts, lease revocations, quarantine counters, p50/p95 service
  latency) exported verbatim at ``GET /v1/metrics``; each job and
  worker transition is reported once, through a
  :class:`~repro.serve.events.TransitionRecorder` whose kind tables
  (:data:`SHARD_COUNTERS`, :data:`WORKER_COUNTERS`) name the counter it
  bumps, and the same record feeds the event log and the trace,
* a write-ahead :class:`~repro.serve.journal.JobJournal`, one entry per
  owed job, on disk before a worker can take the job, so queued and
  running work survives a restart with its attempt count (corrupt
  entries quarantined, never fatal),
* graceful drain: :meth:`drain` stops admissions, lets running jobs
  finish, and leaves queued jobs journaled for the next generation.

:func:`shard_server` puts it behind the service tier's one HTTP daemon
(:class:`~repro.serve.api.ApiServer`) with the shard's routes;
:func:`run_server` is the ``repro serve`` entry point.
"""

from __future__ import annotations

import sys
import threading

from .. import __version__
from ..errors import (
    InvalidJobError,
    JobNotFoundError,
    JobStateError,
    QueueFullError,
    ServeError,
    WorkerCrashError,
)
from ..obs.metrics import MetricsRegistry
from ..obs.prom import prometheus_text
from ..stats import FailedRun
from ..sweep import RunCache, SweepCell, encode_result, execute_cell
from .api import ApiServer, build_cell, job_routes, make_handler
from .events import ServeEventLog, ServiceTracer, TransitionRecorder
from .journal import JobJournal
from .queue import Job, JobQueue
from .supervisor import FleetOptions, Supervisor

#: Execution backends selectable via ``worker_mode``.
WORKER_MODES = ("thread", "process")

#: The shard's kind table: transition record kind (``terminal:<state>``
#: for terminal records) -> the counter it bumps.
SHARD_COUNTERS = {
    "submitted": ("serve.jobs_submitted", "jobs admitted to the queue"),
    "coalesced": (
        "serve.jobs_coalesced",
        "submissions answered by an already-active identical job"),
    "resumed": ("serve.jobs_resumed", "journaled jobs replayed at startup"),
    "terminal:done": ("serve.jobs_done", "jobs finished with stats"),
    "terminal:failed": (
        "serve.jobs_failed", "jobs finished with a FailedRun"),
    "terminal:cancelled": (
        "serve.jobs_cancelled", "queued jobs cancelled by clients"),
    "cache_hit": ("serve.cache_hits", "jobs served from the run cache"),
    "cache_miss": ("serve.cache_misses", "jobs that executed a simulation"),
    "worker_restart": (
        "serve.worker_restarts",
        "worker processes respawned after crash/hang"),
    "revoked": (
        "serve.lease_revocations",
        "job leases revoked because their worker died"),
    "quarantined": (
        "serve.jobs_quarantined",
        "poison jobs failed cleanly after max_attempts worker kills"),
    "stolen": (
        "serve.jobs_stolen",
        "queued jobs revoked by the cluster coordinator for an idle shard"),
}
#: The per-slot kind table: the counter labelled with the record's
#: ``worker`` slot.
WORKER_COUNTERS = {
    "leased": ("serve.worker.leases",
               "job leases granted to this worker slot"),
    "worker_restart": ("serve.worker.restarts",
                       "respawns of this worker slot"),
}


class SimulationService:
    """Job admission, execution, metrics, and drain — no HTTP in here.

    The client operations that take and return JSON-able values
    (:meth:`submit`, :meth:`jobs`, :meth:`status`, :meth:`cancel`,
    :meth:`result`, :meth:`health`) are the same methods, with the same
    answers, as the cluster coordinator's, so one route table serves
    both.

    ``worker_mode`` selects what fills the supervisor's slots:
    ``"thread"`` (in-process workers running ``runner``, by default
    :func:`~repro.sweep.execute_cell` on the service cache; forced
    whenever a ``runner`` is injected) or ``"process"`` (supervised
    worker processes).  ``fleet`` configures the supervision either
    way.
    """

    def __init__(
        self,
        jobs: int = 2,
        queue_limit: int = 64,
        cache: RunCache | None = None,
        journal: JobJournal | None = None,
        runner=None,
        verbose: bool = False,
        worker_mode: str = "thread",
        fleet: FleetOptions | None = None,
        events: ServeEventLog | None = None,
        tracer: ServiceTracer | None = None,
    ) -> None:
        if jobs < 1:
            raise ServeError(f"worker count must be >= 1, got {jobs}")
        if worker_mode not in WORKER_MODES:
            raise ServeError(
                f"worker_mode must be one of {WORKER_MODES}, got "
                f"{worker_mode!r}"
            )
        if runner is not None and worker_mode == "process":
            raise ServeError(
                "an injected runner implies thread mode; it cannot be "
                "shipped to worker processes"
            )
        self.cache = cache
        self.journal = journal
        self.verbose = verbose
        self.worker_mode = worker_mode
        self.workers = jobs
        self.queue = JobQueue(capacity=queue_limit)
        self._started = False
        self._draining = threading.Event()
        self._drained = False
        #: Set by the shard agent when this daemon joined a cluster.
        self.shard_id: str | None = None
        self.coordinator_url: str | None = None

        # The registry must exist before the backend: the supervisor
        # registers its per-worker instruments at construction time.
        registry = MetricsRegistry()
        self.registry = registry
        self.recorder = TransitionRecorder(
            registry, SHARD_COUNTERS, events=events, tracer=tracer,
            slot_counters=WORKER_COUNTERS, slots=jobs)
        self.record = self.recorder.record
        self._m_rejected = registry.counter(
            "serve.jobs_rejected_backpressure",
            "submissions refused with 429 (queue full)")
        self._m_journal_quarantined = registry.counter(
            "serve.journal_entries_quarantined",
            "corrupt journal entries moved aside during replay")
        self._m_cache_quarantined = registry.counter(
            "serve.cache_entries_quarantined",
            "corrupt run-cache entries moved aside and re-executed")
        self._g_depth = registry.gauge(
            "serve.queue_depth", "jobs waiting for a worker")
        self._g_running = registry.gauge(
            "serve.running_jobs", "jobs currently executing")
        self._h_latency = registry.histogram(
            "serve.service_latency_ns",
            help="submit-to-terminal wall latency per job")

        if worker_mode == "thread" and runner is None:
            def runner(cell):
                return execute_cell(cell, cache=self.cache)
        self._backend = Supervisor(self, jobs=jobs, options=fleet,
                                   runner=runner)

    # --- lifecycle ---------------------------------------------------------
    def start(self) -> int:
        """Replay the journal and start the backend; returns the number
        of resumed jobs.

        Each replayed job keeps the attempt count its entry holds — a
        poison job that took the whole daemon down resumes with its
        strikes intact.
        """
        resumed = 0
        if self.journal is not None:
            for job_id, cell, attempts in self.journal.load():
                job, coalesced = self.queue.submit(cell, job_id=job_id)
                if coalesced:
                    # A duplicate entry: left, it would re-run the cell.
                    self.journal.forget(job_id)
                    continue
                resumed += 1
                job.attempts = attempts
                self.record("resumed", job, attempt=attempts)
            self._m_journal_quarantined.inc(self.journal.quarantined)
        self.sample_gauges()
        self._backend.start()
        self._started = True
        return resumed

    # --- backend callbacks --------------------------------------------------
    def finish_job(self, job: Job, result, cache_hit: bool,
                   worker: int | None = None,
                   exec_window: tuple | None = None) -> None:
        """Publish one job's terminal state.

        Forgets *before* publishing the terminal state, so "job is
        terminal" implies "journal entry gone" for every observer.  A
        crash inside this window loses only the unpublished result; the
        client's resubmission becomes a cache hit.  ``exec_window`` is
        the worker-measured execution the trace nests in the attempt.
        """
        if self.journal is not None:
            self.journal.forget(job.id)
        self.queue.complete(job, result, cache_hit)
        cache = "hit" if cache_hit else "miss"
        self._h_latency.observe(job.service_latency_ns())
        self.record("cache_" + cache, job, worker=worker,
                    attempt=job.attempts, cache=cache)
        self.record("terminal", job, exec_window=exec_window,
                    worker=worker, attempt=job.attempts, cache=cache,
                    state=job.state)

    def quarantine_job(self, job: Job, attempts: int,
                       crash: WorkerCrashError) -> None:
        """Fail a worker-killing job cleanly instead of retrying it."""
        result = FailedRun(
            job.cell.workload_spec.get("name", "?"),
            "PoisonJobError",
            f"quarantined after {attempts} worker-killing attempt(s); "
            f"last: {crash}",
        )
        if self.verbose:
            print(f"[serve] job {job.id} quarantined after "
                  f"{attempts} attempt(s)", file=sys.stderr)
        self.record("quarantined", job, attempt=attempts,
                    detail=str(crash))
        self.finish_job(job, result, cache_hit=False)

    def note_cache_quarantined(self, count: int) -> None:
        if count:
            self._m_cache_quarantined.inc(count)

    # --- client operations --------------------------------------------------
    def admit(self, cell: SweepCell) -> tuple[Job, bool]:
        """Admit one validated cell; returns ``(job, coalesced)``.

        Journals before the job can be taken (write-ahead, under the
        queue lock), so an accepted job survives a crash between the 202
        and its execution, and a job that finishes at once leaves no
        entry behind.
        """
        journal = self.journal
        try:
            job, coalesced = self.queue.submit(
                cell, write_ahead=journal.record if journal else None)
        except QueueFullError:
            self._m_rejected.inc()
            raise
        if coalesced:
            self.record("coalesced", job, attempt=job.attempts)
        else:
            self.record("submitted", job)
            if journal is not None:
                self.record("journaled", job)
        self.sample_gauges()
        return job, coalesced

    def submit(self, spec: object) -> dict:
        """Validate and admit one JSON job spec; returns the 202 body."""
        job, coalesced = self.admit(build_cell(spec))
        payload = job.status_dict()
        payload["coalesced"] = coalesced
        return payload

    def steal(self, body: object) -> dict:
        """Give up to ``body["max"]`` (default 1) queued jobs back to
        the coordinator; returns their cells, each in the
        :meth:`SweepCell.to_dict` form (a valid ``POST /v1/jobs`` body).

        The work-stealing donor side: each revoked job leaves the queue
        through the ``queued -> cancelled`` edge, is forgotten from the
        journal (the coordinator now owns its fate — double execution
        after a restart would violate the cluster-wide
        no-duplicate-terminal invariant), and is reported as a
        ``stolen`` event.
        """
        if not isinstance(body, dict):
            raise InvalidJobError(
                f"steal body must be a JSON object, got "
                f"{type(body).__name__}"
            )
        max_jobs = body.get("max", 1)
        if not isinstance(max_jobs, int) or max_jobs < 1:
            raise InvalidJobError(
                f"steal 'max' must be a positive integer, got "
                f"{max_jobs!r}"
            )
        stolen = self.queue.steal(max_jobs)
        for job in stolen:
            if self.journal is not None:
                self.journal.forget(job.id)
            self.record("stolen", job, attempt=job.attempts)
        if stolen:
            self.sample_gauges()
        return {"stolen": [{"id": job.id, "key": job.key,
                            **job.cell.to_dict()} for job in stolen]}

    def jobs(self) -> list[dict]:
        return [job.status_dict() for job in self.queue.jobs()]

    def status(self, job_id: str) -> dict:
        return self.queue.get(job_id).status_dict()

    def result(self, job_id: str) -> dict:
        """The terminal result body (409 until the job is terminal)."""
        job = self.queue.get(job_id)
        if not job.is_terminal:
            raise JobStateError(
                f"job {job.id} is {job.state}, not terminal"
            )
        return {
            "id": job.id,
            "state": job.state,
            "cache_hit": job.cache_hit,
            "result": encode_result(job.result),
        }

    def cancel(self, job_id: str) -> dict:
        job = self.queue.cancel(job_id)
        self._h_latency.observe(job.service_latency_ns())
        if self.journal is not None:
            self.journal.forget(job.id)
        self.record("terminal", job, attempt=job.attempts,
                    state="cancelled")
        self.sample_gauges()
        return job.status_dict()

    # --- reporting ----------------------------------------------------------
    def sample_gauges(self) -> None:
        depth = self.queue.depth
        running = self.queue.running
        self._g_depth.set(depth)
        self._g_running.set(running)
        self.recorder.sample_queue(depth, running)

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def health(self) -> dict:
        health = {
            "status": "draining" if self.draining else "ok",
            "version": __version__,
            "queue_depth": self.queue.depth,
            "running_jobs": self.queue.running,
            "queue_limit": self.queue.capacity,
            "workers": self.workers,
            "cache": str(self.cache.root) if self.cache else None,
        }
        if self.shard_id is not None:
            health["shard_id"] = self.shard_id
            health["coordinator"] = self.coordinator_url
        health.update(self._backend.descriptor())
        return health

    def metrics_snapshot(self) -> dict:
        self.sample_gauges()
        self._backend.sample_metrics()
        snapshot = self.registry.snapshot()
        snapshot.update(self._h_latency.quantile_snapshot())
        return snapshot

    def prometheus_metrics(self) -> str:
        """The same registry in Prometheus text exposition format."""
        self.sample_gauges()
        self._backend.sample_metrics()
        return prometheus_text(self.registry)

    def metrics_state(self) -> dict:
        """Lossless instrument state (``GET /v1/metrics?format=state``).

        Unlike the flat snapshot, this keeps each histogram's exact
        bucket ladder and counts, which is what lets the cluster
        coordinator merge per-shard latency histograms bucket-wise
        (:meth:`repro.obs.metrics.Histogram.merge`) instead of
        re-estimating quantiles from quantiles.
        """
        self.sample_gauges()
        self._backend.sample_metrics()
        return self.registry.live_state()

    def trace(self) -> dict:
        """The merged service trace (404 when tracing is off)."""
        if self.recorder.tracer is None:
            raise JobNotFoundError(
                "service tracing is disabled; start the daemon "
                "with --service-trace")
        return self.recorder.tracer.trace_dict()

    # --- shutdown -----------------------------------------------------------
    def drain(self, timeout: float | None = None) -> bool:
        """Stop admissions, wait for running jobs, keep queued journaled.

        Idempotent.  Returns True once every worker has exited (all
        running jobs reached a terminal state); queued jobs stay in the
        journal for the next server generation.  In process mode the
        worker processes are stopped after the last in-flight job
        lands; a worker that crashes *during* drain still has its job
        requeued and journaled, never lost.
        """
        self._draining.set()
        self.queue.close()
        if not self._started or self._drained:
            return True
        self._drained = self._backend.drain(timeout=timeout)
        return self._drained


def shard_server(service: SimulationService, host: str = "127.0.0.1",
                 port: int = 0) -> ApiServer:
    """The HTTP daemon of one ``repro serve`` shard: the job API plus
    ``/v1/trace`` and ``/v1/steal``; shutdown drains ``service``."""
    routes = job_routes(service, metrics={
        "json": service.metrics_snapshot,
        "prom": service.prometheus_metrics,
        "state": service.metrics_state,
    })
    routes[("GET", "/v1/trace")] = lambda request: (200, service.trace())
    routes[("POST", "/v1/steal")] = \
        lambda request: (200, service.steal(request.read_json()))
    return ApiServer(make_handler(routes, verbose=service.verbose),
                     on_stop=service.drain, log_prefix="[serve]",
                     signal_thread="serve-drain", host=host, port=port)


def run_server(
    host: str,
    port: int,
    jobs: int,
    queue_limit: int,
    cache: RunCache | None,
    journal: JobJournal | None,
    verbose: bool = False,
    worker_mode: str = "process",
    fleet: FleetOptions | None = None,
    events: ServeEventLog | None = None,
    tracer: ServiceTracer | None = None,
    join: str | None = None,
    shard_id: str | None = None,
    advertise_host: str | None = None,
    heartbeat_interval: float = 2.0,
) -> int:
    """The ``repro serve`` entry point: boot, announce, block, drain.

    With ``join`` set (a coordinator URL), the daemon runs in *shard
    mode*: a :class:`~repro.cluster.agent.ShardAgent` registers it with
    the coordinator and heartbeats queue depth/inflight until drain.
    The shard stays fully usable standalone — cluster membership only
    adds routing, it never gates admission.
    """
    service = SimulationService(jobs=jobs, queue_limit=queue_limit,
                                cache=cache, journal=journal,
                                verbose=verbose, worker_mode=worker_mode,
                                fleet=fleet, events=events,
                                tracer=tracer)
    resumed = service.start()
    server = shard_server(service, host=host, port=port)
    agent = None
    if join is not None:
        from ..cluster.agent import ShardAgent
        agent = ShardAgent(
            service,
            coordinator_url=join,
            advertise_host=advertise_host or server.host,
            advertise_port=server.port,
            shard_id=shard_id,
            interval=heartbeat_interval,
        )
        agent.start()
        print(f"[serve] joining cluster at {join} as shard "
              f"{agent.shard_id!r}", file=sys.stderr)
    resumed_note = f", resumed {resumed} journaled job(s)" if resumed \
        else ""
    server.run(f"[serve] listening on http://{server.host}:{server.port} "
               f"({jobs} {worker_mode} worker(s), queue limit "
               f"{queue_limit}{resumed_note})")
    if agent is not None:
        agent.stop()
    pending = len(service.queue.pending())
    print(f"[serve] drained; {pending} queued job(s) left journaled",
          file=sys.stderr)
    return 0
