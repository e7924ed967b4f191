"""The long-running simulation service behind ``repro serve``.

:class:`SimulationService` owns the whole job lifecycle:

* admission through the bounded, coalescing
  :class:`~repro.serve.queue.JobQueue` (full queue -> 429 upstream),
* one execution backend, the :class:`~repro.serve.supervisor.Supervisor`:
  per-slot job leases with write-ahead lease WALs replayed on daemon
  restart, and — with worker *processes* in the slots, the default for
  ``repro serve`` — crash/hang detection via heartbeats and job
  deadlines, leases revoked and requeued with bounded backoff when a
  worker dies, poison jobs quarantined after ``max_attempts``
  worker-killing executions.  ``worker_mode="thread"`` fills the slots
  with in-process workers instead (shared imports, injectable runners,
  no crash isolation),
* metrics through a :class:`~repro.obs.metrics.MetricsRegistry`
  (queue depth, running jobs, cache hit/miss, jobs served, worker
  restarts, lease revocations, quarantine counters, p50/p95 service
  latency) exported verbatim at ``GET /v1/metrics``,
* a write-ahead :class:`~repro.serve.journal.JobJournal` so queued work
  survives a restart (corrupt entries quarantined, never fatal),
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
from .events import ServeEventLog, ServiceTracer
from .journal import JobJournal
from .queue import Job, JobQueue
from .supervisor import FleetOptions, Supervisor

#: Execution backends selectable via ``worker_mode``.
WORKER_MODES = ("thread", "process")


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
        self.events = events
        self.tracer = tracer
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
        self._m_submitted = registry.counter(
            "serve.jobs_submitted", "jobs admitted to the queue")
        self._m_coalesced = registry.counter(
            "serve.jobs_coalesced",
            "submissions answered by an already-active identical job")
        self._m_resumed = registry.counter(
            "serve.jobs_resumed", "journaled jobs replayed at startup")
        self._m_done = registry.counter(
            "serve.jobs_done", "jobs finished with stats")
        self._m_failed = registry.counter(
            "serve.jobs_failed", "jobs finished with a FailedRun")
        self._m_cancelled = registry.counter(
            "serve.jobs_cancelled", "queued jobs cancelled by clients")
        self._m_rejected = registry.counter(
            "serve.jobs_rejected_backpressure",
            "submissions refused with 429 (queue full)")
        self._m_cache_hits = registry.counter(
            "serve.cache_hits", "jobs served from the run cache")
        self._m_cache_misses = registry.counter(
            "serve.cache_misses", "jobs that executed a simulation")
        self._m_worker_restarts = registry.counter(
            "serve.worker_restarts",
            "worker processes respawned after crash/hang")
        self._m_lease_revocations = registry.counter(
            "serve.lease_revocations",
            "job leases revoked because their worker died")
        self._m_quarantined = registry.counter(
            "serve.jobs_quarantined",
            "poison jobs failed cleanly after max_attempts worker kills")
        self._m_journal_quarantined = registry.counter(
            "serve.journal_entries_quarantined",
            "corrupt journal entries moved aside during replay")
        self._m_cache_quarantined = registry.counter(
            "serve.cache_entries_quarantined",
            "corrupt run-cache entries moved aside and re-executed")
        self._m_stolen = registry.counter(
            "serve.jobs_stolen",
            "queued jobs revoked by the cluster coordinator for an "
            "idle shard")
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
        """Replay the journal (and lease WALs) and start the backend;
        returns the number of resumed jobs.

        Lease entries persisted by a previous generation restore each
        replayed job's attempt count — a poison job that took the whole
        daemon down resumes with its strikes intact — and are then
        cleared (their worker processes are gone).
        """
        resumed = 0
        if self.journal is not None:
            attempts = {entry["id"]: entry["attempt"]
                        for entry in self.journal.load_leases()}
            self.journal.clear_leases()
            for job_id, cell in self.journal.load():
                job, coalesced = self.queue.submit(cell, job_id=job_id)
                if not coalesced:
                    resumed += 1
                    job.attempts = attempts.get(job_id, 0)
                    self._event("resumed", job, attempt=job.attempts)
                    if self.tracer is not None:
                        self.tracer.job_queued(job.id, job.seq)
            self._m_resumed.inc(resumed)
            self._m_journal_quarantined.inc(self.journal.quarantined)
        self.sample_gauges()
        self._backend.start()
        self._started = True
        return resumed

    # --- backend callbacks --------------------------------------------------
    def _event(self, kind: str, job: Job | None = None,
               worker: int | None = None, attempt: int = 0,
               cache: str | None = None, state: str | None = None,
               detail: str | None = None) -> None:
        """Emit one structured event (no-op when the log is off)."""
        if self.events is None:
            return
        self.events.emit(
            kind,
            job=job.id if job is not None else None,
            seq=job.seq if job is not None else None,
            worker=worker, attempt=attempt, cache=cache, state=state,
            detail=detail)

    def note_leased(self, job: Job, worker: int | None = None) -> None:
        """The supervisor took the job off the queue (attempt already
        bumped)."""
        self._event("leased", job, worker=worker, attempt=job.attempts)
        self._event("executing", job, worker=worker,
                    attempt=job.attempts)

    def finish_job(self, job: Job, result, cache_hit: bool,
                   worker: int | None = None) -> None:
        """Publish one job's terminal state.

        Forgets *before* publishing the terminal state, so "job is
        terminal" implies "journal entry gone" for every observer.  A
        crash inside this window loses only the unpublished result; the
        client's resubmission becomes a cache hit.
        """
        if self.journal is not None:
            self.journal.forget(job.id)
        self.queue.complete(job, result, cache_hit)
        cache = "hit" if cache_hit else "miss"
        if isinstance(result, FailedRun):
            self._m_failed.inc()
            state = "failed"
        else:
            self._m_done.inc()
            state = "done"
        if cache_hit:
            self._m_cache_hits.inc()
        else:
            self._m_cache_misses.inc()
        self._h_latency.observe(job.service_latency_ns())
        self._event("cache_" + cache, job, worker=worker,
                    attempt=job.attempts, cache=cache)
        self._event("terminal", job, worker=worker,
                    attempt=job.attempts, cache=cache, state=state)
        if self.tracer is not None:
            self.tracer.job_terminal(job.id, job.seq, state, cache=cache)

    def quarantine_job(self, job: Job, attempts: int,
                       crash: WorkerCrashError) -> None:
        """Fail a worker-killing job cleanly instead of retrying it."""
        self._m_quarantined.inc()
        result = FailedRun(
            job.cell.workload_spec.get("name", "?"),
            "PoisonJobError",
            f"quarantined after {attempts} worker-killing attempt(s); "
            f"last: {crash}",
        )
        if self.verbose:
            print(f"[serve] job {job.id} quarantined after "
                  f"{attempts} attempt(s)", file=sys.stderr)
        self._event("quarantined", job, attempt=attempts,
                    detail=str(crash))
        self.finish_job(job, result, cache_hit=False)

    def note_worker_restart(self, worker: int | None = None,
                            detail: str | None = None) -> None:
        self._m_worker_restarts.inc()
        self._event("worker_restart", worker=worker, detail=detail)

    def note_lease_revoked(self, job: Job | None = None,
                           worker: int | None = None,
                           attempt: int = 0) -> None:
        self._m_lease_revocations.inc()
        if job is not None:
            self._event("revoked", job, worker=worker, attempt=attempt)

    def note_requeued(self, job: Job) -> None:
        self._event("requeued", job, attempt=job.attempts)
        if self.tracer is not None:
            self.tracer.job_requeued(job.id, job.seq)

    def note_cache_quarantined(self, count: int) -> None:
        if count:
            self._m_cache_quarantined.inc(count)

    # --- client operations --------------------------------------------------
    def admit(self, cell: SweepCell) -> tuple[Job, bool]:
        """Admit one validated cell; returns ``(job, coalesced)``.

        Journals before acknowledging (write-ahead), so an accepted job
        survives a crash between the 202 and its execution.
        """
        try:
            job, coalesced = self.queue.submit(cell)
        except QueueFullError:
            self._m_rejected.inc()
            raise
        if coalesced:
            self._m_coalesced.inc()
            self._event("coalesced", job, attempt=job.attempts)
            if self.tracer is not None:
                self.tracer.job_coalesced(job.id, job.seq)
        else:
            self._m_submitted.inc()
            self._event("submitted", job)
            if self.tracer is not None:
                self.tracer.job_queued(job.id, job.seq)
            if self.journal is not None:
                self.journal.record(job)
                self._event("journaled", job)
                if self.tracer is not None:
                    self.tracer.job_journaled(job.id, job.seq)
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
            self._m_stolen.inc()
            if self.journal is not None:
                self.journal.forget(job.id)
            self._event("stolen", job, attempt=job.attempts)
            if self.tracer is not None:
                self.tracer.job_terminal(job.id, job.seq, "cancelled",
                                         cache=None)
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
        self._m_cancelled.inc()
        self._h_latency.observe(job.service_latency_ns())
        if self.journal is not None:
            self.journal.forget(job.id)
        self._event("terminal", job, attempt=job.attempts,
                    state="cancelled")
        if self.tracer is not None:
            self.tracer.job_terminal(job.id, job.seq, "cancelled")
        self.sample_gauges()
        return job.status_dict()

    # --- reporting ----------------------------------------------------------
    def sample_gauges(self) -> None:
        depth = self.queue.depth
        running = self.queue.running
        self._g_depth.set(depth)
        self._g_running.set(running)
        if self.tracer is not None:
            self.tracer.queue_depth(depth, running)

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
        for q, suffix in ((0.50, "_p50"), (0.95, "_p95"),
                          (0.99, "_p99")):
            value = self._h_latency.quantile(q)
            if value is not None:
                snapshot[f"serve.service_latency_ns{suffix}"] = value
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
        if self.tracer is None:
            raise JobNotFoundError(
                "service tracing is disabled; start the daemon "
                "with --service-trace")
        return self.tracer.trace_dict()

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
