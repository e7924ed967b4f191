"""The supervised worker slots behind the simulation service.

The :class:`Supervisor` is the one execution backend of
:class:`~repro.serve.server.SimulationService`.  It owns N worker
slots and N dispatcher threads; each dispatcher loops::

    job = queue.take()            # blocks; None on drain
    lease(job, worker)            # attempts += 1, journal entry rewritten
    outcome = worker.run(cell)    # crash/hang detection inside
    finish(job, outcome)          # journal forget + terminal state

``worker_mode`` only decides what fills a slot: a
:class:`~repro.serve.worker.WorkerProcess` (``"process"``) or an
:class:`~repro.serve.worker.InProcessWorker` (``"thread"``).  Leases
and per-slot metrics apply to both; only a process can crash, so only
process mode ever takes the revoke path below.

**Job leases.**  Before a job is handed to a worker the supervisor
counts the attempt and rewrites the job's journal entry with it.  When
the worker dies or wedges, the lease is revoked: the supervisor
requeues the job (front of the queue, original id) after a
capped-exponential wall-clock backoff — the service-layer twin of the
simulator's simulated-time retry policy — and respawns the worker.

**Poison quarantine.**  A job whose lease has been revoked
``max_attempts`` times is failing its workers, not the other way
around: instead of crash-looping the fleet it is completed cleanly as
``failed`` with a :class:`~repro.errors.PoisonJobError` payload and
counted in ``serve.jobs_quarantined``.

**Restart.**  The journal entry outlives the daemon itself: on boot
the service replays each owed job with its persisted attempt count
(see ``SimulationService.start``), so a poison job cannot reset its
strike count by taking the whole server down with it.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass

from ..errors import ServeError, WorkerCrashError
from ..faultinject.service import ServiceFaultProfile
from .queue import Job
from .worker import (
    DEFAULT_HEARTBEAT_INTERVAL,
    InProcessWorker,
    WorkerProcess,
)


@dataclass(frozen=True)
class FleetOptions:
    """Supervision policy for the worker-process fleet."""

    #: Lease grants per job before poison quarantine.
    max_attempts: int = 3
    #: Wall seconds a single job may run before its worker is killed
    #: (0 disables the deadline).
    job_timeout: float = 0.0
    #: Wall seconds of heartbeat silence before a worker is declared
    #: wedged and killed (0 disables; the job deadline still applies).
    heartbeat_timeout: float = 30.0
    #: Child heartbeat period.
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL
    #: Capped exponential wall-clock backoff before a revoked lease's
    #: job is requeued: ``min(base * multiplier**(attempt-1), cap)``.
    backoff_base: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_cap: float = 1.0
    #: Injected service-layer faults (chaos harness); None in production.
    fault_profile: ServiceFaultProfile | None = None

    def validate(self) -> None:
        if self.max_attempts < 1:
            raise ServeError(
                f"fleet max_attempts must be >= 1, got "
                f"{self.max_attempts}"
            )
        for name in ("job_timeout", "heartbeat_timeout",
                     "heartbeat_interval", "backoff_base",
                     "backoff_cap"):
            if getattr(self, name) < 0:
                raise ServeError(f"fleet {name} must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ServeError("fleet backoff_multiplier must be >= 1")

    def backoff_for(self, attempt: int) -> float:
        """Seconds to wait before requeueing after ``attempt`` grants."""
        raw = self.backoff_base \
            * self.backoff_multiplier ** max(0, attempt - 1)
        return min(raw, self.backoff_cap)


class Supervisor:
    """Spawn, watch, and replace the workers; never die.

    With ``runner`` set, every slot is an :class:`InProcessWorker`
    running it; otherwise a :class:`WorkerProcess`.
    """

    def __init__(self, service, jobs: int,
                 options: FleetOptions | None = None,
                 runner=None) -> None:
        self.service = service
        self.options = options or FleetOptions()
        self.options.validate()
        self.jobs = jobs
        self._runner = runner
        self._workers: list[WorkerProcess | InProcessWorker | None] = \
            [None] * jobs
        self._dispatchers = [
            threading.Thread(target=self._dispatch, args=(slot,),
                             name=f"serve-dispatch-{slot}", daemon=True)
            for slot in range(jobs)
        ]
        #: slot -> the job leased to it.
        self._leases: dict[int, Job] = {}
        self._lock = threading.Lock()
        self._idle = threading.Semaphore(0)
        self._drained = False

        # Per-worker gauges, labelled by slot (service.registry exists
        # before the backend — see SimulationService.__init__; the
        # per-slot counters are its recorder's).
        registry = service.registry
        self._g_inflight = []
        self._g_heartbeat_age = []
        for slot in range(jobs):
            labels = {"worker": str(slot)}
            self._g_inflight.append(registry.gauge(
                "serve.worker.inflight",
                "jobs currently leased to this worker slot (0 or 1)",
                labels=labels))
            self._g_heartbeat_age.append(registry.gauge(
                "serve.worker.heartbeat_age_seconds",
                "seconds since this worker's last heartbeat",
                labels=labels))

    # --- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        for thread in self._dispatchers:
            thread.start()

    def descriptor(self) -> dict:
        with self._lock:
            alive = sum(1 for worker in self._workers
                        if worker is not None and worker.is_alive())
        return {
            "worker_mode": self.service.worker_mode,
            "workers_alive": alive,
            "worker_restarts":
                self.service.recorder.counters["worker_restart"].value,
            "max_attempts": self.options.max_attempts,
        }

    def _spawn(self, slot: int) -> WorkerProcess | InProcessWorker:
        if self._runner is not None:
            worker = InProcessWorker(self._runner)
        else:
            cache = self.service.cache
            profile = self.options.fault_profile
            worker = WorkerProcess(
                index=slot,
                cache_dir=str(cache.root) if cache is not None else None,
                profile_fields=profile.to_dict() if profile else None,
                heartbeat_interval=self.options.heartbeat_interval,
            )
        with self._lock:
            self._workers[slot] = worker
        return worker

    def _ensure_worker(self, slot: int) -> WorkerProcess | InProcessWorker:
        with self._lock:
            worker = self._workers[slot]
        if worker is not None and worker.is_alive():
            return worker
        if worker is not None:
            # Died between jobs — still a restart, but no lease to
            # revoke.
            worker.kill()
            self._count_restart(slot, "died while idle")
        return self._spawn(slot)

    def _count_restart(self, slot: int, why: str) -> None:
        self.service.record("worker_restart", worker=slot, detail=why)
        if self.service.verbose:
            print(f"[serve] worker {slot} {why}; respawning",
                  file=sys.stderr)

    def sample_metrics(self) -> None:
        """Refresh the per-worker gauges (called at snapshot time)."""
        with self._lock:
            for slot in range(self.jobs):
                self._g_inflight[slot].set(
                    1 if slot in self._leases else 0)
                worker = self._workers[slot]
                alive = worker is not None and worker.is_alive()
                self._g_heartbeat_age[slot].set(
                    worker.heartbeat_age() if alive else 0.0)

    # --- the dispatch loop --------------------------------------------------
    def _dispatch(self, slot: int) -> None:
        queue = self.service.queue
        while True:
            job = queue.take()
            if job is None:
                self._idle.release()
                return
            self.service.sample_gauges()
            self._run_leased(slot, job)
            self.service.sample_gauges()

    def _run_leased(self, slot: int, job: Job) -> None:
        service = self.service
        job.attempts += 1
        with self._lock:
            self._leases[slot] = job
        self._g_inflight[slot].set(1)
        service.record("leased", job, worker=slot, attempt=job.attempts)
        service.record("executing", job, worker=slot,
                       attempt=job.attempts)
        if service.journal is not None:
            service.journal.record(job)
        try:
            worker = self._ensure_worker(slot)
            outcome = worker.run(
                job.cell,
                job_timeout=self.options.job_timeout,
                heartbeat_timeout=self.options.heartbeat_timeout,
            )
        except WorkerCrashError as crash:
            self._revoke(slot, job, crash)
            return
        finally:
            with self._lock:
                self._leases.pop(slot, None)
            self._g_inflight[slot].set(0)
        service.note_cache_quarantined(outcome.cache_quarantined)
        service.finish_job(job, outcome.result, outcome.cache_hit,
                           worker=slot, exec_window=outcome.exec_window)

    def _revoke(self, slot: int, job: Job,
                crash: WorkerCrashError) -> None:
        """The crash path: requeue or quarantine the dead worker's job,
        respawn the worker.  The job's journal entry already holds this
        attempt, so a restart before the retry keeps the strike."""
        with self._lock:
            worker = self._workers[slot]
            self._workers[slot] = None
            self._leases.pop(slot, None)
        if worker is not None:
            worker.kill()
        self._count_restart(
            slot, "wedged and was killed" if crash.hang else "crashed")

        service = self.service
        attempt = job.attempts
        service.record("revoked", job, worker=slot, attempt=attempt)
        if attempt >= self.options.max_attempts:
            service.quarantine_job(job, attempt, crash)
        else:
            time.sleep(self.options.backoff_for(attempt))
            service.queue.requeue(job)
            service.record("requeued", job, attempt=job.attempts)
        self._spawn(slot)

    # --- shutdown -----------------------------------------------------------
    def drain(self, timeout: float | None = None) -> bool:
        """Wait for every dispatcher to finish its in-flight job, then
        stop the workers.  Idempotent."""
        if self._drained:
            return True
        done = True
        for _ in self._dispatchers:
            done = self._idle.acquire(timeout=timeout) and done
        if done:
            with self._lock:
                workers = list(self._workers)
                self._workers = [None] * self.jobs
            for worker in workers:
                if worker is not None:
                    worker.stop()
            self._drained = True
        return done
