"""The two worker kinds behind the serving supervisor's slots.

Both answer ``run(cell, job_timeout, heartbeat_timeout)`` with one
:class:`WorkerOutcome` built by :func:`execute_timed`.  A
:class:`WorkerProcess` wraps one ``multiprocessing`` child running
:func:`_worker_main`: a loop that receives ``("run", payload)`` messages
over a duplex pipe, executes the cell through the sweep layer's
single-cell seam (:func:`repro.sweep.execute_cell`, shared run cache,
per-cell deterministic reseeding — so a result from a worker process is
byte-identical to the same cell run in-process), and answers
``("result", outcome)`` with the result in its
:func:`~repro.sweep.encode_result` form.  An :class:`InProcessWorker`
runs the cell on the dispatcher thread itself (``--worker-mode
thread``, and the seam tests inject runners through).

A worker process has three liveness signals, all consumed by the
supervisor:

* **pipe EOF / dead process** — the worker crashed (or was SIGKILLed by
  an injected fault); detected within one poll interval;
* **heartbeats** — a daemon thread in the child sends ``("hb", ...)``
  every ``heartbeat_interval`` seconds even while the main thread
  simulates; silence past the heartbeat timeout means the process is
  wedged hard (stopped, deadlocked) and gets killed.  A heartbeat the
  pipe refuses means the parent is gone, and the child exits at once;
* **job deadline** — a result overdue past ``job_timeout`` seconds
  means the job itself is stuck (or an injected stall); the worker is
  killed and the job's lease revoked.

Chaos hooks: when a :class:`~repro.faultinject.service.ServiceFaultProfile`
is installed, the child consults it before and after each job — dying
by SIGKILL, stalling, or corrupting the cache entry it just wrote —
which is how `repro chaos` creates the failures the supervisor must
survive.

The child is always started via the ``spawn`` method: a fresh
interpreter per worker keeps fork-with-threads hazards out of the
daemon and makes a respawned worker bit-identical to a fresh one.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass, replace

from ..errors import WorkerCrashError
from ..stats import FailedRun, SimStats
from ..sweep import (
    RunCache,
    SweepCell,
    decode_result,
    encode_result,
    execute_cell,
)

#: Seconds between child heartbeats.
DEFAULT_HEARTBEAT_INTERVAL = 0.5
#: Parent-side poll granularity while waiting for a result.
_POLL_INTERVAL = 0.05


@dataclass(frozen=True)
class WorkerOutcome:
    """One executed job, as either worker kind hands it back."""

    result: SimStats | FailedRun
    cache_hit: bool
    #: Corrupt run-cache entries this job moved aside.
    cache_quarantined: int
    #: Wall-clock ``(start, end)`` of the execution, on the executing
    #: process's clock; the tracer nests it inside the attempt span.
    exec_window: tuple[float, float]


def execute_timed(runner, cell, cache=None) -> WorkerOutcome:
    """Run ``runner(cell) -> (result, cache_hit)`` and time it; ``cache``
    is read only for its quarantine counter, so pass it only where no
    other thread uses that cache."""
    quarantined_before = cache.quarantined if cache is not None else 0
    exec_start = time.time()
    result, cache_hit = runner(cell)
    exec_end = time.time()
    quarantined = cache.quarantined - quarantined_before \
        if cache is not None else 0
    return WorkerOutcome(result, cache_hit, quarantined,
                         (exec_start, exec_end))


def _worker_main(index: int, conn, cache_dir: str | None,
                 profile_fields: dict | None,
                 heartbeat_interval: float) -> None:
    """Child entry point: serve ``run`` requests until ``stop``/EOF."""
    from ..faultinject.service import ServiceFaultProfile

    profile = ServiceFaultProfile.from_dict(profile_fields) \
        if profile_fields else None
    cache = RunCache(cache_dir) if cache_dir else None
    send_lock = threading.Lock()
    stop_beat = threading.Event()

    def _send(message: object) -> None:
        with send_lock:
            conn.send(message)

    def _beat() -> None:
        while not stop_beat.wait(heartbeat_interval):
            try:
                _send(("hb", index))
            except OSError:
                # The parent is gone: a rebooted daemon replays the job,
                # so simulating on would run it twice.
                os._exit(1)

    threading.Thread(target=_beat, name=f"worker-{index}-hb",
                     daemon=True).start()

    jobs_run = 0
    stores = 0
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        kind = message[0]
        if kind == "stop":
            stop_beat.set()
            try:
                _send(("bye", index))
            except OSError:
                pass
            return
        if kind == "ping":
            _send(("pong", index))
            continue
        if kind != "run":
            continue

        jobs_run += 1
        cell = SweepCell.from_dict(message[1])
        if profile is not None:
            if profile.should_kill(jobs_run, cell.config.seed):
                # An injected crash: no goodbye, no cleanup — exactly
                # what a segfaulting cell looks like from outside.
                os.kill(os.getpid(), signal.SIGKILL)
            if profile.should_stall(jobs_run):
                time.sleep(profile.stall_seconds)

        outcome = execute_timed(
            lambda c: execute_cell(c, cache=cache), cell, cache)

        if profile is not None and cache is not None \
                and not outcome.cache_hit:
            stores += 1
            if profile.should_corrupt_store(stores):
                _truncate_entry(cache.path_for(cell.cache_key()))

        _send(("result", replace(outcome,
                                 result=encode_result(outcome.result))))


def _truncate_entry(path) -> None:
    """Chaos hook: tear the just-written cache file in half."""
    try:
        raw = path.read_bytes()
        path.write_bytes(raw[:max(1, len(raw) // 2)])
    except OSError:
        pass


class WorkerProcess:
    """Parent-side handle for one child worker.

    ``run`` is synchronous from the dispatcher thread's point of view:
    it returns the decoded outcome or raises
    :class:`~repro.errors.WorkerCrashError` when the child dies, wedges
    past the heartbeat timeout, or blows the job deadline (the latter
    two after the parent SIGKILLs it).
    """

    def __init__(self, index: int, cache_dir: str | None = None,
                 profile_fields: dict | None = None,
                 heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL
                 ) -> None:
        self.index = index
        ctx = multiprocessing.get_context("spawn")
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main,
            args=(index, child_conn, cache_dir, profile_fields,
                  heartbeat_interval),
            name=f"serve-worker-{index}",
            daemon=True,
        )
        self.process.start()
        # The child owns its end now; closing ours makes a dead child
        # surface as EOF instead of a silent hang.
        child_conn.close()
        self.last_heartbeat = time.monotonic()

    def is_alive(self) -> bool:
        return self.process.is_alive()

    def _crash(self, detail: str, hang: bool = False) -> WorkerCrashError:
        code = self.process.exitcode
        suffix = f" (exit code {code})" if code is not None else ""
        return WorkerCrashError(
            f"worker {self.index} {detail}{suffix}",
            worker=self.index, hang=hang,
        )

    def heartbeat_age(self) -> float:
        return max(0.0, time.monotonic() - self.last_heartbeat)

    def run(self, cell, job_timeout: float = 0.0,
            heartbeat_timeout: float = 0.0) -> WorkerOutcome:
        """Execute one cell in the child; returns its outcome."""
        # Drain heartbeats queued while idle, so staleness is measured
        # from now.
        while self.conn.poll(0):
            try:
                self.conn.recv()
            except (EOFError, OSError):
                raise self._crash("died while idle") from None
        self.last_heartbeat = time.monotonic()
        try:
            self.conn.send(("run", cell.to_dict()))
        except (OSError, ValueError) as exc:
            raise self._crash(f"pipe closed on dispatch: {exc}") from None

        deadline = time.monotonic() + job_timeout if job_timeout else None
        while True:
            if self.conn.poll(_POLL_INTERVAL):
                try:
                    message = self.conn.recv()
                except (EOFError, OSError):
                    raise self._crash("died mid-job") from None
                if message[0] == "hb":
                    self.last_heartbeat = time.monotonic()
                    continue
                if message[0] == "result":
                    outcome = message[1]
                    return replace(outcome,
                                   result=decode_result(outcome.result))
                continue
            now = time.monotonic()
            if not self.process.is_alive():
                raise self._crash("died mid-job")
            if deadline is not None and now >= deadline:
                self.kill()
                raise self._crash(
                    f"blew the {job_timeout:g}s job deadline; killed",
                    hang=True,
                )
            if heartbeat_timeout \
                    and now - self.last_heartbeat >= heartbeat_timeout:
                self.kill()
                raise self._crash(
                    f"heartbeat silent for {heartbeat_timeout:g}s; "
                    "killed", hang=True,
                )

    def kill(self) -> None:
        """SIGKILL the child and reap it (idempotent)."""
        try:
            self.process.kill()
        except (OSError, ValueError):
            pass
        self.process.join(timeout=5)

    def stop(self, timeout: float = 2.0) -> None:
        """Ask the child to exit; escalate to SIGKILL on silence."""
        try:
            self.conn.send(("stop",))
        except (OSError, ValueError):
            pass
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.kill()
        try:
            self.conn.close()
        except OSError:
            pass


class InProcessWorker:
    """A worker slot that executes on the dispatcher thread itself.

    Any exception ``runner`` raises becomes a :class:`FailedRun`: the
    thread is the daemon's own.  The job deadline and heartbeat timeout
    do not apply — there is no process to kill.  Slots share one run
    cache, so a per-job quarantine delta would race: it stays 0.
    """

    def __init__(self, runner) -> None:
        self._runner = runner

    def _guarded(self, cell):
        try:
            return self._runner(cell)
        except Exception as exc:  # noqa: BLE001 — keep serving
            return cell.failed(exc), False

    def run(self, cell, job_timeout: float = 0.0,
            heartbeat_timeout: float = 0.0) -> WorkerOutcome:
        return execute_timed(self._guarded, cell)

    def is_alive(self) -> bool:
        return True

    def heartbeat_age(self) -> float:
        return 0.0

    def kill(self) -> None:
        """Nothing to kill."""

    def stop(self, timeout: float = 2.0) -> None:
        """Nothing to stop."""
