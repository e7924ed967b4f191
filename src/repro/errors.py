"""Exception hierarchy for the repro package.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch the whole family with one clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A simulator configuration value is invalid or inconsistent."""


class AllocationError(ReproError):
    """A managed allocation request could not be satisfied."""


class AddressError(ReproError):
    """An address falls outside every managed allocation."""


class DeviceMemoryError(ReproError):
    """Physical frame pool misuse (double free, over-allocation, ...)."""


class PageTableError(ReproError):
    """Inconsistent page-table manipulation (e.g. validating a valid PTE)."""


class PolicyError(ReproError):
    """A prefetch or eviction policy was asked to do something unsupported."""


class SimulationError(ReproError):
    """The discrete-event engine reached an inconsistent state."""


class WorkloadError(ReproError):
    """A workload was parameterized inconsistently."""


class FaultInjectionError(ReproError):
    """A fault-injection profile is invalid or an injection hook misfired."""


class SweepError(ReproError):
    """A sweep cell failed (or its cached result could not be used)."""


class TuneError(ReproError):
    """A policy auto-tuning request (:mod:`repro.tune`) is invalid.

    Raised for malformed search spaces (empty axes, unknown policies),
    degenerate fidelity ladders, exhausted/invalid budgets, and missing
    or stale recommendation cards.
    """


class ServeError(ReproError):
    """Base class for the simulation service (:mod:`repro.serve`)."""


class InvalidJobError(ServeError):
    """A submitted job specification could not be validated."""


class JobNotFoundError(ServeError):
    """No job with the requested id exists on this server."""


class JobStateError(ServeError):
    """A job-state transition that the state machine forbids.

    Raised e.g. when cancelling a job that is already running or
    terminal, or when fetching the result of a job that has not
    finished.  ``draining`` marks the one temporary refusal — a
    draining server turning a submission away — which the HTTP API
    answers with 503 and ``Retry-After`` instead of 409.
    """

    def __init__(self, message: str, draining: bool = False) -> None:
        self.draining = draining
        super().__init__(message)


class QueueFullError(ServeError):
    """The service's bounded job queue rejected a submission.

    Maps to HTTP 429 with a ``Retry-After`` header; ``retry_after``
    is the suggested wait in seconds.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        self.retry_after = retry_after
        super().__init__(message)


class WorkerCrashError(ServeError):
    """A worker process died or wedged while it held a job lease.

    Raised inside the supervisor's dispatch loop when the worker's
    process exits (crash/SIGKILL), its pipe closes, its heartbeat goes
    silent, or its job deadline expires.  Carries the worker index and
    whether the death was a *hang* (deadline/heartbeat kill by the
    supervisor) rather than a spontaneous crash.
    """

    def __init__(self, message: str, worker: int = -1,
                 hang: bool = False) -> None:
        self.worker = worker
        self.hang = hang
        super().__init__(message)


class PoisonJobError(ServeError):
    """A job killed its worker on every attempt and was quarantined.

    After ``max_attempts`` worker-killing executions the supervisor
    fails the job cleanly with this error type (as a ``FailedRun``
    payload) instead of crash-looping the fleet.
    """


class ServeClientError(ServeError):
    """An HTTP request to a simulation server failed.

    Carries the HTTP ``status`` (0 when the connection itself failed)
    and the decoded error ``payload`` when the server sent one.
    """

    def __init__(self, message: str, status: int = 0,
                 payload: dict | None = None) -> None:
        self.status = status
        self.payload = payload or {}
        super().__init__(message)


class BackpressureError(ServeClientError):
    """The server answered 429: queue full, retry later."""

    def __init__(self, message: str, retry_after: float = 1.0,
                 payload: dict | None = None) -> None:
        super().__init__(message, status=429, payload=payload)
        self.retry_after = retry_after


class ClusterError(ServeError):
    """Base class for the multi-host cluster tier (:mod:`repro.cluster`)."""


class ShardNotFoundError(ClusterError):
    """A shard id was referenced that the coordinator does not know."""


class NoShardAvailableError(ClusterError):
    """The ring has no live shard to own a key (every shard is dead)."""


class RetryExhaustedError(ReproError):
    """A migration kept failing past the profile's retry budget."""


class WatchdogTimeout(ReproError):
    """The watchdog detected livelock or a blown simulated-time budget.

    Carries a structured diagnostic so harnesses can report *why* a run
    was aborted instead of merely that it hung.
    """

    def __init__(self, reason: str, kernel: str, now_ns: float,
                 events_processed: int, pending_events: int,
                 progress: dict[str, float]) -> None:
        self.reason = reason
        self.kernel = kernel
        self.now_ns = now_ns
        self.events_processed = events_processed
        self.pending_events = pending_events
        self.progress = dict(progress)
        detail = ", ".join(f"{k}={v}" for k, v in self.progress.items())
        super().__init__(
            f"watchdog abort ({reason}) in kernel {kernel!r} at "
            f"t={now_ns:.0f} ns after {events_processed} events "
            f"({pending_events} pending); progress: {detail}"
        )
