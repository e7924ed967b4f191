"""Async simulation service: job queue, backpressure, cache-aware reuse.

``repro serve`` turns the one-shot simulator into a resident daemon:
clients POST simulation jobs to a JSON HTTP API, a supervised fleet of
worker *processes* executes them through the sweep layer's single-cell
seam (sharing the content-addressed run cache, so identical
submissions coalesce and repeats return without simulating), a full
queue pushes back with HTTP 429, and SIGTERM drains gracefully —
running jobs finish, queued jobs persist in a journal and resume on
restart.  The journal keeps one entry per owed job, written before a
worker can take it and carrying its attempt count.

The fleet survives its own workers: a crashed or wedged process is
detected (pipe EOF, heartbeat silence, job deadline), its job lease is
revoked and the job requeued with bounded backoff, and a job that
keeps killing workers is quarantined as a clean failure after
``max_attempts`` tries, counted across daemon restarts.  ``repro chaos`` (:mod:`repro.chaos`) injects
exactly those faults and asserts the recovery invariants.  See
docs/SERVICE.md.
"""

from .api import ApiServer, JsonRequestHandler, make_handler
from .client import DEFAULT_PORT, ServeClient
from .events import (
    DEFAULT_EVENTS_DIR,
    EVENT_FORMAT,
    EVENT_KINDS,
    SCHEDULING_FIELDS,
    TIMESTAMP_FIELDS,
    VOLATILE_FIELDS,
    ServeEventLog,
    ServiceTracer,
    canonical_event_lines,
    canonical_trace_lines,
    make_event,
    validate_event,
)
from .journal import DEFAULT_JOURNAL_DIR, JOURNAL_FORMAT, JobJournal
from .queue import (
    ACTIVE_STATES,
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    Job,
    JobQueue,
)
from .server import (
    WORKER_MODES,
    SimulationService,
    run_server,
    shard_server,
)
from .supervisor import FleetOptions, Supervisor
from .worker import WorkerProcess

__all__ = [
    "ACTIVE_STATES",
    "ApiServer",
    "CANCELLED",
    "DEFAULT_EVENTS_DIR",
    "DEFAULT_JOURNAL_DIR",
    "DEFAULT_PORT",
    "DONE",
    "EVENT_FORMAT",
    "EVENT_KINDS",
    "FAILED",
    "FleetOptions",
    "JOURNAL_FORMAT",
    "Job",
    "JobJournal",
    "JobQueue",
    "JsonRequestHandler",
    "QUEUED",
    "RUNNING",
    "SCHEDULING_FIELDS",
    "ServeClient",
    "ServeEventLog",
    "ServiceTracer",
    "SimulationService",
    "Supervisor",
    "TERMINAL_STATES",
    "TIMESTAMP_FIELDS",
    "VOLATILE_FIELDS",
    "WORKER_MODES",
    "WorkerProcess",
    "canonical_event_lines",
    "canonical_trace_lines",
    "make_event",
    "make_handler",
    "shard_server",
    "validate_event",
]
