"""Service-level observability: one transition record, three views.

Each job, worker and shard transition is reported once, through
:class:`TransitionRecorder`: it builds the transition's record
(:func:`make_event`, stamped with one clock read), bumps the counter the
record's kind maps to in its role's kind table, and hands the record to
the two artifacts that make a job's life visible end to end (submit →
queue → lease → worker attempt → terminal):

* :class:`ServeEventLog` — a rotating, schema-checked JSONL log under
  ``results/.servelog/`` recording every job state transition with the
  job's correlation id, worker slot, attempt number, and cache
  disposition.  This is the greppable ground truth for chaos/drift
  debugging: ``grep '"kind": "revoked"' results/.servelog/*.jsonl``
  answers "which jobs lost a lease" without reproducing anything.
* :class:`ServiceTracer` — folds the records, plus the execution
  window each worker *process* measures, into one Chrome trace on
  :data:`~repro.obs.tracer.PID_SERVE`: per-job ``queued`` async
  spans on the queue track, ``attempt-N`` complete spans (with a
  nested ``executing`` span measured inside the worker process) on
  per-slot ``serve/worker-<i>`` tracks, and instants for journaled /
  cache-hit / cache-miss / revoked / quarantined / terminal
  transitions.  Exported via ``GET /v1/trace`` and validated by
  :func:`repro.obs.export.validate_chrome_trace`.

**Determinism contract.**  Wall-clock timestamps and the racy
worker-slot assignment are the only nondeterminism in either artifact;
both are *named* — :data:`TIMESTAMP_FIELDS`, :data:`SCHEDULING_FIELDS`
— and the canonical forms (:func:`canonical_event_lines`,
:func:`canonical_trace_lines`) strip exactly those, so two same-seed
runs compare byte-identical modulo the declared volatile fields.  The
tests enforce this.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

from ..obs.export import chrome_trace_dict
from ..obs.tracer import (
    CAT_SERVE,
    PID_SERVE,
    SpanTracer,
    TID_QUEUE,
    TID_WORKER_BASE,
    serve_layout,
)
from .queue import TERMINAL_STATES

#: Event-log schema version, stamped into every record.
EVENT_FORMAT = 1

#: Default event-log directory (sibling of the journal's default).
DEFAULT_EVENTS_DIR = Path("results") / ".servelog"

#: Fields that carry wall-clock time — volatile across runs by nature.
TIMESTAMP_FIELDS = ("ts",)
#: Fields decided by the dispatcher race (which slot won ``take()``).
SCHEDULING_FIELDS = ("worker",)
#: Everything the canonical forms strip.
VOLATILE_FIELDS = TIMESTAMP_FIELDS + SCHEDULING_FIELDS

#: Every legal state transition, in within-job lifecycle order (the
#: rank breaks ties when canonicalizing; ties across attempts are
#: broken by the ``attempt`` field).
EVENT_KINDS = (
    "submitted",
    "journaled",
    "resumed",
    "coalesced",
    "leased",
    "executing",
    "cache_hit",
    "cache_miss",
    "revoked",
    "requeued",
    "quarantined",
    "terminal",
    "worker_restart",
    # Cluster-tier kinds (coordinator-side; carry a ``shard`` field so
    # per-shard routing/steal/failover decisions stay greppable in the
    # merged log — the job id is the cluster-wide correlation id).
    "routed",
    "stolen",
    "failover",
    "shard_joined",
    "shard_dead",
)
_KIND_RANK = {kind: rank for rank, kind in enumerate(EVENT_KINDS)}

_REQUIRED_FIELDS = ("format", "ts", "kind")


def make_event(kind: str, ts: float, job: str | None = None,
               seq: int | None = None, worker: int | None = None,
               attempt: int = 0, cache: str | None = None,
               state: str | None = None,
               detail: str | None = None,
               shard: str | None = None) -> dict:
    """One schema-conforming event record; ``None`` optionals are
    omitted so the JSONL stays dense."""
    event: dict = {"format": EVENT_FORMAT, "ts": ts, "kind": kind,
                   "attempt": attempt}
    if job is not None:
        event["job"] = job
    if seq is not None:
        event["seq"] = seq
    if worker is not None:
        event["worker"] = worker
    if cache is not None:
        event["cache"] = cache
    if state is not None:
        event["state"] = state
    if detail is not None:
        event["detail"] = detail
    if shard is not None:
        event["shard"] = shard
    return event


def validate_event(event: object) -> list[str]:
    """Schema check; returns a list of problems (empty = valid)."""
    if not isinstance(event, dict):
        return [f"event must be an object, got {type(event).__name__}"]
    problems = []
    for field in _REQUIRED_FIELDS:
        if field not in event:
            problems.append(f"missing required field {field!r}")
    if event.get("format") not in (None, EVENT_FORMAT):
        problems.append(
            f"unknown format {event.get('format')!r} "
            f"(expected {EVENT_FORMAT})")
    kind = event.get("kind")
    if kind is not None and kind not in _KIND_RANK:
        problems.append(f"unknown kind {kind!r}")
    if kind == "terminal" and event.get("state") not in TERMINAL_STATES:
        problems.append(
            f"terminal event needs state in {TERMINAL_STATES}, got "
            f"{event.get('state')!r}")
    if "cache" in event and event["cache"] not in ("hit", "miss"):
        problems.append(f"cache must be hit|miss, got {event['cache']!r}")
    for field, type_ in (("ts", (int, float)), ("attempt", int),
                         ("seq", int), ("worker", int), ("job", str),
                         ("shard", str)):
        if field in event and not isinstance(event[field], type_):
            problems.append(
                f"field {field!r} must be {type_}, got "
                f"{type(event[field]).__name__}")
    return problems


class ServeEventLog:
    """Rotating JSONL sink for service events.

    Appends are schema-checked (an invalid record raises — emission
    sites are code we own) and thread-safe; write *failures* never
    are fatal — a full disk costs observability, not the daemon — they
    are counted in :attr:`dropped`.  Rotation is size-based: when the
    live file (``events.jsonl``) exceeds ``max_bytes`` it is renamed to
    ``events-<n>.jsonl`` and the oldest rotations beyond ``keep`` are
    pruned.
    """

    LIVE_NAME = "events.jsonl"

    def __init__(self, root: str | Path = DEFAULT_EVENTS_DIR,
                 max_bytes: int = 4 << 20, keep: int = 8) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.keep = keep
        self.dropped = 0
        self.emitted = 0
        self._lock = threading.Lock()
        self._path = self.root / self.LIVE_NAME

    def append(self, record: dict) -> None:
        """Validate and append one record (a :func:`make_event` dict)."""
        problems = validate_event(record)
        if problems:
            raise ValueError(
                f"invalid service event {record!r}: {'; '.join(problems)}")
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            try:
                self._rotate_if_needed(len(line) + 1)
                with self._path.open("a", encoding="utf-8") as handle:
                    handle.write(line + "\n")
                self.emitted += 1
            except OSError:
                self.dropped += 1

    def _rotate_if_needed(self, incoming: int) -> None:
        try:
            size = self._path.stat().st_size
        except OSError:
            return
        if size + incoming <= self.max_bytes:
            return
        rotated = sorted(self.root.glob("events-*.jsonl"))
        next_index = 1
        if rotated:
            next_index = max(
                int(path.stem.split("-")[-1]) for path in rotated) + 1
        self._path.rename(self.root / f"events-{next_index:04d}.jsonl")
        rotated = sorted(self.root.glob("events-*.jsonl"))
        for stale in rotated[:max(0, len(rotated) - self.keep)]:
            stale.unlink(missing_ok=True)

    @classmethod
    def read(cls, root: str | Path) -> list[dict]:
        """Every event under ``root``, rotation order then live file.

        Torn lines (a crash mid-append) are skipped, not fatal — the
        log is a diagnostic artifact, it must never block reading the
        rest of itself.
        """
        root = Path(root)
        events: list[dict] = []
        paths = sorted(root.glob("events-*.jsonl"))
        live = root / cls.LIVE_NAME
        if live.exists():
            paths.append(live)
        for path in paths:
            for line in path.read_text(encoding="utf-8").splitlines():
                if not line.strip():
                    continue
                try:
                    events.append(json.loads(line))
                except ValueError:
                    continue
        return events

    @classmethod
    def scan(cls, root: str | Path) -> list[str]:
        """Schema problems across every stored event (for tests)."""
        problems = []
        for index, event in enumerate(cls.read(root)):
            for problem in validate_event(event):
                problems.append(f"event {index}: {problem}")
        return problems


def canonical_event_lines(events: list[dict],
                          drop: tuple = VOLATILE_FIELDS) -> list[str]:
    """The determinism-comparable form of an event stream.

    Strips the declared volatile fields, then sorts by (submission
    order, lifecycle rank, attempt) — which is total and identical
    across runs whenever the *logical* history matches, regardless of
    which dispatcher thread won which race.
    """
    canonical = []
    for event in events:
        stripped = {key: value for key, value in event.items()
                    if key not in drop}
        key = (
            stripped.get("seq", 1 << 30),
            stripped.get("job", ""),
            _KIND_RANK.get(stripped.get("kind"), len(EVENT_KINDS)),
            stripped.get("attempt", 0),
        )
        canonical.append((key, json.dumps(stripped, sort_keys=True)))
    canonical.sort()
    return [line for _, line in canonical]


class ServiceTracer:
    """Cross-process job tracing merged onto one Chrome trace.

    :meth:`observe` folds each transition record into the trace at the
    record's own timestamp: per-job ``queued`` spans on the queue track
    and one ``attempt-N`` span per lease on the slot's track.  The only
    fragment measured elsewhere is the ``executing`` window, timed by
    the worker *process* with its own clock and passed beside the
    terminal record; all timestamps are rebased to this tracer's epoch
    and land under one lock.

    Child clocks can disagree with the parent's by scheduling noise;
    the ``executing`` span is clamped into its parent ``attempt-N``
    window so the merged trace always satisfies the validator's strict
    nesting rule.
    """

    def __init__(self, workers: int = 0, max_events: int = 0) -> None:
        self.epoch = time.time()
        self.tracer = SpanTracer(max_events=max_events)
        self.workers = workers
        self._lock = threading.Lock()
        #: job -> queued-span start; job -> (start, slot, attempt) of
        #: the open attempt; job -> (slot, attempt) of the revoked lease.
        self._queue_started: dict[str, float] = {}
        self._attempts: dict[str, tuple[float, int, int]] = {}
        self._revoked: dict[str, tuple[int, int]] = {}
        serve_layout(self.tracer, workers)

    # --- clocks -------------------------------------------------------------
    def now_ns(self) -> float:
        """Nanoseconds since the tracer epoch (never negative)."""
        return self.to_ns(time.time())

    def to_ns(self, wall_seconds: float) -> float:
        """Rebase an absolute ``time.time()`` stamp onto the epoch."""
        return max(0.0, (wall_seconds - self.epoch) * 1e9)

    # --- transitions --------------------------------------------------------
    def observe(self, record: dict,
                exec_window: tuple | None = None) -> None:
        """Fold one transition record (:func:`make_event`) into the trace.

        ``submitted``, ``resumed`` and ``requeued`` open the job's
        queued span; ``leased`` closes it and opens the attempt span.
        ``terminal`` (and ``stolen``, a cancel from this shard's point
        of view) closes both, nests ``exec_window`` in the attempt, and
        marks the end on the queue track.  ``revoked`` closes the
        attempt; the ``requeued`` or ``quarantined`` that follows marks
        the lost lease on its slot's track.  ``coalesced`` and
        ``journaled`` are queue-track instants; other kinds leave no
        trace.
        """
        kind, job = record["kind"], record.get("job")
        args = {"job": job, "seq": record.get("seq")}
        with self._lock:
            now = self.to_ns(record["ts"])
            if kind in ("coalesced", "journaled"):
                self.tracer.instant(PID_SERVE, TID_QUEUE, kind, now,
                                    args=args, cat=CAT_SERVE)
            elif kind in ("submitted", "resumed"):
                self._queue_started.setdefault(job, now)
            elif kind == "leased":
                self._close_queued(args, now)
                self._attempts[job] = (now, record["worker"],
                                       record["attempt"])
            elif kind == "revoked":
                self._finish_attempt(args, now, "revoked")
                self._revoked[job] = (record["worker"], record["attempt"])
            elif kind in ("requeued", "quarantined"):
                worker, attempt = self._revoked.pop(job, (None, 0))
                if worker is not None:
                    self.tracer.instant(
                        PID_SERVE, TID_WORKER_BASE + worker,
                        "revoked" if kind == "requeued" else kind, now,
                        args={**args, "attempt": attempt}, cat=CAT_SERVE)
                if kind == "requeued":
                    self._queue_started[job] = now
            elif kind in ("terminal", "stolen"):
                state = record.get("state", "cancelled")
                cache = record.get("cache")
                self._finish_attempt(args, now, state, cache, exec_window)
                self._close_queued(args, now)
                end = {**args, "state": state}
                if cache is not None:
                    end["cache"] = cache
                self.tracer.instant(PID_SERVE, TID_QUEUE,
                                    f"terminal:{state}", now, args=end,
                                    cat=CAT_SERVE)

    def _close_queued(self, args: dict, end_ns: float) -> None:
        start_ns = self._queue_started.pop(args["job"], None)
        if start_ns is None:
            return
        self.tracer.async_span(
            PID_SERVE, TID_QUEUE, "queued", self.tracer.new_id(),
            start_ns, max(start_ns, end_ns), args=args, cat=CAT_SERVE)

    def _finish_attempt(self, args: dict, end_ns: float, outcome: str,
                        cache: str | None = None,
                        exec_window: tuple | None = None) -> None:
        """Close the job's open ``attempt-N`` span on its slot's track,
        with the ``executing`` span nested (and clamped) inside it and
        the cache-disposition instant at its end."""
        opened = self._attempts.pop(args["job"], None)
        if opened is None:
            return
        start_ns, worker, attempt = opened
        tid = TID_WORKER_BASE + worker
        end_ns = max(start_ns, end_ns)
        self.tracer.complete(
            PID_SERVE, tid, f"attempt-{attempt}", start_ns, end_ns,
            args={**args, "worker": worker, "outcome": outcome},
            cat=CAT_SERVE)
        if exec_window is not None:
            exec_start = min(max(self.to_ns(exec_window[0]), start_ns),
                             end_ns)
            exec_end = min(max(self.to_ns(exec_window[1]), exec_start),
                           end_ns)
            self.tracer.complete(PID_SERVE, tid, "executing", exec_start,
                                 exec_end, args=args, cat=CAT_SERVE)
        if cache is not None:
            self.tracer.instant(PID_SERVE, tid, f"cache_{cache}", end_ns,
                                args=args, cat=CAT_SERVE)

    def queue_depth(self, depth: int, running: int) -> None:
        with self._lock:
            self.tracer.counter(
                PID_SERVE, TID_QUEUE, "queue", self.now_ns(),
                {"depth": depth, "running": running})

    # --- export -------------------------------------------------------------
    def trace_dict(self) -> dict:
        """The merged Chrome trace (open queued spans stay pending —
        they are emitted when they close, so the export always
        validates)."""
        with self._lock:
            return chrome_trace_dict(self.tracer)


class TransitionRecorder:
    """Reports each job, worker and shard transition once.

    :meth:`record` builds the transition's record and hands it to every
    view of it:

    * the counter the record's kind maps to in the role's kind table
      (``"terminal:<state>"`` for a ``terminal`` record), and the
      record's worker slot's counter in the per-slot table;
    * the :class:`ServeEventLog`, when one is configured;
    * :meth:`ServiceTracer.observe`, when tracing is on.

    A kind missing from both tables counts nothing.  The tables map a
    key to ``(metric name, help text)``; each counter is registered here.
    """

    def __init__(self, registry, counters: dict[str, tuple[str, str]],
                 events: ServeEventLog | None = None,
                 tracer: ServiceTracer | None = None,
                 slot_counters: dict[str, tuple[str, str]] | None = None,
                 slots: int = 0) -> None:
        self.events = events
        self.tracer = tracer
        #: Transitions arrive from HTTP and dispatcher threads at once;
        #: a counter's ``+=`` is not atomic.
        self._lock = threading.Lock()
        self.counters = {key: registry.counter(name, help_text)
                         for key, (name, help_text) in counters.items()}
        self._slot_counters = {
            kind: [registry.counter(name, help_text,
                                    labels={"worker": str(slot)})
                   for slot in range(slots)]
            for kind, (name, help_text) in (slot_counters or {}).items()}

    def record(self, kind: str, job=None,
               exec_window: tuple | None = None, **fields) -> dict:
        """Report one transition; returns its record.

        ``job`` is anything with an ``id`` and a ``seq`` (None for
        worker and shard transitions); ``fields`` are the optional
        fields of :func:`make_event`.  ``exec_window`` is the
        worker-measured execution window, which only the trace reads.
        """
        record = make_event(kind, time.time(),
                            job=job.id if job is not None else None,
                            seq=job.seq if job is not None else None,
                            **fields)
        state = record.get("state")
        counter = self.counters.get(
            kind if state is None else f"{kind}:{state}")
        with self._lock:
            if counter is not None:
                counter.inc()
            if kind in self._slot_counters:
                self._slot_counters[kind][record["worker"]].inc()
        if self.events is not None:
            self.events.append(record)
        if self.tracer is not None:
            self.tracer.observe(record, exec_window)
        return record

    def sample_queue(self, depth: int, running: int) -> None:
        """One queue-depth sample on the trace's counter track."""
        if self.tracer is not None:
            self.tracer.queue_depth(depth, running)


def canonical_trace_lines(trace: dict) -> list[str]:
    """The determinism-comparable form of a merged service trace.

    Drops metadata and counter samples (track naming / queue-depth
    values are layout- and timing-dependent respectively), strips
    timestamps, durations, async-span ids, the tid (worker-slot
    assignment is a dispatcher race), and the ``worker`` arg, then
    sorts.  What remains is the logical span history per job.
    """
    lines = []
    for event in trace.get("traceEvents", []):
        if event.get("ph") in ("M", "C"):
            continue
        stripped = {key: value for key, value in event.items()
                    if key not in ("ts", "dur", "tid", "id")}
        args = dict(stripped.get("args") or {})
        for field in SCHEDULING_FIELDS:
            args.pop(field, None)
        if args:
            stripped["args"] = args
        else:
            stripped.pop("args", None)
        lines.append(json.dumps(stripped, sort_keys=True))
    lines.sort()
    return lines
