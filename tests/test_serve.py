"""Tests for the simulation service (`repro.serve`).

Unmarked tests are pure in-process unit tests of the state machine,
queue, journal, and job-spec validation — they run in the tier-1 suite.
The ``serve``-marked classes boot a real HTTP server on an ephemeral
port and exercise the end-to-end contract: job lifecycle, coalescing,
cache-hit fast path, 429 backpressure, cancellation, and drain + journal
resume; one of them drives `repro serve`/`repro submit` as
subprocesses.  Everything is deterministic: fixed seeds, event-gated
fake runners instead of timing games, and no wall-clock assertions.
"""

import json
import pathlib
import random
import re
import shutil
import sys
import threading

import pytest

from repro.config import SimulatorConfig
from repro.errors import (
    BackpressureError,
    ConfigurationError,
    InvalidJobError,
    JobNotFoundError,
    JobStateError,
    QueueFullError,
    ServeClientError,
    ServeError,
)
from repro.obs.metrics import Histogram
from repro.serve import (
    FleetOptions,
    JobJournal,
    JobQueue,
    ServeClient,
    ServeEventLog,
    SimulationService,
    shard_server,
)
from repro.serve.api import build_cell
from repro.serve.queue import CANCELLED, DONE, FAILED, QUEUED, RUNNING
from repro.stats import FailedRun, SimStats
from repro.sweep import RunCache, SweepCell, decode_result, execute_cell

SCALE = 0.12


def cell(seed: int = 0, name: str = "hotspot") -> SweepCell:
    """A distinct, cheap cell per seed (the seed is part of the hash)."""
    return SweepCell(
        workload_spec={"name": name, "scale": SCALE},
        config=SimulatorConfig(prefetcher="tbn", eviction="lru4k",
                               seed=seed),
    )


class GatedRunner:
    """Deterministic fake runner: blocks each job until released.

    ``started`` lets a test wait until a worker actually holds a job
    before asserting on queue occupancy — no sleeps, no races.
    """

    def __init__(self):
        self.gate = threading.Event()
        self.started = threading.Event()
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, cell):
        with self._lock:
            self.calls += 1
        self.started.set()
        assert self.gate.wait(30), "test gate never released"
        return SimStats(), False

    def release(self):
        self.gate.set()


class TestJobStateMachine:
    def test_legal_path_to_done(self):
        queue = JobQueue()
        job, coalesced = queue.submit(cell(1))
        assert job.state == QUEUED and not coalesced
        taken = queue.take(timeout=1)
        assert taken is job and job.state == RUNNING
        queue.complete(job, SimStats(), cache_hit=False)
        assert job.state == DONE and job.is_terminal
        assert job.wait(timeout=1)

    def test_failed_run_lands_in_failed(self):
        queue = JobQueue()
        job, _ = queue.submit(cell(2))
        queue.take(timeout=1)
        queue.complete(job, FailedRun("hotspot", "SimulationError", "x"),
                       cache_hit=False)
        assert job.state == FAILED
        assert job.status_dict()["error"]["type"] == "SimulationError"

    def test_illegal_transitions_raise(self):
        queue = JobQueue()
        job, _ = queue.submit(cell(3))
        with pytest.raises(JobStateError):
            job.advance(DONE)  # queued -> done skips running
        queue.take(timeout=1)
        queue.requeue(job)  # running -> queued IS legal (lease revoked)
        assert queue.take(timeout=1) is job
        queue.complete(job, SimStats(), cache_hit=False)
        with pytest.raises(JobStateError):
            job.advance(RUNNING)  # terminal states are final

    def test_illegal_transition_message_names_both_states(self):
        queue = JobQueue()
        job, _ = queue.submit(cell(4))
        with pytest.raises(JobStateError) as excinfo:
            job.advance(DONE)
        message = str(excinfo.value)
        assert job.id in message
        assert "'queued'" in message and "'done'" in message
        assert "legal from 'queued'" in message
        with pytest.raises(JobStateError) as excinfo:
            job.advance("bogus")
        assert "unknown target state 'bogus'" in str(excinfo.value)
        queue.take(timeout=1)
        queue.complete(job, SimStats(), cache_hit=False)
        with pytest.raises(JobStateError) as excinfo:
            job.advance(RUNNING)
        assert "none (terminal)" in str(excinfo.value)


class TestJobQueue:
    def test_running_count_follows_a_seeded_model(self):
        # The count is kept by take/requeue/complete; a model that
        # tracks the running ids itself must agree after every step,
        # and so must the states of the jobs the queue retains.
        rng = random.Random(25)
        queue = JobQueue(capacity=6, history=12)
        running: list = []
        for _ in range(3000):
            op = rng.choice(("submit", "take", "requeue", "complete",
                             "cancel", "steal"))
            if op == "submit":
                try:
                    queue.submit(cell(rng.randrange(30)))
                except QueueFullError:
                    pass
            elif op == "take" and queue.depth:
                running.append(queue.take(timeout=1))
            elif op in ("requeue", "complete") and running:
                job = running.pop(rng.randrange(len(running)))
                if op == "requeue":
                    queue.requeue(job)
                else:
                    queue.complete(job, SimStats(), cache_hit=False)
            elif op == "cancel" and queue.depth:
                queue.cancel(rng.choice(queue.pending()).id)
            elif op == "steal":
                queue.steal(rng.randrange(1, 3))
            assert queue.running == len(running) == sum(
                1 for job in queue.jobs() if job.state == RUNNING)

    def test_key_is_computed_once_at_admission(self, monkeypatch):
        queue = JobQueue()
        job, _ = queue.submit(cell(1))
        key = job.key
        monkeypatch.setattr(SweepCell, "cache_key", lambda self: "never")
        assert job.key == key and job.status_dict()["key"] == key

    def test_fifo_order(self):
        queue = JobQueue()
        first, _ = queue.submit(cell(1))
        second, _ = queue.submit(cell(2))
        assert queue.take(timeout=1) is first
        assert queue.take(timeout=1) is second

    def test_identical_cells_coalesce(self):
        queue = JobQueue()
        job, coalesced = queue.submit(cell(7))
        again, again_coalesced = queue.submit(cell(7))
        assert not coalesced and again_coalesced
        assert again is job
        assert queue.depth == 1
        # ...also while running, but not once terminal.
        queue.take(timeout=1)
        assert queue.submit(cell(7))[1] is True
        queue.complete(job, SimStats(), cache_hit=False)
        fresh, fresh_coalesced = queue.submit(cell(7))
        assert not fresh_coalesced and fresh is not job

    def test_bounded_queue_rejects_with_retry_after(self):
        queue = JobQueue(capacity=2)
        queue.submit(cell(1))
        queue.submit(cell(2))
        with pytest.raises(QueueFullError) as excinfo:
            queue.submit(cell(3))
        assert excinfo.value.retry_after > 0

    def test_running_jobs_free_queue_slots(self):
        queue = JobQueue(capacity=1)
        job, _ = queue.submit(cell(1))
        queue.take(timeout=1)  # running no longer occupies the slot
        queue.submit(cell(2))
        with pytest.raises(QueueFullError):
            queue.submit(cell(3))

    def test_cancel_only_when_queued(self):
        queue = JobQueue()
        job, _ = queue.submit(cell(1))
        cancelled = queue.cancel(job.id)
        assert cancelled.state == CANCELLED and queue.depth == 0
        running, _ = queue.submit(cell(2))
        queue.take(timeout=1)
        with pytest.raises(JobStateError):
            queue.cancel(running.id)
        with pytest.raises(JobNotFoundError):
            queue.cancel("nope")

    def test_close_stops_admission_and_handout(self):
        queue = JobQueue()
        queue.submit(cell(1))
        queue.close()
        assert queue.take(timeout=1) is None  # queued job is NOT handed out
        assert len(queue.pending()) == 1  # ...it stays for the journal
        with pytest.raises(JobStateError):
            queue.submit(cell(2))

    def test_requeue_goes_to_the_front(self):
        queue = JobQueue()
        revoked, _ = queue.submit(cell(1))
        queue.submit(cell(2))
        assert queue.take(timeout=1) is revoked
        queue.requeue(revoked)  # its worker "died"
        assert revoked.state == QUEUED
        assert queue.take(timeout=1) is revoked  # ahead of cell(2)

    def test_requeue_ignores_capacity_and_close(self):
        # A revoked job was already admitted once; bouncing it on a
        # full or draining queue would lose it.
        queue = JobQueue(capacity=1)
        revoked, _ = queue.submit(cell(1))
        queue.take(timeout=1)
        queue.submit(cell(2))  # fills the single waiting slot
        queue.requeue(revoked)
        assert queue.depth == 2
        taken = queue.take(timeout=1)
        assert taken is revoked
        closed = JobQueue()
        held, _ = closed.submit(cell(3))
        closed.take(timeout=1)
        closed.close()
        closed.requeue(held)  # crash during drain: still journaled-able
        assert held.state == QUEUED and held in closed.pending()


class TestJournal:
    def test_round_trip_in_submission_order(self, tmp_path):
        journal = JobJournal(tmp_path / "journal")
        queue = JobQueue()
        jobs = [queue.submit(cell(seed))[0] for seed in (5, 3, 8)]
        for job in jobs:
            journal.record(job)
        replayed = journal.load()
        assert [job_id for job_id, _, _ in replayed] == \
            [job.id for job in jobs]
        assert [c.cache_key() for _, c, _ in replayed] == \
            [job.cell.cache_key() for job in jobs]

    def test_forget_is_idempotent(self, tmp_path):
        journal = JobJournal(tmp_path / "journal")
        queue = JobQueue()
        job, _ = queue.submit(cell(1))
        journal.record(job)
        journal.forget(job.id)
        journal.forget(job.id)
        assert journal.load() == []

    def test_corrupt_entries_are_quarantined_not_fatal(
            self, tmp_path, capsys):
        journal = JobJournal(tmp_path / "journal")
        queue = JobQueue()
        job, _ = queue.submit(cell(1))
        journal.record(job)
        (journal.root / "zz-corrupt.json").write_text("{not json")
        (journal.root / "zz-stale.json").write_text(
            json.dumps({"format": -1}))
        assert [job_id for job_id, _, _ in journal.load()] == [job.id]
        assert journal.quarantined == 2
        assert "quarantined" in capsys.readouterr().err
        # The bad files were moved aside, so a second replay is clean:
        # same result, no re-quarantine, corpses inspectable on disk.
        assert [job_id for job_id, _, _ in journal.load()] == [job.id]
        assert journal.quarantined == 2
        assert sorted(p.name for p in journal.quarantine_dir.iterdir()) \
            == ["zz-corrupt.json", "zz-stale.json"]

    def test_attempts_round_trip_and_are_omitted_while_zero(
            self, tmp_path):
        journal = JobJournal(tmp_path / "journal")
        queue = JobQueue()
        job, _ = queue.submit(cell(1))
        journal.record(job)
        assert "attempts" not in json.loads(
            journal.path_for(job.id).read_text())
        job.attempts = 2
        journal.record(job)  # the supervisor's rewrite on a lease
        assert [(job_id, attempts)
                for job_id, _, attempts in journal.load()] == [(job.id, 2)]

    def test_unmovable_corrupt_entry_is_unlinked(self, tmp_path,
                                                 capsys):
        journal = JobJournal(tmp_path / "journal")
        journal.root.mkdir(parents=True)
        (journal.root / "zz-corrupt.json").write_text("{not json")
        # A file where the quarantine dir should be makes the move fail;
        # the corpse must still leave the replay set.
        journal.quarantine_dir.write_text("")
        assert journal.load() == []
        assert journal.quarantined == 1
        assert "quarantined corrupt entry" in capsys.readouterr().err
        assert not (journal.root / "zz-corrupt.json").exists()
        assert journal.load() == [] and journal.quarantined == 1


class TestBuildCell:
    def test_valid_spec(self):
        built = build_cell({"workload": {"name": "hotspot",
                                         "scale": 0.25},
                            "config": {"prefetcher": "none"},
                            "seed": 9})
        assert built.workload_spec == {"name": "hotspot", "scale": 0.25}
        assert built.config.prefetcher == "none"
        assert built.config.seed == 9

    def test_workload_shorthand_string(self):
        assert build_cell({"workload": "bfs"}).workload_spec == \
            {"name": "bfs"}

    def test_rejections(self):
        for bad in (
            [],  # not an object
            {"workload": "hotspot", "bogus": 1},  # unknown spec field
            {"config": {}},  # workload missing
            {"workload": {"scale": 1.0}},  # name missing
            {"workload": "not-a-workload"},
            {"workload": "hotspot", "config": {"nope": 1}},
            {"workload": "hotspot", "config": {"num_sms": -1}},
            {"workload": "hotspot", "seed": "abc"},  # non-int seed
        ):
            with pytest.raises(InvalidJobError):
                build_cell(bad)

    def test_seed_must_be_integral_in_config_too(self):
        with pytest.raises(ConfigurationError):
            SimulatorConfig(seed="abc")


class TestClientConnectRetries:
    """Opt-in retry of refused/reset connections in ServeClient."""

    @staticmethod
    def _flaky_client(failures: int, exc: type, **kwargs) -> ServeClient:
        """A client whose first ``failures`` transports raise ``exc``."""
        client = ServeClient(port=1, **kwargs)
        client.calls = 0

        def fake_request_once(method, path, body=None):
            client.calls += 1
            if client.calls <= failures:
                raise exc("synthetic")
            return {"ok": True}

        client._request_once = fake_request_once
        return client

    def test_default_is_fail_fast(self):
        client = self._flaky_client(5, ConnectionRefusedError)
        with pytest.raises(ServeClientError) as excinfo:
            client._request("GET", "/v1/healthz")
        assert client.calls == 1
        assert "after 1 attempt(s)" in str(excinfo.value)

    def test_retries_refused_until_the_server_is_back(self):
        client = self._flaky_client(2, ConnectionRefusedError,
                                    connect_retries=3,
                                    connect_backoff=0.0)
        assert client._request("GET", "/v1/healthz") == {"ok": True}
        assert client.calls == 3

    def test_retries_reset_too_and_budget_is_bounded(self):
        client = self._flaky_client(99, ConnectionResetError,
                                    connect_retries=2,
                                    connect_backoff=0.0)
        with pytest.raises(ServeClientError) as excinfo:
            client._request("GET", "/v1/healthz")
        assert client.calls == 3  # retries + the final attempt
        assert "after 3 attempt(s)" in str(excinfo.value)

    def test_other_transport_errors_are_never_retried(self):
        client = self._flaky_client(99, TimeoutError,
                                    connect_retries=5,
                                    connect_backoff=0.0)
        with pytest.raises(TimeoutError):
            client._request("GET", "/v1/healthz")
        assert client.calls == 1

    def test_real_refused_connection_still_raises(self):
        import socket

        with socket.socket() as probe:  # a port nobody listens on
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        client = ServeClient(port=free_port, timeout=1.0,
                             connect_retries=1, connect_backoff=0.0)
        with pytest.raises(ServeClientError) as excinfo:
            client.healthz()
        assert "cannot reach" in str(excinfo.value)

    def test_knobs_are_validated(self):
        with pytest.raises(ServeClientError):
            ServeClient(connect_retries=-1)
        with pytest.raises(ServeClientError):
            ServeClient(connect_backoff=-0.1)
        with pytest.raises(ServeClientError):
            ServeClient(retry_budget=0.0)


class TestRetryBudget:
    """The shared sleep budget across ServeClient's two retry loops."""

    def test_draw_grants_at_most_remaining(self):
        from repro.serve.client import _RetryBudget

        budget = _RetryBudget(1.0)
        assert budget.draw(0.6) == pytest.approx(0.6)
        assert budget.draw(0.6) == pytest.approx(0.4)
        assert budget.draw(0.6) == 0.0
        assert budget.remaining == 0.0

    def test_negative_wanted_is_free(self):
        from repro.serve.client import _RetryBudget

        budget = _RetryBudget(1.0)
        assert budget.draw(-5.0) == 0.0
        assert budget.remaining == 1.0

    @staticmethod
    def _scripted_client(script, **kwargs):
        """A client whose transports follow ``script`` (exceptions are
        raised, dicts returned) and whose sleeps are recorded."""
        client = ServeClient(port=1, **kwargs)
        client.sleeps = []
        client._sleep = client.sleeps.append
        steps = iter(script)

        def fake_request_once(method, path, body=None):
            step = next(steps)
            if isinstance(step, BaseException):
                raise step
            return step

        client._request_once = fake_request_once
        return client

    def test_connect_and_429_loops_share_one_budget(self):
        """Regression: a 429 landing after the connect-backoff ladder
        used to start a fresh Retry-After allowance, making the
        worst-case wait the *product* of the two policies.  Now every
        sleep draws from one ``retry_budget``; once the reconnect burns
        it, the 429 raises immediately."""
        client = self._scripted_client(
            [ConnectionRefusedError("down"),
             ConnectionRefusedError("down"),
             BackpressureError("queue full", retry_after=10.0)],
            connect_retries=3, connect_backoff=1.0,
            backpressure_retries=5, retry_after_cap=2.0,
            retry_budget=1.5)
        with pytest.raises(BackpressureError):
            client.submit({"name": "hotspot", "scale": 0.1})
        # Connect attempt 0 slept min(backoff, 1.0) = 1.0; attempt 1
        # wanted another 1.0 but only 0.5 remained, so the ladder
        # stopped; the 429 wanted 2.0 against an empty budget and
        # surfaced without sleeping.  Total wait <= retry_budget.
        assert client.sleeps == [1.0]
        assert sum(client.sleeps) <= 1.5

    def test_429_sleeps_bounded_by_budget(self):
        client = self._scripted_client(
            [BackpressureError("full", retry_after=5.0)] * 10,
            backpressure_retries=9, retry_after_cap=2.0,
            retry_budget=3.0)
        with pytest.raises(BackpressureError):
            client.submit({"name": "hotspot", "scale": 0.1})
        # Wanted 2.0 per retry: granted 2.0, then only 1.0 remained
        # (< wanted), so the loop stopped after one sleep.
        assert client.sleeps == [2.0]
        assert sum(client.sleeps) <= 3.0

    def test_budget_spans_submit_attempts(self):
        """One budget covers the whole logical submit: connect backoff
        taken while *retrying after a 429* draws from the same pool."""
        client = self._scripted_client(
            [BackpressureError("full", retry_after=1.0),
             ConnectionRefusedError("restarting"),
             {"id": "j1", "state": "queued"}],
            connect_retries=2, connect_backoff=0.25,
            backpressure_retries=3, retry_after_cap=1.0,
            retry_budget=10.0)
        status = client.submit({"name": "hotspot", "scale": 0.1})
        assert status["id"] == "j1"
        # One 429 sleep (1.0) + one connect-backoff sleep (0.25).
        assert client.sleeps == [1.0, 0.25]

    def test_success_sleeps_nothing(self):
        client = self._scripted_client(
            [{"id": "j1", "state": "queued"}],
            backpressure_retries=5, retry_budget=2.0)
        client.submit({"name": "hotspot", "scale": 0.1})
        assert client.sleeps == []


class TestServeClientFromUrl:
    def test_plain_and_schemed(self):
        for url in ("10.0.0.2:8077", "http://10.0.0.2:8077",
                    "http://10.0.0.2:8077/", " 10.0.0.2:8077 "):
            client = ServeClient.from_url(url)
            assert (client.host, client.port) == ("10.0.0.2", 8077)

    def test_https_is_refused(self):
        # The client speaks plain HTTP; stripping the scheme would send
        # cleartext to a port meant for TLS.
        with pytest.raises(ServeClientError, match="https"):
            ServeClient.from_url("https://10.0.0.2:8077")

    def test_kwargs_pass_through(self):
        client = ServeClient.from_url("h:1", timeout=3.0,
                                      retry_budget=1.0)
        assert client.timeout == 3.0
        assert client.retry_budget == 1.0

    def test_malformed_urls_rejected(self):
        for url in ("nohost", "http://", "host:port", ":8077", "h:-1",
                    "h:+80", "http://example.test"):
            with pytest.raises(ServeClientError):
                ServeClient.from_url(url)


class TestQueueSteal:
    """The shard-side work-stealing primitive (`JobQueue.steal`)."""

    def test_steals_newest_first_and_cancels(self):
        queue = JobQueue()
        jobs = [queue.submit(cell(seed))[0] for seed in (1, 2, 3)]
        stolen = queue.steal(2)
        assert [job.id for job in stolen] == \
            [jobs[2].id, jobs[1].id]
        assert all(job.state == CANCELLED for job in stolen)
        # The oldest job is untouched and still next in line.
        assert queue.take(timeout=1) is jobs[0]

    def test_running_jobs_are_never_stolen(self):
        queue = JobQueue()
        running, _ = queue.submit(cell(1))
        queue.take(timeout=1)
        queued, _ = queue.submit(cell(2))
        stolen = queue.steal(10)
        assert [job.id for job in stolen] == [queued.id]
        assert running.state == RUNNING

    def test_stolen_keys_can_resubmit(self):
        """A stolen job leaves the coalescing map, so the same cell can
        be admitted again (the donor shard might be routed it later)."""
        queue = JobQueue()
        job, _ = queue.submit(cell(5))
        queue.steal(1)
        again, coalesced = queue.submit(cell(5))
        assert not coalesced
        assert again.id != job.id

    def test_nonpositive_max_is_a_noop(self):
        queue = JobQueue()
        queue.submit(cell(1))
        assert queue.steal(0) == []
        assert queue.steal(-3) == []
        assert queue.depth == 1


class TestHistogramQuantile:
    def test_empty_is_none_not_zero(self):
        # An empty histogram has no quantiles; returning 0 would let a
        # dashboard read "p99 = 0ns" off a service that never ran a job.
        histogram = Histogram("h")
        assert histogram.quantile(0.5) is None
        assert histogram.quantile(0.99) is None
        histogram.observe(7)
        assert histogram.quantile(0.99) is not None

    def test_clamped_to_observed_range(self):
        histogram = Histogram("h", bounds=[10, 100, 1000])
        for value in (4, 5, 6, 7):
            histogram.observe(value)
        assert histogram.quantile(0.5) == 7  # bound 10 clamped to max
        histogram.observe(5000)  # overflow bucket
        assert histogram.quantile(1.0) == 5000

    def test_spread(self):
        histogram = Histogram("h", bounds=[10, 100, 1000])
        for value in (5,) * 90 + (500,) * 10:
            histogram.observe(value)
        assert histogram.quantile(0.5) == 10
        assert histogram.quantile(0.95) == 500

    def test_bad_q_raises(self):
        with pytest.raises(ValueError):
            Histogram("h").quantile(1.5)


class TestServeEvents:
    def test_make_event_omits_none_optionals(self):
        from repro.serve import EVENT_FORMAT, make_event

        event = make_event("submitted", ts=1.5, job="j1", seq=1)
        assert event == {"format": EVENT_FORMAT, "ts": 1.5,
                         "kind": "submitted", "attempt": 0,
                         "job": "j1", "seq": 1}

    def test_validate_event_rejections(self):
        from repro.serve import make_event, validate_event

        assert validate_event(make_event("leased", ts=0.0, job="j",
                                         worker=1, attempt=2)) == []
        assert validate_event([]) != []
        assert validate_event({}) != []  # required fields missing
        for bad in (
            make_event("bogus-kind", ts=0.0),
            make_event("terminal", ts=0.0),  # no state
            make_event("terminal", ts=0.0, state="exploded"),
            make_event("cache_hit", ts=0.0, cache="maybe"),
            {**make_event("leased", ts=0.0), "worker": "zero"},
            {**make_event("leased", ts=0.0), "format": 99},
        ):
            assert validate_event(bad), bad

    def test_every_kind_has_a_rank(self):
        from repro.serve import EVENT_KINDS, canonical_event_lines, \
            make_event

        events = [make_event(kind, ts=float(i), job="j", seq=1)
                  for i, kind in enumerate(reversed(EVENT_KINDS))]
        lines = canonical_event_lines(events)
        kinds = [json.loads(line)["kind"] for line in lines]
        assert kinds == [k for k in EVENT_KINDS if k in kinds]


class TestTransitionRecorder:
    def test_concurrent_records_lose_no_count(self):
        import sys

        from repro.obs.metrics import MetricsRegistry
        from repro.serve.events import TransitionRecorder
        from repro.serve.server import SHARD_COUNTERS, WORKER_COUNTERS

        registry = MetricsRegistry()
        recorder = TransitionRecorder(registry, SHARD_COUNTERS,
                                      slot_counters=WORKER_COUNTERS,
                                      slots=1)
        threads, per_thread = 8, 2000

        def restart_many():
            for _ in range(per_thread):
                recorder.record("worker_restart", worker=0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=restart_many)
                       for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        snapshot = registry.snapshot()
        assert snapshot["serve.worker_restarts"] == threads * per_thread
        assert snapshot['serve.worker.restarts{worker="0"}'] == \
            threads * per_thread


class TestServeEventLog:
    def test_emit_read_round_trip_and_volatile_strip(self, tmp_path):
        from repro.serve import (
            ServeEventLog,
            canonical_event_lines,
            make_event,
        )

        log = ServeEventLog(tmp_path / "servelog")
        log.append(make_event("submitted", 1.0, job="j000001-abc", seq=1))
        log.append(make_event("leased", 2.0, job="j000001-abc", seq=1,
                              worker=0, attempt=1))
        log.append(make_event("terminal", 3.0, job="j000001-abc", seq=1,
                              state="done", cache="miss"))
        stored = ServeEventLog.read(tmp_path / "servelog")
        assert [event["kind"] for event in stored] == \
            ["submitted", "leased", "terminal"]
        assert ServeEventLog.scan(tmp_path / "servelog") == []
        for line in canonical_event_lines(stored):
            record = json.loads(line)
            assert "ts" not in record and "worker" not in record

    def test_invalid_event_raises(self, tmp_path):
        from repro.serve import ServeEventLog, make_event

        log = ServeEventLog(tmp_path / "servelog")
        with pytest.raises(ValueError):
            log.append(make_event("not-a-kind", 0.0))
        assert log.emitted == 0

    def test_rotation_prunes_beyond_keep(self, tmp_path):
        from repro.serve import ServeEventLog, make_event

        root = tmp_path / "servelog"
        log = ServeEventLog(root, max_bytes=200, keep=2)
        for seq in range(40):
            log.append(make_event("submitted", float(seq),
                                  job=f"j{seq:06d}-deadbeef", seq=seq))
        rotated = sorted(p.name for p in root.glob("events-*.jsonl"))
        assert len(rotated) == 2  # older rotations pruned
        assert (root / ServeEventLog.LIVE_NAME).exists()
        assert log.emitted == 40 and log.dropped == 0
        # The retained tail is still readable and schema-clean.
        assert ServeEventLog.scan(root) == []
        assert all(event["seq"] >= 0 for event in ServeEventLog.read(root))

    def test_torn_lines_are_skipped_not_fatal(self, tmp_path):
        from repro.serve import ServeEventLog, make_event

        root = tmp_path / "servelog"
        log = ServeEventLog(root)
        log.append(make_event("submitted", 1.0, job="j000001-abc", seq=1))
        with (root / ServeEventLog.LIVE_NAME).open("a") as handle:
            handle.write('{"format": 1, "ts": 2.0, "kind": "lea')
        assert [e["kind"] for e in ServeEventLog.read(root)] == \
            ["submitted"]


class TestServiceTracer:
    @staticmethod
    def observe(tracer, kind, offset, exec_window=None, **fields):
        """Feed ``tracer`` one record of job j1, ``offset`` seconds
        after its epoch."""
        from repro.serve import make_event

        tracer.observe(make_event(kind, tracer.epoch + offset, job="j1",
                                  seq=1, **fields), exec_window)

    def test_full_lifecycle_validates_and_canonicalizes(self):
        from repro.obs import validate_chrome_trace
        from repro.serve import ServiceTracer, canonical_trace_lines

        tracer = ServiceTracer(workers=2)
        self.observe(tracer, "submitted", 0.0)
        self.observe(tracer, "journaled", 1e-6)
        self.observe(tracer, "leased", 2e-6, worker=0, attempt=1)
        self.observe(tracer, "terminal", 4e-4,
                     exec_window=(tracer.epoch, tracer.epoch + 1e-4),
                     worker=0, attempt=1, state="done", cache="miss")
        tracer.queue_depth(0, 0)
        trace = tracer.trace_dict()
        validate_chrome_trace(trace)
        names = {e.get("name") for e in trace["traceEvents"]}
        assert {"queued", "journaled", "attempt-1", "executing",
                "cache_miss", "terminal:done"} <= names
        for line in canonical_trace_lines(trace):
            record = json.loads(line)
            assert record["ph"] not in ("M", "C")
            for field in ("ts", "dur", "tid", "id"):
                assert field not in record
            assert "worker" not in record.get("args", {})

    def test_exec_window_clamped_into_attempt_span(self):
        from repro.obs import validate_chrome_trace
        from repro.serve import ServiceTracer

        tracer = ServiceTracer(workers=1)
        self.observe(tracer, "submitted", 0.0)
        self.observe(tracer, "leased", 1e-6, worker=0, attempt=1)
        # A skewed child clock reports a window outside the attempt.
        self.observe(tracer, "terminal", 1e-3,
                     exec_window=(tracer.epoch - 10.0, tracer.epoch + 1e9),
                     worker=0, attempt=1, state="done", cache="miss")
        trace = tracer.trace_dict()
        validate_chrome_trace(trace)
        spans = {e["name"]: e for e in trace["traceEvents"]
                 if e.get("ph") == "X"}
        attempt, executing = spans["attempt-1"], spans["executing"]
        assert attempt["ts"] <= executing["ts"]
        assert executing["ts"] + executing["dur"] <= \
            attempt["ts"] + attempt["dur"]

    def test_cancel_before_lease_still_closes_queued_span(self):
        from repro.obs import validate_chrome_trace
        from repro.serve import ServiceTracer

        tracer = ServiceTracer(workers=1)
        self.observe(tracer, "submitted", 0.0)
        self.observe(tracer, "terminal", 1e-3, state="cancelled")
        trace = tracer.trace_dict()
        validate_chrome_trace(trace)
        phases = [e["ph"] for e in trace["traceEvents"]
                  if e.get("name") == "queued"]
        assert phases == ["b", "e"]


class TestMetricsDocSync:
    """docs/SERVICE.md's metric table is the complete reference: every
    registered ``serve.*`` base name is documented, and every
    documented name is actually registered — in both directions, so
    neither the code nor the doc can drift alone."""

    def test_metrics_table_matches_registry(self, tmp_path):
        doc = (pathlib.Path(__file__).resolve().parent.parent
               / "docs" / "SERVICE.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `(serve\.[a-z_.]+)`", doc, re.MULTILINE)
        assert rows, "docs/SERVICE.md lost its metrics table"
        documented = set(rows)
        assert len(rows) == len(documented), "duplicate table rows"
        # Process mode registers the full surface, including the
        # per-worker labelled instruments (construction only — no
        # worker processes are spawned before start()).
        service = SimulationService(
            jobs=2, worker_mode="process",
            journal=JobJournal(tmp_path / "journal"))
        registered = {
            instrument.base_name
            for instrument in service.registry.instruments()
            if instrument.base_name.startswith("serve.")
        }
        assert documented == registered


class TestEventKindsDocSync:
    """docs/OBSERVABILITY.md's kind table is the complete reference of
    the transition records: every kind in ``EVENT_KINDS`` has a row and
    every row is a kind, and each row names exactly the counters that
    the code's kind tables bump for it."""

    @staticmethod
    def rows() -> list[tuple[str, str]]:
        doc = (pathlib.Path(__file__).resolve().parent.parent
               / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
        rows = re.findall(
            r"^\| `([a-z_]+)` \| (?:shard|coordinator)[a-z, ]* \| "
            r"([^|]+) \|$", doc, re.MULTILINE)
        assert rows, "docs/OBSERVABILITY.md lost its kind table"
        return rows

    def test_kind_table_matches_event_kinds(self):
        from repro.serve import EVENT_KINDS

        kinds = [kind for kind, _ in self.rows()]
        assert len(kinds) == len(set(kinds)), "duplicate table rows"
        assert set(kinds) == set(EVENT_KINDS)

    def test_kind_table_names_the_bumped_counters(self):
        from repro.cluster.coordinator import COORDINATOR_COUNTERS
        from repro.serve.server import SHARD_COUNTERS, WORKER_COUNTERS

        bumped: dict[str, set] = {}
        for table in (SHARD_COUNTERS, WORKER_COUNTERS,
                      COORDINATOR_COUNTERS):
            for key, (name, _) in table.items():
                bumped.setdefault(key.split(":")[0], set()).add(name)
        documented = {
            kind: set(re.findall(r"`((?:serve|cluster)\.[a-z_.]+)`",
                                 counters))
            for kind, counters in self.rows()}
        assert documented == {kind: bumped.get(kind, set())
                              for kind in documented}
        assert set(bumped) <= set(documented)


class TestServiceUnit:
    """Service-level behaviour with gated runners (no HTTP)."""

    def test_worker_count_validated(self):
        with pytest.raises(ServeError):
            SimulationService(jobs=0)

    def test_drain_finishes_running_keeps_queued(self, tmp_path):
        journal = JobJournal(tmp_path / "journal")
        runner = GatedRunner()
        service = SimulationService(jobs=1, queue_limit=8,
                                    journal=journal, runner=runner)
        service.start()
        first, _ = service.admit(cell(1))
        assert runner.started.wait(30)  # worker holds `first` at the gate
        second, _ = service.admit(cell(2))
        assert second.state == QUEUED
        drained = threading.Event()
        thread = threading.Thread(
            target=lambda: (service.drain(timeout=30), drained.set()))
        thread.start()
        runner.release()
        thread.join(timeout=30)
        assert drained.is_set()
        assert first.state == DONE
        assert second.state == QUEUED  # left for the next generation
        assert [job_id for job_id, _, _ in journal.load()] == [second.id]

    def test_restart_resumes_journaled_jobs_under_original_ids(
            self, tmp_path):
        journal = JobJournal(tmp_path / "journal")
        runner = GatedRunner()
        service = SimulationService(jobs=1, journal=journal,
                                    runner=runner)
        service.start()
        held, _ = service.admit(cell(1))
        assert runner.started.wait(30)
        queued, _ = service.admit(cell(2))
        service.drain(timeout=0.2)  # held job is gated: drain times out
        runner.release()
        assert service.drain(timeout=30)

        second_runner = GatedRunner()
        second_runner.release()
        reborn = SimulationService(jobs=1, journal=journal,
                                   runner=second_runner)
        assert reborn.start() == 1
        job = reborn.queue.get(queued.id)  # original id survived
        assert job.wait(timeout=30) and job.state == DONE
        assert reborn.registry.get("serve.jobs_resumed").value == 1
        assert journal.load() == []
        reborn.drain(timeout=30)

    def test_replayed_duplicate_entry_is_forgotten(self, tmp_path):
        journal = JobJournal(tmp_path / "journal")
        job, _ = JobQueue().submit(cell(1))
        journal.record(job)
        duplicate = json.loads(journal.path_for(job.id).read_text())
        duplicate["id"] = "zz-duplicate"
        journal.path_for("zz-duplicate").write_text(json.dumps(duplicate))

        runner = GatedRunner()
        runner.release()
        service = SimulationService(jobs=1, journal=journal,
                                    runner=runner)
        assert service.start() == 1  # the copy coalesced into the job
        assert service.queue.get(job.id).wait(timeout=30)
        assert service.drain(timeout=30)
        assert runner.calls == 1
        assert list(journal.root.glob("*.json")) == []

    def test_snapshot_omits_quantiles_until_first_completion(self):
        runner = GatedRunner()
        runner.release()
        service = SimulationService(jobs=1, runner=runner)
        service.start()
        try:
            snapshot = service.metrics_snapshot()
            for suffix in ("_p50", "_p95", "_p99"):
                assert "serve.service_latency_ns" + suffix not in snapshot
            job, _ = service.admit(cell(1))
            assert job.wait(timeout=30)
            snapshot = service.metrics_snapshot()
            for suffix in ("_p50", "_p95", "_p99"):
                assert snapshot["serve.service_latency_ns" + suffix] > 0
        finally:
            service.drain(timeout=30)

    def test_runner_crash_becomes_failed_run(self):
        def exploding(cell):
            raise RuntimeError("boom")

        service = SimulationService(jobs=1, runner=exploding)
        service.start()
        job, _ = service.admit(cell(1))
        assert job.wait(timeout=30)
        assert job.state == FAILED
        assert isinstance(job.result, FailedRun)
        assert job.result.error_type == "RuntimeError"
        service.drain(timeout=30)

    def test_thread_mode_restart_restores_attempts_from_journal(
            self, tmp_path):
        journal = JobJournal(tmp_path / "journal")
        runner = GatedRunner()
        crashed = SimulationService(jobs=1, journal=journal,
                                    runner=runner)
        crashed.start()
        held, _ = crashed.admit(cell(1))
        assert runner.started.wait(30)  # leased, mid-job
        assert [(job_id, attempts)
                for job_id, _, attempts in journal.load()] == [(held.id, 1)]

        # The next generation boots over the same journal while the
        # first still holds the job, as after a daemon crash.
        reborn_runner = GatedRunner()
        reborn = SimulationService(jobs=1, journal=journal,
                                   runner=reborn_runner)
        try:
            assert reborn.start() == 1
            assert reborn_runner.started.wait(30)
            job = reborn.queue.get(held.id)
            assert job.attempts == 2  # the restored strike + this lease
            assert [(job_id, attempts) for job_id, _, attempts
                    in journal.load()] == [(held.id, 2)]
            reborn_runner.release()
            assert job.wait(timeout=30) and job.state == DONE
            assert journal.load() == []
        finally:
            reborn_runner.release()
            reborn.drain(timeout=30)
            runner.release()
            crashed.drain(timeout=30)

    def test_in_process_slots_report_zero_heartbeat_age(self):
        import time

        runner = GatedRunner()
        service = SimulationService(jobs=2, runner=runner)
        service.start()
        try:
            service.admit(cell(1))
            service.admit(cell(2))
            deadline = time.monotonic() + 30
            while runner.calls < 2:  # both slots hold a job
                assert time.monotonic() < deadline
                time.sleep(0.01)
            snapshot = service.metrics_snapshot()
            for slot in ("0", "1"):
                labels = f'{{worker="{slot}"}}'
                assert snapshot[
                    "serve.worker.heartbeat_age_seconds" + labels] == 0
                assert snapshot["serve.worker.inflight" + labels] == 1
                assert snapshot["serve.worker.leases" + labels] == 1
        finally:
            runner.release()
            service.drain(timeout=30)

    def test_health_reports_thread_mode_and_live_workers(self):
        service = SimulationService(
            jobs=2, runner=lambda c: (SimStats(), False))
        service.start()
        try:
            job, _ = service.admit(cell(1))
            assert job.wait(timeout=30)
            health = service.health()
            assert health["worker_mode"] == "thread"
            # Slots fill on their first lease.
            assert health["workers_alive"] == 1
            assert health["worker_restarts"] == 0
            assert health["max_attempts"] == 3
        finally:
            service.drain(timeout=30)


class TestJournalIsTheOnlyJobRecord:
    def test_no_entry_outlives_its_job(self, tmp_path):
        # An instant runner finishes a job as soon as a worker takes
        # it; an entry written after the job became takeable could land
        # after the job's terminal forget and be owed forever.  More
        # slots than cores and a short switch interval make the
        # interleavings (and a lost update of the running count) likely.
        journal = JobJournal(tmp_path / "journal")
        service = SimulationService(
            jobs=4, queue_limit=512, journal=journal,
            runner=lambda job_cell: (SimStats(), False))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            service.start()
            jobs = [service.admit(cell(seed))[0] for seed in range(500)]
            assert all(job.wait(timeout=60) for job in jobs)
        finally:
            sys.setswitchinterval(interval)
            assert service.drain(timeout=60)
        assert all(job.is_terminal for job in jobs)
        assert service.queue.running == 0
        owed = sorted(path.stem for path in journal.root.glob("*.json"))
        assert owed == []

    def test_revoked_strike_survives_a_restart(self, tmp_path):
        from tests.test_transitions import (
            FLAKY,
            _runner,
            scripted_worker,
            shard_cell,
        )

        journal = JobJournal(tmp_path / "journal")
        with scripted_worker() as worker:
            crashed = SimulationService(
                jobs=1, journal=journal, runner=_runner(),
                fleet=FleetOptions(backoff_base=0.0))
            crashed.start()
            flaky, _ = crashed.admit(shard_cell(FLAKY))
            assert worker.entered.acquire(timeout=30)
            # Stop hand-outs so the revoked job stays queued, as when
            # the daemon dies right after the revoke.
            crashed.queue.close()
            worker.gate.release()  # the worker crashes
            assert crashed.drain(timeout=30)
            assert flaky.state == QUEUED and flaky.attempts == 1

        runner = GatedRunner()
        events = ServeEventLog(tmp_path / "servelog")
        reborn = SimulationService(jobs=1, journal=journal,
                                   runner=runner, events=events)
        try:
            assert reborn.start() == 1
            assert runner.started.wait(30)
            [resumed] = [event for event in ServeEventLog.read(
                tmp_path / "servelog") if event["kind"] == "resumed"]
            assert resumed["job"] == flaky.id
            assert resumed["attempt"] == 1
            assert reborn.queue.get(flaky.id).attempts == 2
        finally:
            runner.release()
            reborn.drain(timeout=30)

    def test_journal_with_old_lease_dir_still_boots(self, tmp_path):
        # Older versions kept attempt counts in worker-<i>/ lease files
        # next to the entries; the entry replays, the lease dir is
        # neither read nor removed.
        golden = pathlib.Path(__file__).parent / "data" / "forms" \
            / "journal.json"
        entry = json.loads(golden.read_text())
        journal = JobJournal(tmp_path / "journal")
        journal.root.mkdir(parents=True)
        shutil.copy(golden, journal.path_for(entry["id"]))
        lease = journal.root / "worker-0" / f"{entry['id']}.json"
        lease.parent.mkdir()
        lease.write_text(json.dumps(
            {"attempt": 2, "format": 1, "id": entry["id"],
             "key": "0" * 64, "seq": entry["seq"], "worker": 0},
            sort_keys=True))
        lease_bytes = lease.read_bytes()
        runner = GatedRunner()
        runner.release()
        service = SimulationService(jobs=1, journal=journal,
                                    runner=runner)
        try:
            assert service.start() == 1
            job = service.queue.get(entry["id"])
            assert job.wait(timeout=30) and job.state == DONE
            assert job.attempts == 1
        finally:
            service.drain(timeout=30)
        assert journal.load() == [] and journal.quarantined == 0
        assert lease.read_bytes() == lease_bytes


@pytest.fixture()
def http_service(tmp_path):
    """A gated-runner service behind a real HTTP server."""
    runner = GatedRunner()
    journal = JobJournal(tmp_path / "journal")
    service = SimulationService(jobs=1, queue_limit=1, journal=journal,
                                runner=runner)
    service.start()
    server = shard_server(service)
    server.start_background()
    # Fail-fast client: backpressure tests want to see the raw 429.
    client = ServeClient(port=server.port, timeout=10.0,
                         backpressure_retries=0)
    try:
        yield service, runner, client
    finally:
        runner.release()
        server.shutdown(timeout=30)
        server.close()


@pytest.mark.serve
class TestHttpApi:
    def test_healthz_and_unknown_routes(self, http_service):
        _, _, client = http_service
        health = client.healthz()
        assert health["status"] == "ok" and health["workers"] == 1
        with pytest.raises(ServeClientError) as excinfo:
            client.status("missing")
        assert excinfo.value.status == 404
        with pytest.raises(ServeClientError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_invalid_spec_is_400(self, http_service):
        _, _, client = http_service
        with pytest.raises(ServeClientError) as excinfo:
            client.submit("not-a-workload")
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error"]["type"] == \
            "InvalidJobError"

    def test_backpressure_coalescing_and_cancel(self, http_service):
        service, runner, client = http_service
        spec = {"name": "hotspot", "scale": SCALE}
        held = client.submit(spec, seed=1)  # occupies the worker
        assert runner.started.wait(30)
        queued = client.submit(spec, seed=2)  # fills the 1-slot queue
        assert queued["state"] == "queued"

        # Identical submission coalesces instead of queueing...
        again = client.submit(spec, seed=2)
        assert again["id"] == queued["id"] and again["coalesced"]

        # ...a distinct one is pushed back with 429 + Retry-After.
        with pytest.raises(BackpressureError) as excinfo:
            client.submit(spec, seed=3)
        assert excinfo.value.retry_after >= 1
        metrics = client.metrics()
        assert metrics["serve.jobs_rejected_backpressure"] == 1
        assert metrics["serve.jobs_coalesced"] == 1

        # Retry knobs are validated at construction.
        with pytest.raises(ServeClientError):
            ServeClient(backpressure_retries=-1)
        with pytest.raises(ServeClientError):
            ServeClient(retry_after_cap=0.0)

        # Result of a non-terminal job is a 409.
        with pytest.raises(ServeClientError) as excinfo:
            client.result(queued["id"])
        assert excinfo.value.status == 409

        # Cancel the queued job; the running one refuses.
        assert client.cancel(queued["id"])["state"] == "cancelled"
        assert client.wait(queued["id"], timeout=5)["result"]["kind"] \
            == "cancelled"
        with pytest.raises(ServeClientError) as excinfo:
            client.cancel(held["id"])
        assert excinfo.value.status == 409

        runner.release()
        done = client.wait(held["id"], timeout=30)
        assert done["state"] == "done"
        assert {job["id"] for job in client.jobs()} == \
            {held["id"], queued["id"]}

    def test_submit_retries_through_backpressure(self, http_service):
        """A patient client rides out 429s via the Retry-After hint."""
        service, runner, client = http_service
        spec = {"name": "hotspot", "scale": SCALE}
        client.submit(spec, seed=1)  # occupies the worker
        assert runner.started.wait(30)
        client.submit(spec, seed=2)  # fills the 1-slot queue

        # Budget exhausted while the queue stays full: the last 429
        # surfaces, and the server saw retries + 1 attempts.
        impatient = ServeClient(port=client.port, timeout=10.0,
                                backpressure_retries=2,
                                retry_after_cap=0.01)
        with pytest.raises(BackpressureError):
            impatient.submit(spec, seed=3)
        assert client.metrics()[
            "serve.jobs_rejected_backpressure"] == 3

        # A slot frees up mid-retry-loop: submit succeeds instead of
        # raising on the first 429.
        patient = ServeClient(port=client.port, timeout=10.0,
                              backpressure_retries=50,
                              retry_after_cap=0.05)
        releaser = threading.Timer(0.1, runner.release)
        releaser.start()
        try:
            accepted = patient.submit(spec, seed=3)
        finally:
            releaser.cancel()
        assert accepted["state"] in ("queued", "running", "done")
        done = client.wait(accepted["id"], timeout=30)
        assert done["state"] == "done"

    def test_prom_exposition_parses_and_unknown_format_is_400(
            self, http_service):
        from repro.obs import parse_prometheus_text

        _, _, client = http_service
        samples = parse_prometheus_text(client.metrics_prom())
        assert samples["serve_jobs_submitted"] == 0
        assert samples["serve_service_latency_ns_count"] == 0
        with pytest.raises(ServeClientError) as excinfo:
            client._request_text("/v1/metrics?format=xml")
        assert excinfo.value.status == 400

    def test_trace_endpoint_404_when_tracing_disabled(
            self, http_service):
        _, _, client = http_service
        with pytest.raises(ServeClientError) as excinfo:
            client.trace()
        assert excinfo.value.status == 404
        assert "--service-trace" in str(excinfo.value)

    def test_submit_during_drain_is_503(self, http_service, raw_http):
        service, runner, client = http_service
        runner.release()
        service.drain(timeout=30)
        with pytest.raises(ServeClientError) as excinfo:
            client.submit({"name": "hotspot", "scale": SCALE})
        assert excinfo.value.status == 503
        assert client.healthz()["status"] == "draining"
        status, headers, body = raw_http(
            client.port, "POST", "/v1/jobs",
            {"workload": {"name": "hotspot", "scale": SCALE}})
        assert status == 503
        assert headers["Retry-After"] == "5"
        assert json.loads(body)["error"]["type"] == "JobStateError"

    def test_wire_errors_are_pinned(self, http_service, raw_http):
        _, _, client = http_service
        for method, path, code, kind, message in (
                ("GET", "/nope", 404, "JobNotFoundError",
                 "no such route: /nope"),
                ("DELETE", "/v1/healthz", 404, "JobNotFoundError",
                 "no such route: DELETE /v1/healthz"),
                ("GET", "/v1/metrics?format=xml", 400, "InvalidJobError",
                 "unknown metrics format 'xml'; expected json, prom, "
                 "or state"),
                ("POST", "/v1/steal", 400, "InvalidJobError",
                 "request body must be JSON"),
                ("GET", "/v1/jobs/nope/result", 404, "JobNotFoundError",
                 "no such job: nope")):
            status, headers, body = raw_http(client.port, method, path)
            assert status == code, path
            assert headers["Content-Type"] == "application/json"
            assert body == json.dumps(
                {"error": {"type": kind, "message": message}},
                sort_keys=True).encode("utf-8")


@pytest.mark.serve
class TestObservabilityHttp:
    """Event log + tracer wired through a live HTTP daemon."""

    def test_traced_lifecycle_over_http(self, tmp_path):
        from repro.obs import validate_chrome_trace
        from repro.serve import ServeEventLog, ServiceTracer

        events = ServeEventLog(tmp_path / "servelog")
        service = SimulationService(
            jobs=1, runner=lambda c: (SimStats(), False),
            events=events, tracer=ServiceTracer(workers=1))
        service.start()
        server = shard_server(service)
        server.start_background()
        client = ServeClient(port=server.port, timeout=10.0)
        try:
            job = client.submit({"name": "hotspot", "scale": SCALE},
                                seed=1)
            assert client.wait(job["id"], timeout=30)["state"] == "done"
            trace = client.trace()
            validate_chrome_trace(trace)
            names = {e.get("name") for e in trace["traceEvents"]}
            assert {"queued", "attempt-1", "executing", "cache_miss",
                    "terminal:done"} <= names
            assert ServeEventLog.scan(tmp_path / "servelog") == []
            kinds = [e["kind"]
                     for e in ServeEventLog.read(tmp_path / "servelog")]
            assert kinds[0] == "submitted"
            assert {"leased", "executing", "cache_miss",
                    "terminal"} <= set(kinds)
            correlated = {e.get("job") for e in
                          ServeEventLog.read(tmp_path / "servelog")}
            assert correlated == {job["id"]}
        finally:
            server.shutdown(timeout=30)
            server.close()


@pytest.mark.serve
class TestEndToEndSimulation:
    """Real simulations through the full HTTP + cache stack."""

    @staticmethod
    def _serve(cache, journal_dir):
        executed = []

        def counting_runner(target_cell):
            result, hit = execute_cell(target_cell, cache=cache)
            if not hit:
                executed.append(target_cell.cache_key())
            return result, hit

        service = SimulationService(jobs=2, queue_limit=8,
                                    journal=JobJournal(journal_dir),
                                    runner=counting_runner)
        service.start()
        server = shard_server(service)
        server.start_background()
        return service, server, executed

    def test_lifecycle_cache_reuse_and_parity(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        service, server, executed = self._serve(
            cache, tmp_path / "journal")
        client = ServeClient(port=server.port)
        try:
            target = cell(0)
            job = client.submit(target.workload_spec,
                                config=target.config.to_dict())
            outcome = client.wait(job["id"], timeout=120)
            assert outcome["state"] == "done"
            assert outcome["cache_hit"] is False
            served = decode_result(outcome["result"])

            # Byte-identical to the same cell executed in-process.
            direct, hit = execute_cell(cell(0))
            assert not hit
            assert served == direct

            # Resubmit: cache hit, zero additional simulations.
            again = client.submit(target.workload_spec,
                                  config=target.config.to_dict())
            assert again["id"] != job["id"]
            repeat = client.wait(again["id"], timeout=30)
            assert repeat["cache_hit"] is True
            assert decode_result(repeat["result"]) == direct
            assert len(executed) == 1

            metrics = client.metrics()
            assert metrics["serve.cache_hits"] == 1
            assert metrics["serve.cache_misses"] == 1
            assert metrics["serve.jobs_done"] == 2
            assert metrics["serve.service_latency_ns_count"] == 2
            assert metrics["serve.service_latency_ns_p99"] >= \
                metrics["serve.service_latency_ns_p95"] >= \
                metrics["serve.service_latency_ns_p50"] > 0
        finally:
            server.shutdown(timeout=60)
            server.close()

    def test_simulation_fault_is_failed_run_not_500(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        service, server, _ = self._serve(cache, tmp_path / "journal")
        client = ServeClient(port=server.port)
        try:
            bad = SweepCell(
                workload_spec={"name": "hotspot", "scale": SCALE},
                config=SimulatorConfig(
                    prefetcher="tbn", eviction="lru4k",
                    fault_profile={"transfer_fault_rate": 1.0,
                                   "max_retries": 1,
                                   "degrade_after_failures": 0,
                                   "seed": 0},
                ),
            )
            job = client.submit(bad.workload_spec,
                                config=bad.config.to_dict())
            outcome = client.wait(job["id"], timeout=120)
            assert outcome["state"] == "failed"
            failed = decode_result(outcome["result"])
            assert isinstance(failed, FailedRun)
        finally:
            server.shutdown(timeout=60)
            server.close()


@pytest.mark.serve
class TestCliServeSubmit:
    """`repro serve` and `repro submit` as users run them: served stats
    are byte-identical to `repro run --json`, a repeat is a cache hit,
    and SIGTERM drains the daemon cleanly."""

    CELL = ("hotspot", "--scale", str(SCALE), "--preset",
            "paper-tbne-110", "--seed", "0")

    def test_submit_matches_run_then_hits_cache_then_drains(
            self, tmp_path, repro_cli, serve_daemon):
        daemon = serve_daemon(
            "--jobs", "1", "--cache-dir", str(tmp_path / "runcache"),
            "--journal-dir", str(tmp_path / "journal"),
            "--events-dir", str(tmp_path / "servelog"))
        local = repro_cli("run", *self.CELL, "--json")
        assert local.returncode == 0, local.stderr
        port = ("--port", str(daemon.port))
        cold = repro_cli("submit", *self.CELL, *port)
        warm = repro_cli("submit", *self.CELL, *port)
        for submitted in (cold, warm):
            assert submitted.returncode == 0, submitted.stderr
            assert submitted.stdout == local.stdout
        assert "cache_hit: false" in cold.stderr
        assert "cache_hit: true" in warm.stderr

        assert daemon.terminate() == 0, daemon.stderr()
        assert re.search(r"^\[serve\] drained", daemon.stderr(),
                         re.MULTILINE), daemon.stderr()


@pytest.mark.serve
class TestSigtermDrain:
    """A real SIGTERM with jobs in flight AND queued: the in-flight job
    reaches a terminal state, the queued one stays journaled, and the
    next server generation replays it under its original id."""

    def test_sigterm_drains_in_flight_and_preserves_queued(
            self, tmp_path):
        import signal as signal_module
        import time

        journal = JobJournal(tmp_path / "journal")
        runner = GatedRunner()
        service = SimulationService(jobs=1, queue_limit=8,
                                    journal=journal, runner=runner)
        service.start()
        server = shard_server(service)
        server.start_background()
        previous_term = signal_module.getsignal(signal_module.SIGTERM)
        previous_int = signal_module.getsignal(signal_module.SIGINT)
        server.install_signal_handlers()
        try:
            held, _ = service.admit(cell(1))
            assert runner.started.wait(30)  # worker holds `held`
            queued, _ = service.admit(cell(2))
            assert queued.state == QUEUED

            signal_module.raise_signal(signal_module.SIGTERM)
            # The handler spawns the drain off the signal frame; give
            # the drain thread its job, then let the held job finish.
            deadline = time.monotonic() + 30
            while not service.draining:
                assert time.monotonic() < deadline, "drain never began"
                time.sleep(0.01)
            runner.release()
            assert held.wait(timeout=30)
            assert held.state == DONE
            while any(t.name == "serve-drain" and t.is_alive()
                      for t in threading.enumerate()):
                assert time.monotonic() < deadline, "drain never ended"
                time.sleep(0.01)

            # Queued job survived: still queued, still journaled.
            assert queued.state == QUEUED
            assert [job_id for job_id, _, _ in journal.load()] == \
                [queued.id]

            # Next generation replays it under the original id.
            reborn_runner = GatedRunner()
            reborn_runner.release()
            reborn = SimulationService(jobs=1, journal=journal,
                                       runner=reborn_runner)
            assert reborn.start() == 1
            replayed = reborn.queue.get(queued.id)
            assert replayed.wait(timeout=30)
            assert replayed.state == DONE
            assert journal.load() == []
            reborn.drain(timeout=30)
        finally:
            signal_module.signal(signal_module.SIGTERM, previous_term)
            signal_module.signal(signal_module.SIGINT, previous_int)
            runner.release()
            server.close()
