"""Tests for ``repro loadgen`` and ``repro top`` (`repro.loadgen`).

Unmarked tests are pure unit tests of the seeded plan (arrival
schedules, zipf mix, catalog), the report shape and its byte-stability
contract, the ``top`` renderer, and the server-address checks
``repro loadgen``/``top``/``jobs`` make before their first connection —
they run in the tier-1 suite.
The ``serve``-marked classes run real load against live daemons: a
thread-mode fast path for the report plumbing, and the determinism
pair — two same-seed ``pattern="unique"`` runs against fresh 2-worker
*process* daemons must produce byte-identical canonical event logs and
merged traces, and instrumented served results must equal a plain
in-process execution of the same cells.  One more drives `repro serve`,
`repro loadgen` and `repro top` as subprocesses, cold then warm.
"""

import json
import re
import socket

import pytest

from repro.cli import main
from repro.errors import ConfigurationError, ReproError, ServeClientError
from repro.loadgen import (
    BENCH_FORMAT,
    LoadgenPlan,
    VOLATILE_REPORT_FIELDS,
    _Submission,
    _worker_rows,
    build_report,
    render_top,
    report_to_json,
    run_loadgen,
    stable_report_fields,
    summarize_report,
)
from repro.stats import SimStats


def plan(**overrides) -> LoadgenPlan:
    defaults = {"seed": 7, "duration": 5.0, "rate": 4.0, "distinct": 8}
    defaults.update(overrides)
    return LoadgenPlan(**defaults)


class TestLoadgenPlan:
    def test_validate_rejections(self):
        for bad in (
            {"duration": 0.0},
            {"rate": -1.0},
            {"distinct": 0},
            {"concurrency": 0},
            {"zipf_s": -0.1},
            {"pattern": "burst"},
        ):
            with pytest.raises(ReproError):
                plan(**bad).validate()
        plan().validate()

    def test_schedule_is_a_pure_function_of_the_seed(self):
        assert plan(seed=7).arrivals() == plan(seed=7).arrivals()
        assert plan(seed=7).arrivals() != plan(seed=8).arrivals()

    def test_open_loop_timing_and_count(self):
        schedule = plan(rate=4.0, duration=5.0).arrivals()
        assert len(schedule) == 20
        assert [at for _, at, _ in schedule] == \
            [index / 4.0 for index in range(20)]

    def test_zipf_mix_is_skewed_toward_rank_zero(self):
        hot = plan(duration=100.0, rate=4.0, zipf_s=1.1)
        counts = hot.rank_arrival_counts()
        assert counts[0] == max(counts.values())
        assert counts[0] > counts.get(hot.distinct - 1, 0)
        weights = hot.weights()
        assert abs(sum(weights) - 1.0) < 1e-12
        assert weights == sorted(weights, reverse=True)

    def test_unique_pattern_is_round_robin(self):
        schedule = plan(pattern="unique", distinct=3, rate=2.0,
                        duration=3.0).arrivals()
        assert [rank for _, _, rank in schedule] == [0, 1, 2, 0, 1, 2]

    def test_catalog_derives_distinct_seeds(self):
        specs = plan(seed=7, prefetcher="tbn", eviction="lru4k").catalog()
        assert [spec["seed"] for spec in specs] == \
            [7000 + rank for rank in range(8)]
        assert all(spec["config"] == {"prefetcher": "tbn",
                                      "eviction": "lru4k"}
                   for spec in specs)
        bare = plan().catalog()[0]
        assert bare["config"] == {}


class TestReportContract:
    @staticmethod
    def _report(test_plan=None):
        test_plan = test_plan or plan(duration=1.0, rate=2.0)
        submissions = [
            _Submission(index=0, rank=0, job_id="j1", submitted_at=0.0,
                        coalesced=False, latency=0.10, state="done",
                        cache_hit=False),
            _Submission(index=1, rank=0, job_id="j1", submitted_at=0.5,
                        coalesced=True, latency=0.05, state="done",
                        cache_hit=False),
        ]
        before = {"serve.cache_hits": 0, "serve.cache_misses": 0}
        after = {"serve.cache_hits": 3, "serve.cache_misses": 1}
        return build_report(
            test_plan, {"worker_mode": "process", "workers": 2},
            submissions, rejected=1, submit_errors=0, elapsed=1.0,
            metrics_before=before, metrics_after=after)

    def test_shape_and_measured_values(self):
        report = self._report()
        assert report["format"] == BENCH_FORMAT
        assert report["volatile"] == list(VOLATILE_REPORT_FIELDS)
        measured = report["measured"]
        assert measured["accepted"] == 2
        assert measured["rejected_backpressure"] == 1
        assert measured["coalesce_rate"] == 0.5
        assert measured["cache_hit_rate"] == 0.75
        assert measured["latency_seconds"]["p50"] == 0.05
        assert measured["latency_seconds"]["p99"] == 0.10
        assert measured["server"]["worker_mode"] == "process"

    def test_stable_fields_drop_exactly_the_volatile_block(self):
        report = self._report()
        stable = stable_report_fields(report)
        assert "measured" not in stable
        assert set(report) - set(stable) == {"measured"}

    def test_stable_fields_are_byte_identical_across_runs(self):
        first, second = self._report(), self._report()
        second["measured"]["elapsed_seconds"] = 99.0  # wall clock moved
        assert json.dumps(stable_report_fields(first), sort_keys=True) \
            == json.dumps(stable_report_fields(second), sort_keys=True)
        assert report_to_json(first) != report_to_json(second)

    def test_summary_mentions_the_headline_numbers(self):
        text = summarize_report(self._report())
        assert "seed=7" in text and "hit rate 0.75" in text
        assert "p50" in text and "p99" in text

    def test_empty_run_has_no_quantiles(self):
        report = build_report(
            plan(), {}, [], rejected=0, submit_errors=0, elapsed=1.0,
            metrics_before={}, metrics_after={})
        latency = report["measured"]["latency_seconds"]
        assert latency == {"count": 0}
        assert report["measured"]["throughput_jobs_per_second"] == 0.0
        assert "-" in summarize_report(report)  # rendered, not crashed


class TestTopRenderer:
    METRICS = {
        "serve.queue_depth": 2.0,
        "serve.running_jobs": 1.0,
        "serve.jobs_submitted": 10,
        "serve.jobs_done": 7,
        "serve.cache_hits": 6,
        "serve.cache_misses": 2,
        "serve.service_latency_ns_count": 8,
        "serve.service_latency_ns_p50": 5e8,
        "serve.service_latency_ns_p95": 2e9,
        "serve.service_latency_ns_p99": 3e9,
        'serve.worker.inflight{worker="0"}': 1.0,
        'serve.worker.inflight{worker="0"}_min': 0.0,  # filtered out
        'serve.worker.inflight{worker="0"}_max': 1.0,  # filtered out
        'serve.worker.leases{worker="0"}': 4,
        'serve.worker.restarts{worker="0"}': 0,
        'serve.worker.heartbeat_age_seconds{worker="0"}': 0.3,
        'serve.worker.inflight{worker="1"}': 0.0,
        'serve.worker.leases{worker="1"}': 3,
    }

    def test_worker_rows_keep_live_values_only(self):
        rows = _worker_rows(self.METRICS)
        assert [row["worker"] for row in rows] == [0, 1]
        assert rows[0] == {"worker": 0, "inflight": 1.0, "leases": 4,
                           "restarts": 0, "heartbeat_age_seconds": 0.3}

    def test_render_top_frame(self):
        health = {"status": "ok", "worker_mode": "process",
                  "workers": 2, "queue_limit": 64, "version": "1"}
        frame = render_top(health, self.METRICS, port=8077)
        assert "status ok, mode process" in frame
        assert "queue: depth 2" in frame
        assert "hit rate 0.75" in frame
        assert "p50 500.0ms" in frame and "p95 2.00s" in frame
        assert "worker  inflight  leases  restarts  heartbeat" in frame

    def test_render_top_without_quantiles_or_workers(self):
        frame = render_top({"status": "ok"}, {"serve.jobs_done": 0})
        assert "p50 -" in frame and "p99 -" in frame
        assert "worker  inflight" not in frame


class TestCliAddressChecks:
    """Bad server addresses fail before any connection is tried."""

    @pytest.fixture()
    def no_connections(self, monkeypatch):
        attempts = []

        def refuse(address, *args, **kwargs):
            attempts.append(address)
            raise AssertionError(f"connection attempted to {address}")

        monkeypatch.setattr(socket, "create_connection", refuse)
        return attempts

    @staticmethod
    def closed_port() -> int:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            return probe.getsockname()[1]

    def test_cluster_with_trace_out_rejected_before_any_connection(
            self, tmp_path, no_connections):
        url = f"http://127.0.0.1:{self.closed_port()}"
        with pytest.raises(ConfigurationError, match="--trace-out"):
            main(["loadgen", "--cluster", url, "--duration", "1",
                  "--trace-out", str(tmp_path / "trace.json"),
                  "--out", str(tmp_path / "report.json")])
        assert no_connections == []
        assert not (tmp_path / "report.json").exists()

    def test_cluster_with_trace_out_exits_2_with_one_error_line(
            self, tmp_path, repro_cli):
        url = f"http://127.0.0.1:{self.closed_port()}"
        result = repro_cli("loadgen", "--cluster", url,
                           "--trace-out", str(tmp_path / "trace.json"))
        assert result.returncode == 2
        assert result.stderr.startswith("repro: error: --trace-out")
        assert len(result.stderr.splitlines()) == 1

    @pytest.mark.parametrize("cluster", [False, True])
    @pytest.mark.parametrize("command", ["top", "jobs"])
    @pytest.mark.parametrize("endpoint", [
        "nohost", "127.0.0.1", "127.0.0.1:port", ":8077", "h:-1",
        "https://127.0.0.1:8077", "http://127.0.0.1",
    ])
    def test_malformed_endpoint_rejected(self, command, endpoint,
                                         cluster, no_connections):
        argv = [command, "--endpoint", endpoint]
        if cluster:
            argv += ["--cluster", f"127.0.0.1:{self.closed_port()}"]
        with pytest.raises(ServeClientError, match="server URL"):
            main(argv)
        assert no_connections == []


# ----------------------------------------------------------------- end to end

def _serve_http(service):
    from repro.serve import shard_server

    service.start()
    server = shard_server(service)
    server.start_background()
    return server


@pytest.mark.serve
class TestLoadgenAgainstThreadDaemon:
    """Fast end-to-end plumbing check with an instant fake runner."""

    def test_report_reflects_live_run(self, tmp_path):
        from repro.serve import SimulationService

        service = SimulationService(
            jobs=2, queue_limit=64,
            runner=lambda cell: (SimStats(), False))
        server = _serve_http(service)
        try:
            test_plan = plan(duration=1.0, rate=8.0, concurrency=4,
                             timeout=30.0)
            report = run_loadgen(test_plan, port=server.port)
            measured = report["measured"]
            assert measured["accepted"] == 8
            assert measured["completed"] == 8
            assert measured["failed_jobs"] == 0
            assert measured["wait_errors"] == 0
            assert measured["latency_seconds"]["p99"] >= \
                measured["latency_seconds"]["p50"] > 0
            assert measured["server_delta"]["jobs_done"] == 8
            assert report["plan"] == test_plan.to_dict()
        finally:
            server.shutdown(timeout=30)
            server.close()

    def test_unreachable_daemon_raises_up_front(self):
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        with pytest.raises(ServeClientError):
            run_loadgen(plan(duration=0.5, rate=2.0), port=free_port)


@pytest.mark.serve
class TestServiceObservabilityDeterminism:
    """The tentpole's determinism contract, end to end: two same-seed
    ``pattern="unique"`` runs against fresh 2-worker process daemons
    agree byte for byte on the canonical event log and canonical merged
    trace, the merged trace validates with every lifecycle transition
    present, and the instrumented served results equal a plain
    uninstrumented in-process execution of the same cells."""

    PLAN = dict(seed=7, duration=1.5, rate=2.0, distinct=3,
                pattern="unique", scale=0.05, concurrency=4,
                timeout=120.0)

    def _run_once(self, tmp_path, tag):
        from repro.serve import (
            JobJournal,
            ServeEventLog,
            ServiceTracer,
            SimulationService,
        )
        from repro.sweep import RunCache

        root = tmp_path / tag
        events = ServeEventLog(root / "servelog")
        tracer = ServiceTracer(workers=2)
        service = SimulationService(
            jobs=2, queue_limit=64,
            cache=RunCache(root / "cache"),
            journal=JobJournal(root / "journal"),
            worker_mode="process", events=events, tracer=tracer)
        server = _serve_http(service)
        try:
            report = run_loadgen(plan(**self.PLAN), port=server.port)
            client_jobs = service.queue.jobs()
            results = {job.cell.cache_key(): job.result
                       for job in client_jobs}
        finally:
            server.shutdown(timeout=60)
            server.close()
        return report, ServeEventLog.read(root / "servelog"), \
            tracer.trace_dict(), results

    def test_same_seed_runs_agree_modulo_volatile_fields(self, tmp_path):
        from repro.obs import validate_chrome_trace
        from repro.serve import (
            canonical_event_lines,
            canonical_trace_lines,
        )
        from repro.serve.api import build_cell
        from repro.sweep import execute_cell

        first = self._run_once(tmp_path, "a")
        second = self._run_once(tmp_path, "b")

        # Reports: byte-identical outside the declared volatile block.
        assert report_to_json(stable_report_fields(first[0])) == \
            report_to_json(stable_report_fields(second[0]))
        for report, _, _, _ in (first, second):
            measured = report["measured"]
            assert measured["completed"] == 3
            assert measured["failed_jobs"] == 0
            assert measured["wait_errors"] == 0
            assert measured["cache_hit_rate"] == 0.0  # cold + unique

        # Event logs: byte-identical canonical form, and every
        # lifecycle transition of a clean run present.
        for _, events, _, _ in (first, second):
            assert events, "event log is empty"
        assert canonical_event_lines(first[1]) == \
            canonical_event_lines(second[1])
        kinds = {event["kind"] for event in first[1]}
        assert {"submitted", "journaled", "leased", "executing",
                "cache_miss", "terminal"} <= kinds

        # Merged traces: valid Chrome traces, byte-identical canonical
        # form, one span/instant per transition.
        for _, _, trace, _ in (first, second):
            validate_chrome_trace(trace)
            names = {event.get("name")
                     for event in trace["traceEvents"]}
            assert {"queued", "journaled", "attempt-1", "executing",
                    "cache_miss", "terminal:done"} <= names
        assert canonical_trace_lines(first[2]) == \
            canonical_trace_lines(second[2])

        # Instrumentation does not perturb results: served stats equal
        # a plain in-process execution (no service, no events, no
        # tracer) of the same cells.
        test_plan = plan(**self.PLAN)
        for spec in test_plan.catalog():
            cell = build_cell(spec)
            direct, hit = execute_cell(cell)
            assert not hit
            for results in (first[3], second[3]):
                assert results[cell.cache_key()] == direct


@pytest.mark.serve
class TestCliLoadgenAgainstProcessDaemon:
    """`repro loadgen` twice against a traced 2-worker process daemon
    booted through the CLI: the warm run is > 90% cache hits, the two
    reports agree outside the volatile block, the merged trace and the
    event log carry every lifecycle transition, the Prometheus
    endpoint has per-worker samples, `repro top` renders, and SIGTERM
    drains.  The cold report stays at ``BENCH_serve.json`` in the
    test's tmp dir, where CI picks it up from pytest's ``--basetemp``.
    """

    def test_cold_then_warm_run(self, tmp_path, repro_cli, serve_daemon):
        from repro.obs import parse_prometheus_text, validate_chrome_trace
        from repro.serve import ServeClient, ServeEventLog

        daemon = serve_daemon(
            "--jobs", "2", "--worker-mode", "process",
            "--cache-dir", str(tmp_path / "runcache"),
            "--journal-dir", str(tmp_path / "journal"),
            "--events-dir", str(tmp_path / "servelog"),
            "--service-trace")
        flags = ("--seed", "7", "--duration", "10", "--rate", "4",
                 "--scale", "0.08", "--port", str(daemon.port))
        cold_path = tmp_path / "BENCH_serve.json"
        warm_path = tmp_path / "BENCH_serve_warm.json"
        trace_path = tmp_path / "serve.trace.json"
        cold = repro_cli("loadgen", *flags, "--out", str(cold_path))
        assert cold.returncode == 0, cold.stderr
        warm = repro_cli("loadgen", *flags, "--out", str(warm_path),
                         "--trace-out", str(trace_path))
        assert warm.returncode == 0, warm.stderr

        cold_report = json.loads(cold_path.read_text())
        warm_report = json.loads(warm_path.read_text())
        assert warm_report["measured"]["cache_hit_rate"] > 0.9
        assert cold_report["volatile"] == ["measured"]
        assert report_to_json(stable_report_fields(cold_report)) == \
            report_to_json(stable_report_fields(warm_report))

        trace = json.loads(trace_path.read_text())
        assert validate_chrome_trace(trace) == []
        names = {event.get("name") for event in trace["traceEvents"]}
        assert {"queued", "journaled", "attempt-1", "executing",
                "cache_hit", "cache_miss", "terminal:done"} <= names

        assert ServeEventLog.scan(tmp_path / "servelog") == []
        kinds = {event["kind"]
                 for event in ServeEventLog.read(tmp_path / "servelog")}
        assert {"submitted", "journaled", "leased", "executing",
                "cache_hit", "cache_miss", "terminal"} <= kinds

        samples = parse_prometheus_text(
            ServeClient(port=daemon.port).metrics_prom())
        assert samples["serve_jobs_done"] > 0
        assert 'serve_worker_inflight{worker="0"}' in samples

        top = repro_cli("top", "--port", str(daemon.port))
        assert top.returncode == 0, top.stderr
        assert top.stdout.strip()

        assert daemon.terminate() == 0, daemon.stderr()
        assert re.search(r"^\[serve\] drained", daemon.stderr(),
                         re.MULTILINE), daemon.stderr()
