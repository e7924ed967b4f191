"""Tests for the observability subsystem (repro.obs).

The expensive double-run determinism checks carry the ``trace`` marker
(excluded from the default tier-1 run, like ``slow``); everything else is
cheap and runs by default.  Run everything, determinism checks included,
with ``PYTHONPATH=src python -m pytest tests/test_obs.py -m ""``.
"""

import json

import pytest

from repro.config import SimulatorConfig, oversubscribed
from repro.errors import ConfigurationError
from repro.obs import (
    MetricsRegistry,
    SpanTracer,
    exponential_buckets,
    run_report,
    to_chrome_json,
    to_metrics_json,
    validate_chrome_trace,
)
from repro.obs.export import chrome_trace_dict
from repro.obs.tracer import NULL_TRACER, PID_DRIVER, PID_GPU
from repro.runtime import UvmRuntime
from repro.workloads.registry import make_workload
from repro.workloads.synthetic import CyclicScanWorkload


def run_stats(trace=False, profile=None, **overrides):
    workload = make_workload("bfs", scale=0.15)
    config = oversubscribed(
        workload.footprint_bytes, 110.0,
        num_sms=4, prefetcher="tbn", eviction="tbn",
        disable_prefetch_on_oversubscription=False,
        trace=trace, fault_profile=profile, **overrides,
    )
    runtime = UvmRuntime(config)
    runtime.run_workload(workload)
    return runtime


def moderate_profile():
    from repro.experiments.extension_resilience import profile_for_rate
    return profile_for_rate(0.1, seed=0)


# --------------------------------------------------------------- metrics unit
class TestMetrics:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        gauge = registry.gauge("g")
        for v in (3.0, 1.0, 7.0):
            gauge.set(v)
        hist = registry.histogram("h", bounds=[10.0, 100.0])
        for v in (5.0, 50.0, 500.0):
            hist.observe(v)
        snap = registry.snapshot()
        assert snap["c"] == 5
        assert snap["g"] == 7.0 and snap["g_min"] == 1.0 \
            and snap["g_max"] == 7.0 and snap["g_samples"] == 3
        assert snap["h_count"] == 3 and snap["h_sum"] == 555.0
        assert snap["h_buckets"] == {"le_10": 1, "le_100": 1, "gt_100": 1}
        assert snap["h_min"] == 5.0 and snap["h_max"] == 500.0

    def test_get_or_create_and_kind_conflict(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_bound_counter_reads_lazily(self):
        registry = MetricsRegistry()
        box = {"v": 1}
        registry.bind("boxed", lambda: box["v"])
        box["v"] = 42
        assert registry.snapshot()["boxed"] == 42

    def test_exponential_buckets(self):
        assert exponential_buckets(1, 2.0, 4) == [1.0, 2.0, 4.0, 8.0]
        with pytest.raises(ValueError):
            exponential_buckets(0, 2.0, 4)


class TestLabeledInstruments:
    def test_labeled_name_round_trip(self):
        from repro.obs.metrics import (
            base_name_of,
            labeled_name,
            parse_labeled_name,
        )

        full = labeled_name("serve.worker.inflight",
                            {"worker": "1", "zone": "a"})
        assert full == 'serve.worker.inflight{worker="1",zone="a"}'
        assert base_name_of(full) == "serve.worker.inflight"
        assert parse_labeled_name(full) == \
            ("serve.worker.inflight", {"worker": "1", "zone": "a"})
        assert labeled_name("plain", None) == "plain"
        assert parse_labeled_name("plain") == ("plain", {})

    def test_label_variants_are_distinct_instruments(self):
        registry = MetricsRegistry()
        zero = registry.gauge("w.inflight", labels={"worker": "0"})
        one = registry.gauge("w.inflight", labels={"worker": "1"})
        assert zero is not one
        assert zero is registry.gauge("w.inflight",
                                      labels={"worker": "0"})
        zero.set(1)
        snap = registry.snapshot()
        assert snap['w.inflight{worker="0"}'] == 1
        assert snap['w.inflight{worker="1"}'] == 0
        assert {i.base_name for i in registry.instruments()} == \
            {"w.inflight"}


class TestPrometheusExposition:
    @staticmethod
    def _registry():
        registry = MetricsRegistry()
        registry.counter("serve.jobs_done", help="terminal ok").inc(3)
        registry.gauge("serve.queue_depth").set(2)
        for slot in (0, 1):
            registry.counter("serve.worker.leases",
                             labels={"worker": str(slot)}).inc(slot)
        hist = registry.histogram("serve.latency_ns",
                                  bounds=[10.0, 100.0])
        for value in (5.0, 50.0, 500.0):
            hist.observe(value)
        return registry

    def test_text_round_trips_through_strict_parser(self):
        from repro.obs import parse_prometheus_text, prometheus_text

        text = prometheus_text(self._registry())
        assert "# HELP serve_jobs_done terminal ok" in text
        assert "# TYPE serve_jobs_done counter" in text
        assert "# TYPE serve_latency_ns histogram" in text
        samples = parse_prometheus_text(text)
        assert samples["serve_jobs_done"] == 3
        assert samples["serve_queue_depth"] == 2
        assert samples['serve_worker_leases{worker="0"}'] == 0
        assert samples['serve_worker_leases{worker="1"}'] == 1
        assert samples['serve_latency_ns_bucket{le="10"}'] == 1
        assert samples['serve_latency_ns_bucket{le="100"}'] == 2
        assert samples['serve_latency_ns_bucket{le="+Inf"}'] == 3
        assert samples["serve_latency_ns_sum"] == 555.0
        assert samples["serve_latency_ns_count"] == 3

    def test_label_variants_share_one_family_header(self):
        from repro.obs import prometheus_text

        text = prometheus_text(self._registry())
        assert text.count("# TYPE serve_worker_leases counter") == 1

    def test_name_sanitization(self):
        from repro.obs.prom import prometheus_name

        assert prometheus_name("serve.jobs_done") == "serve_jobs_done"
        assert prometheus_name("9lives") == "_9lives"
        assert prometheus_name("a-b c") == "a_b_c"

    def test_parser_rejects_malformed_text(self):
        from repro.obs import parse_prometheus_text

        for bad in (
            "no_type_declared 1\n",
            "# TYPE x sideways\nx 1\n",
            "# TYPE x counter\nx one\n",
            '# TYPE x counter\nx{l=unquoted} 1\n',
            # Non-cumulative buckets.
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 5\nh_bucket{le="+Inf"} 3\n'
            "h_count 3\n",
            # +Inf bucket disagrees with _count.
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 1\nh_bucket{le="+Inf"} 3\n'
            "h_count 7\n",
            # +Inf bucket missing entirely.
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 1\nh_count 1\n',
        ):
            with pytest.raises(ValueError):
                parse_prometheus_text(bad)

    def test_empty_histogram_is_still_legal_exposition(self):
        from repro.obs import parse_prometheus_text, prometheus_text

        registry = MetricsRegistry()
        registry.histogram("h", bounds=[1.0])
        samples = parse_prometheus_text(prometheus_text(registry))
        assert samples['h_bucket{le="+Inf"}'] == 0
        assert samples["h_count"] == 0


class TestServeTrackLayout:
    def test_serve_layout_names_queue_and_worker_tracks(self):
        from repro.obs import serve_layout
        from repro.obs.tracer import (
            PID_SERVE,
            TID_QUEUE,
            TID_WORKER_BASE,
        )

        tracer = SpanTracer()
        serve_layout(tracer, workers=2)
        metadata = {
            (e["pid"], e.get("tid"), e["name"]): e["args"]["name"]
            for e in tracer.events() if e["ph"] == "M"
        }
        assert metadata[(PID_SERVE, 0, "process_name")] == "serve"
        assert metadata[(PID_SERVE, TID_QUEUE, "thread_name")] == \
            "job queue"
        for slot in (0, 1):
            assert metadata[
                (PID_SERVE, TID_WORKER_BASE + slot, "thread_name")
            ] == f"serve/worker-{slot}"


# ---------------------------------------------------------------- tracer unit
class TestTracer:
    def test_null_tracer_is_inert(self):
        NULL_TRACER.complete(1, 0, "x", 0.0, 1.0)
        NULL_TRACER.instant(1, 0, "x", 0.0)
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.events() == []

    def test_events_sorted_with_metadata_first(self):
        tracer = SpanTracer()
        tracer.complete(PID_GPU, 0, "late", 100.0, 200.0)
        tracer.instant(PID_GPU, 0, "early", 50.0)
        tracer.name_process(PID_GPU, "GPU")
        events = tracer.events()
        assert events[0]["ph"] == "M"
        assert [e["name"] for e in events[1:]] == ["early", "late"]

    def test_max_events_cap_counts_drops(self):
        tracer = SpanTracer(max_events=2)
        for i in range(5):
            tracer.instant(PID_DRIVER, 0, f"e{i}", float(i))
        assert len(tracer) == 2
        assert tracer.dropped_events == 3

    def test_async_span_pairs(self):
        tracer = SpanTracer()
        tracer.async_span(PID_GPU, 1, "fault", tracer.new_id(),
                          10.0, 30.0, args={"page": 7})
        trace = chrome_trace_dict(tracer)
        assert validate_chrome_trace(trace) == []
        phases = [e["ph"] for e in trace["traceEvents"]]
        assert phases == ["b", "e"]


# ------------------------------------------------------------------ validator
class TestValidator:
    def test_rejects_partial_overlap(self):
        tracer = SpanTracer()
        tracer.complete(PID_GPU, 0, "a", 0.0, 10_000.0)
        tracer.complete(PID_GPU, 0, "b", 5_000.0, 15_000.0)
        problems = validate_chrome_trace(chrome_trace_dict(tracer))
        assert any("partially overlaps" in p for p in problems)

    def test_accepts_touching_and_nested(self):
        tracer = SpanTracer()
        tracer.complete(PID_GPU, 0, "a", 0.0, 10_000.0)
        tracer.complete(PID_GPU, 0, "inner", 2_000.0, 8_000.0)
        tracer.complete(PID_GPU, 0, "next", 10_000.0, 20_000.0)
        assert validate_chrome_trace(chrome_trace_dict(tracer)) == []

    def test_rejects_unmatched_async_and_bad_phase(self):
        problems = validate_chrome_trace({"traceEvents": [
            {"name": "x", "ph": "e", "cat": "fault", "id": 1,
             "ts": 1.0, "pid": 1, "tid": 1},
            {"name": "y", "ph": "Z", "ts": 1.0, "pid": 1, "tid": 1},
        ]})
        assert any("async end without begin" in p for p in problems)
        assert any("unknown ph" in p for p in problems)

    def test_rejects_non_list(self):
        assert validate_chrome_trace({}) \
            == ["traceEvents missing or not a list"]


# ------------------------------------------------------------ engine wiring
class TestEngineWiring:
    def test_trace_emits_valid_chrome_trace(self):
        runtime = run_stats(trace=True)
        trace = chrome_trace_dict(runtime.tracer)
        assert validate_chrome_trace(trace) == []
        names = {e["name"] for e in trace["traceEvents"]}
        assert "fault_batch" in names
        assert "far_fault" in names
        assert "migrate" in names
        assert any(n.startswith("kernel:") for n in names)

    def test_batch_latency_histogram_matches_batches(self):
        runtime = run_stats()
        stats = runtime.stats
        hist = stats.metrics.get("fault_batch.service_latency_ns")
        assert hist.count == stats.fault_batches
        assert hist.sum == pytest.approx(stats.total_fault_handling_ns)

    def test_resident_gauge_sampled_on_batches(self):
        runtime = run_stats()
        gauge = runtime.stats.metrics.get("memory.resident_pages")
        assert gauge.samples == runtime.stats.fault_batches
        assert gauge.max <= runtime.simulator.frames.capacity

    def test_registry_binds_sim_counters(self):
        stats = run_stats().stats
        snap = stats.metrics.snapshot()
        assert snap["sim.far_faults"] == stats.far_faults
        assert snap["sim.pages_migrated"] == stats.pages_migrated

    def test_disabled_tracer_is_shared_null(self):
        runtime = run_stats(trace=False)
        assert runtime.tracer is NULL_TRACER
        assert runtime.simulator.driver.tracer is NULL_TRACER
        assert runtime.simulator.link.read.tracer is NULL_TRACER

    def test_metrics_json_flat_and_serializable(self):
        stats = run_stats().stats
        metrics = json.loads(to_metrics_json(stats))
        assert metrics["far_faults"] == stats.far_faults
        assert metrics["sampling.access_trace_dropped"] == 0


# ----------------------------------------------------------- sampling bounds
class TestSamplingBounds:
    def make_runtime(self, **overrides):
        workload = CyclicScanWorkload(pages=320, iterations=3)
        config = oversubscribed(
            workload.footprint_bytes, 115.0, num_sms=2,
            prefetcher="tbn", eviction="lru4k", **overrides,
        )
        runtime = UvmRuntime(config)
        runtime.run_workload(workload)
        return runtime

    def test_access_trace_stride(self):
        full = self.make_runtime(record_access_trace=True).stats
        strided = self.make_runtime(record_access_trace=True,
                                    access_trace_stride=4).stats
        assert len(strided.access_trace) \
            == (len(full.access_trace) + 3) // 4
        assert strided.access_trace[0] == full.access_trace[0]
        assert strided.access_trace_dropped == 0

    def test_access_trace_cap_counts_drops(self):
        full = self.make_runtime(record_access_trace=True).stats
        capped = self.make_runtime(record_access_trace=True,
                                   access_trace_cap=100).stats
        assert len(capped.access_trace) == 100
        assert capped.access_trace_dropped \
            == len(full.access_trace) - 100
        assert capped.access_trace == full.access_trace[:100]

    def test_timeline_stride_and_cap(self):
        full = self.make_runtime(record_timeline=True).stats
        strided = self.make_runtime(record_timeline=True,
                                    timeline_stride=2).stats
        assert len(strided.timeline) == (len(full.timeline) + 1) // 2
        capped = self.make_runtime(record_timeline=True,
                                   timeline_cap=5).stats
        assert len(capped.timeline) == 5
        assert capped.timeline_dropped == len(full.timeline) - 5

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulatorConfig(access_trace_stride=0)
        with pytest.raises(ConfigurationError):
            SimulatorConfig(timeline_cap=-1)
        with pytest.raises(ConfigurationError):
            SimulatorConfig(trace_max_events=-1)


# ------------------------------------------------------------------- report
class TestReport:
    def test_report_sections(self):
        runtime = run_stats(trace=True)
        text = run_report(runtime.stats, runtime.tracer, top=3)
        assert "stall attribution" in text
        assert "slowest fault batches" in text
        assert "fault-batch service latency" in text

    def test_report_without_tracer(self):
        stats = run_stats().stats
        text = run_report(stats)
        assert "stall attribution" in text
        assert "slowest fault batches" not in text


# -------------------------------------------------------------- resilience
class TestResilienceSurface:
    def test_degradation_times_in_resilience_dict(self):
        stats = run_stats().stats
        assert stats.resilience_dict()["degradation_times_ns"] == []

    def test_as_dict_shape_unchanged(self):
        """The classic table keys — experiments depend on this shape."""
        stats = run_stats().stats
        assert list(stats.as_dict()) == [
            "total_kernel_time_ns", "far_faults", "fault_batches",
            "pages_migrated", "pages_prefetched", "pages_evicted",
            "pages_written_back", "pages_thrashed",
            "h2d_bandwidth_gbps", "d2h_bandwidth_gbps",
            "h2d_transfers", "transfers_4kb", "tlb_hit_rate",
            "eviction_stall_ns",
        ]


# ----------------------------------------------------------------- determinism
@pytest.mark.trace
class TestTraceDeterminism:
    def test_same_seed_byte_identical_trace(self):
        a = run_stats(trace=True)
        b = run_stats(trace=True)
        assert to_chrome_json(a.tracer) == to_chrome_json(b.tracer)
        assert to_metrics_json(a.stats) == to_metrics_json(b.stats)

    def test_same_seed_byte_identical_trace_with_faults(self):
        a = run_stats(trace=True, profile=moderate_profile())
        b = run_stats(trace=True, profile=moderate_profile())
        assert a.stats.injected_faults > 0
        assert to_chrome_json(a.tracer) == to_chrome_json(b.tracer)

    def test_tracing_does_not_perturb_results(self):
        on = run_stats(trace=True).stats
        off = run_stats(trace=False).stats
        assert on.as_dict() == off.as_dict()
        assert on.kernel_times_ns == off.kernel_times_ns
        assert on.resilience_dict() == off.resilience_dict()

    def test_tracing_does_not_perturb_injected_results(self):
        on = run_stats(trace=True, profile=moderate_profile()).stats
        off = run_stats(trace=False, profile=moderate_profile()).stats
        assert on.as_dict() == off.as_dict()
        assert on.resilience_dict() == off.resilience_dict()


# ----------------------------------------------------------------------- CLI
class TestCli:
    def test_trace_command_writes_valid_artifacts(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "run.trace.json"
        assert main(["trace", "bfs", "--scale", "0.1",
                     "--oversubscription", "110", "--eviction", "tbn",
                     "-o", str(out)]) == 0
        trace = json.loads(out.read_text())
        assert validate_chrome_trace(trace) == []
        metrics = json.loads(
            (tmp_path / "run.metrics.json").read_text()
        )
        assert "fault_batch.service_latency_ns_count" in metrics
        assert "trace events" in capsys.readouterr().out

    def test_report_command(self, capsys):
        from repro.cli import main
        assert main(["report", "bfs", "--scale", "0.1",
                     "--oversubscription", "110", "--eviction", "tbn",
                     "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "stall attribution" in out
        assert "slowest fault batches" in out

    def test_report_command_with_fault_profile(self, capsys):
        from repro.cli import main
        assert main(["report", "bfs", "--scale", "0.15",
                     "--oversubscription", "110", "--prefetcher", "tbn",
                     "--eviction", "tbn", "--fault-profile", "moderate",
                     "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "retry backoff" in out
        assert "injected perturbations:" in out
