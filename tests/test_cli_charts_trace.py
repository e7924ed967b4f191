"""Tests for the CLI, ASCII charts, and trace export/replay."""

import json

import pytest

from repro.analysis.charts import grouped_bars, horizontal_bars
from repro.cli import build_parser, main
from repro.config import SimulatorConfig
from repro.errors import WorkloadError
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import EXPERIMENTS
from repro.memory.allocator import ManagedAllocator
from repro.runtime import run_workload
from repro.workloads.base import AddressResolver
from repro.workloads.registry import make_workload
from repro.workloads.synthetic import StreamingWorkload
from repro.workloads.trace import TraceWorkload, export_trace


class TestCharts:
    def test_horizontal_bars_scaled_to_peak(self):
        art = horizontal_bars(["a", "bb"], [1.0, 2.0], width=10)
        lines = art.splitlines()
        assert lines[1].count("#") == 10
        assert lines[0].count("#") == 5

    def test_horizontal_bars_empty(self):
        assert horizontal_bars([], []) == "(no data)"

    def test_horizontal_bars_mismatch_raises(self):
        with pytest.raises(ValueError):
            horizontal_bars(["a"], [1.0, 2.0])

    def test_grouped_bars_renders_all_series(self):
        result = ExperimentResult("F", "d", ["w", "x", "y"])
        result.add_row("alpha", 1.0, 3.0)
        result.add_row("beta", 2.0, 0.5)
        art = grouped_bars(result, width=12)
        assert "alpha:" in art and "beta:" in art
        assert art.count("|") == 8  # 4 bars x 2 delimiters

    def test_grouped_bars_empty(self):
        result = ExperimentResult("F", "d", ["w", "x"])
        assert grouped_bars(result) == "(no data)"


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "tbn" in out and "hotspot" in out
        assert any(line.startswith("learned   : bandit, logistic, ngram")
                   for line in out.splitlines())

    def test_run_prints_counters(self, capsys):
        assert main(["run", "pathfinder", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "far_faults" in out
        assert "pathfinder" in out

    def test_run_oversubscribed(self, capsys):
        code = main(["run", "hotspot", "--scale", "0.1",
                     "--oversubscription", "110", "--eviction", "tbn",
                     "--keep-prefetching"])
        assert code == 0
        assert "pages_evicted" in capsys.readouterr().out

    def test_experiment_table1(self, capsys, tmp_path):
        code = main(["experiment", "table1", "--out", str(tmp_path),
                     "--chart"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert (tmp_path / "table1.txt").exists()

    def test_experiment_takes_several_names(self, capsys, tmp_path):
        code = main(["experiment", "fig2", "table1", "fig2",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.index("Figure 2") < out.index("Table 1")
        assert out.count("Figure 2:") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == ["fig2.txt", "table1.txt"]

    def test_sweep(self, capsys):
        code = main(["sweep", "pathfinder", "--scale", "0.1",
                     "--percents", "110"])
        assert code == 0
        assert "sweep" in capsys.readouterr().out

    def test_every_registered_experiment_has_runner(self):
        parser = build_parser()
        assert parser is not None
        for name, runner in EXPERIMENTS.items():
            assert callable(runner), name

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nonexistent"])


class TestTrace:
    def test_roundtrip_preserves_kernels(self, tmp_path):
        source = StreamingWorkload(pages=32, iterations=2)
        path = tmp_path / "trace.jsonl"
        count = export_trace(source, path)
        assert count == 2

        replay = TraceWorkload(path)
        assert replay.source_workload == source.name
        assert replay.footprint_bytes == source.footprint_bytes

        def kernel_shapes(workload):
            allocator = ManagedAllocator()
            for spec in workload.allocations():
                allocator.malloc_managed(spec.name, spec.size_bytes)
            resolver = AddressResolver(allocator)
            shapes = []
            for kernel in workload.kernel_specs(resolver):
                base = allocator.get("data").page_range[0]
                shapes.append(sorted(
                    page - base for page in kernel.touched_pages()
                ))
            return shapes

        assert kernel_shapes(source) == kernel_shapes(replay)

    def test_replayed_trace_runs_identically(self, tmp_path):
        source = make_workload("pathfinder", scale=0.1)
        path = tmp_path / "pf.jsonl"
        export_trace(source, path)
        config = SimulatorConfig(num_sms=2, prefetcher="tbn")
        original = run_workload(make_workload("pathfinder", scale=0.1),
                                config)
        replayed = run_workload(TraceWorkload(path), config)
        assert replayed.far_faults == original.far_faults
        assert replayed.pages_migrated == original.pages_migrated
        assert replayed.total_kernel_time_ns \
            == pytest.approx(original.total_kernel_time_ns)

    def test_write_flags_preserved(self, tmp_path):
        source = StreamingWorkload(pages=16, write_fraction=1.0)
        path = tmp_path / "w.jsonl"
        export_trace(source, path)
        with open(path) as fh:
            fh.readline()
            record = json.loads(fh.readline())
        flags = [access[2] for tb in record["thread_blocks"]
                 for warp in tb for access in warp]
        assert all(flag == 1 for flag in flags)

    def test_bad_traces_rejected(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(WorkloadError):
            TraceWorkload(empty)
        bad_version = tmp_path / "bad.jsonl"
        bad_version.write_text(json.dumps({"version": 99,
                                           "allocations": [["a", 1]]})
                               + "\n")
        with pytest.raises(WorkloadError):
            TraceWorkload(bad_version)
