"""The throughput gate (``scripts/bench_gate.py``).

The gate runs perfbench in a parent and a change checkout and compares
the medians of the gated end-to-end metrics against the bounds in
``BENCHMARK.json``.  These tests replace the benchmark run with
synthetic result lines, so no perfbench run happens here.
"""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GATE = ROOT / "scripts" / "bench_gate.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("bench_gate", GATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(fast=1_000_000.0, reference=800_000.0, correct=True, failed=0,
            sweep_s=2.0):
    """One synthetic perfbench last-line result."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: 1.0 for m in spec["end_to_end"]}
    values.update({"accesses_per_s.fast": fast,
                   "accesses_per_s.reference": reference,
                   "sweep_s": sweep_s})
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {name: {"value": value, "unit": ""}
                        for name, value in values.items()}}


def _checkouts(tmp_path, benchmark=None):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        checkout.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", checkout)
    if benchmark is not None:
        (change / "BENCHMARK.json").write_text(json.dumps(benchmark))
    return parent, change


def _gate(gate, monkeypatch, tmp_path, parent_runs, change_runs,
          benchmark=None):
    """Run the gate with every workload's runs drawn from the lists."""
    parent, change = _checkouts(tmp_path, benchmark)
    calls = []

    def fake(checkout, command, workload):
        runs = parent_runs if checkout == parent else change_runs
        index = sum(1 for c in calls if c == (checkout, workload))
        calls.append((checkout, workload))
        return runs[index % len(runs)]

    monkeypatch.setattr(gate, "perfbench", fake)
    return gate.main([str(parent), str(change)]), calls, (parent, change)


def test_passes_within_threshold(gate, monkeypatch, tmp_path):
    code, _, _ = _gate(gate, monkeypatch, tmp_path, [_result()],
                       [_result(fast=850_000.0, reference=680_000.0)])
    assert code == 0


@pytest.mark.parametrize("slower", [{"fast": 750_000.0},
                                    {"reference": 600_000.0}],
                         ids=["fast", "reference"])
def test_fails_when_a_gated_median_drops_past_bound(gate, monkeypatch,
                                                    tmp_path, slower):
    code, _, _ = _gate(gate, monkeypatch, tmp_path, [_result()],
                       [_result(**slower)])
    assert code == 1


def test_gate_reads_medians_not_single_runs(gate, monkeypatch, tmp_path):
    # One slow change run among three is outvoted by the other two.
    code, _, _ = _gate(gate, monkeypatch, tmp_path, [_result()],
                       [_result(fast=500_000.0), _result(), _result()])
    assert code == 0


def test_speedup_drop_alone_does_not_fail(gate, monkeypatch, tmp_path):
    # A faster reference engine lowers the ratio, not the fast engine.
    code, _, _ = _gate(gate, monkeypatch, tmp_path, [_result()],
                       [_result(reference=1_500_000.0)])
    assert code == 0


def test_other_metrics_are_information_only(gate, monkeypatch, tmp_path):
    code, _, _ = _gate(gate, monkeypatch, tmp_path, [_result()],
                       [_result(sweep_s=10.0)])
    assert code == 0


def test_bound_and_direction_come_from_benchmark_json(gate, monkeypatch,
                                                      tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    fast = next(m for m in spec["end_to_end"]
                if m["name"] == "accesses_per_s.fast")
    slower = [_result(fast=750_000.0)]
    fast["bound"] = 0.3
    code, _, _ = _gate(gate, monkeypatch, tmp_path / "loose", [_result()],
                       slower, benchmark=spec)
    assert code == 0
    fast["bound"], fast["better"] = 0.2, "lower"
    code, _, _ = _gate(gate, monkeypatch, tmp_path / "lower", [_result()],
                       slower, benchmark=spec)
    assert code == 0
    code, _, _ = _gate(gate, monkeypatch, tmp_path / "faster", [_result()],
                       [_result(fast=1_300_000.0)], benchmark=spec)
    assert code == 1


@pytest.mark.parametrize("bad", [{"correct": False}, {"failed": 1}],
                         ids=["incorrect", "failed"])
def test_incorrect_change_run_fails_even_when_faster(gate, monkeypatch,
                                                     tmp_path, bad):
    faster = _result(fast=2_000_000.0, reference=2_000_000.0)
    code, _, _ = _gate(gate, monkeypatch, tmp_path, [_result()],
                       [faster, {**faster, **bad}, faster])
    assert code == 1


def test_runs_every_workload_in_alternated_pairs(gate, monkeypatch,
                                                 tmp_path):
    _, calls, (parent, change) = _gate(gate, monkeypatch, tmp_path,
                                       [_result()], [_result()])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    order = [parent, change, change, parent, parent, change]
    assert calls == [(checkout, w["name"]) for w in spec["workloads"]
                     for checkout in order]
