"""The bench regression gate (``scripts/bench_gate.py``).

The gate compares a fresh report's fast-engine nominal throughput with
the best stored trajectory entry that carries it; the fast-over-reference
speedup is printed as information only.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GATE = Path(__file__).resolve().parent.parent / "scripts" / "bench_gate.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("bench_gate", GATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(fast_nominal, speedup=2.0, ref_nominal=100_000.0):
    fast = {"seconds": 1.0, "accesses_per_sec": 1.0}
    if fast_nominal is not None:
        fast["nominal_accesses_per_sec"] = fast_nominal
    return {"schema": "repro-bench-core/v1", "cells": [{
        "cell": "srad-steady", "accesses": 10, "speedup": speedup,
        "engines": {
            "reference": {"seconds": 1.0, "accesses_per_sec": 1.0,
                          "nominal_accesses_per_sec": ref_nominal},
            "fast": fast,
        },
    }]}


def _write(path, report):
    path.write_text(json.dumps(report))
    return path


def _gate(gate, tmp_path, fresh, *stored):
    trajectory = tmp_path / "trajectory"
    trajectory.mkdir()
    for index, report in enumerate(stored):
        _write(trajectory / f"{index}.json", report)
    fresh_path = _write(tmp_path / "fresh.json", fresh)
    return gate.main([str(fresh_path), "--trajectory", str(trajectory)])


def test_passes_within_threshold(gate, tmp_path):
    assert _gate(gate, tmp_path, _report(750_000.0),
                 _report(1_000_000.0)) == 0


def test_fails_below_threshold_of_best_entry(gate, tmp_path):
    assert _gate(gate, tmp_path, _report(650_000.0),
                 _report(800_000.0), _report(1_000_000.0)) == 1


def test_speedup_drop_alone_does_not_fail(gate, tmp_path):
    # A faster reference engine lowers the ratio, not the fast engine.
    assert _gate(gate, tmp_path, _report(1_000_000.0, speedup=1.2),
                 _report(1_000_000.0, speedup=3.0)) == 0


def test_entries_without_nominal_field_are_ignored(gate, tmp_path):
    assert _gate(gate, tmp_path, _report(100.0),
                 _report(None, speedup=9.0)) == 0
    assert gate.best_stored(tmp_path / "trajectory") == {}
