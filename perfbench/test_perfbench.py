"""Self-test of the benchmark: ``python3 -m pytest perfbench/test_perfbench.py``.

A quick run of every workload, untraced and traced, must print every
metric ``BENCHMARK.json`` names with its unit; the digest check must
reject a perturbed stats JSON; and a copy of the benchmark without the
program must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import digest_matches, import_repro, load_digests  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: The gated workloads plus serve-zipf, which runs the same way but is
#: kept out of BENCHMARK.json (see NOTES.md).
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["serve-zipf"]


def run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_emits_every_metric(workload, trace):
    done = run_benchmark(ROOT, "--workload", workload, "--seed", "3",
                         "--seconds", "1", "--trace", trace, "--quick")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        if trace == "0":
            assert entry["value"] > 0, metric["name"]


def test_digest_check_rejects_perturbed_stats():
    import_repro()
    from simcells import FAULTBOUND, build, execute

    cell = FAULTBOUND[-1]
    expected = load_digests()["faultbound"][cell.name]
    runtime, kernels, _ = build(cell, "fast")
    execute(runtime, kernels)
    text = runtime.stats.to_json()
    assert digest_matches(text, expected)
    digit = next(i for i, ch in enumerate(text) if ch.isdigit())
    perturbed = text[:digit] + str((int(text[digit]) + 1) % 10) \
        + text[digit + 1:]
    assert not digest_matches(perturbed, expected)
    assert not digest_matches(text + " ", expected)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(tmp_path, "--workload", WORKLOADS[0], "--seed",
                         "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
