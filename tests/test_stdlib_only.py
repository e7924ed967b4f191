"""The package runs on the standard library alone.

A fresh interpreter imports every entry-point package and runs one cell
of the random prefetcher (the page table's range query) and one of the
logistic evictor (the learned weights); numpy must never be imported.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
import repro.cli, repro.runtime, repro.experiments, repro.serve
import repro.cluster, repro.tune, repro.validation
from repro.experiments.common import combo_config
from repro.runtime import UvmRuntime
from repro.workloads import make_workload

for prefetcher, eviction in (("random", "random"), ("tbn", "logistic")):
    workload = make_workload("hotspot", scale=0.1)
    config = combo_config(workload, prefetcher, eviction,
                          oversubscription_percent=125.0,
                          prefetch_under_pressure=True)
    stats = UvmRuntime(config).run_workload(workload)
    assert stats.to_json()
print(sorted(name for name in sys.modules
             if name.partition(".")[0] == "numpy"))
"""


def test_no_numpy_import():
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    result = subprocess.run([sys.executable, "-c", PROBE], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
