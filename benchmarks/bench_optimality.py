"""Bench: eviction policies against the Belady (MIN) lower bound.

Complements Figures 9/10: for the same eviction-in-isolation setting, how
far is each policy's migration traffic from the clairvoyant minimum on its
own reference string?  The paper's "random beats LRU for iterative
workloads" claim appears here as a smaller optimality gap.
"""

from repro.analysis.optimal import (
    belady_misses,
    optimality_gap,
    reference_from_trace,
)
from repro.experiments.common import ExperimentResult, combo_config
from repro.runtime import UvmRuntime
from repro.workloads.registry import make_workload

from conftest import SCALE, run_once, save_result

WORKLOADS = ("srad", "hotspot", "bfs")
POLICIES = ("lru4k", "random")


def run_optimality(scale: float = SCALE) -> ExperimentResult:
    result = ExperimentResult(
        name="Optimality gap",
        description="migrations / Belady-MIN misses, eviction in "
                    "isolation at 110% over-subscription",
        headers=["workload"] + [f"{p} gap" for p in POLICIES]
        + ["MIN misses"],
    )
    for name in WORKLOADS:
        gaps = []
        min_misses = None
        for policy in POLICIES:
            workload = make_workload(name, scale=scale)
            config = combo_config(
                workload, "tbn", policy,
                oversubscription_percent=110.0,
                prefetch_under_pressure=False,
                record_access_trace=True,
            )
            stats = UvmRuntime(config).run_workload(workload)
            reference = reference_from_trace(stats.access_trace)
            capacity = config.device_memory_pages
            optimal = belady_misses(reference, capacity)
            gaps.append(optimality_gap(stats.pages_migrated, optimal))
            min_misses = optimal.total_misses
        result.add_row(name, *gaps, min_misses)
    return result


def test_optimality_gap(benchmark):
    result = run_once(benchmark, run_optimality, scale=SCALE)
    save_result(result)
    for row in result.rows:
        name, lru_gap, random_gap, min_misses = row
        # No policy beats clairvoyance on its own reference string.
        assert lru_gap >= 1.0 and random_gap >= 1.0
        assert min_misses > 0
    by_name = {row[0]: row for row in result.rows}
    # srad is the paper's strongest LRU-thrash case: random's traffic is
    # closer to optimal than LRU's.
    assert by_name["srad"][2] < by_name["srad"][1]
