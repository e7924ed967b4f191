"""Eviction policies against the Belady (MIN) lower bound.

Complements Figures 9/10: for the same eviction-in-isolation setting, how
far is each policy's migration traffic from the clairvoyant minimum on its
own reference string?  The paper's "random beats LRU for iterative
workloads" claim appears here as a smaller optimality gap.
"""

from __future__ import annotations

from ..analysis.optimal import (
    belady_misses,
    optimality_gap,
    reference_from_trace,
)
from ..runtime import UvmRuntime
from ..workloads.registry import make_workload
from .common import ExperimentResult, combo_config

WORKLOADS = ("srad", "hotspot", "bfs")
POLICIES = ("lru4k", "random")


def run(scale: float = 0.4) -> ExperimentResult:
    """Migrations / MIN misses per policy, at 110% with TBNp until full."""
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


def main() -> None:
    print(run().to_table())


if __name__ == "__main__":
    main()
