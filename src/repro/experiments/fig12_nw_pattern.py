"""Figure 12: page access pattern of the nw benchmark without eviction.

The paper samples iterations 60 and 70 ("chosen randomly") and plots the
virtual page number of every access against the core cycle: "for nw, in
every cycle, a set of pages, which are spaced far apart in the virtual
address space, are accessed repeatedly over time."
"""

from __future__ import annotations

from ..analysis.access_pattern import AccessPatternTrace, \
    capture_access_pattern
from ..config import SimulatorConfig
from ..workloads.registry import make_workload
from .common import ExperimentResult

#: The iterations the paper samples.
ITERATIONS = (60, 70)


def collect(scale: float = 0.5,
            iterations: tuple[int, ...] = ITERATIONS
            ) -> list[AccessPatternTrace]:
    """Capture the (cycle, page) scatter for the chosen nw iterations.

    Memory is unbounded ("without eviction"), matching the paper's setup.
    The paper's nw runs 127 iterations; ours scale with the matrix, so the
    requested iteration numbers are mapped proportionally (60/127 and
    70/127 of the run) when the run is shorter.
    """
    workload = make_workload("nw", scale=scale)
    # The paper's nw run has 127 iterations; map the requested iteration
    # numbers proportionally onto our forward (fill) pass.
    forward = workload.num_diagonals
    paper_iterations = 127
    chosen: list[int] = []
    for it in iterations:
        if forward >= paper_iterations:
            mapped = min(it, forward - 1)
        else:
            mapped = int(it / paper_iterations * forward)
        while mapped in chosen and mapped + 1 < forward:
            mapped += 1
        chosen.append(mapped)
    config = SimulatorConfig(prefetcher="tbn", eviction="lru4k")
    return capture_access_pattern(workload, config, list(chosen))


def run(scale: float = 0.5,
        iterations: tuple[int, ...] = ITERATIONS) -> ExperimentResult:
    """Summarize the nw scatter: span, sparsity, and repetition."""
    traces = collect(scale, iterations)
    result = ExperimentResult(
        name="Figure 12",
        description="nw page access pattern (no eviction): sparse, "
                    "far-spaced pages accessed repeatedly",
        headers=["iteration", "accesses", "distinct pages",
                 "page span", "mean gap (pages)", "touches/page"],
    )
    for trace in traces:
        result.add_row(
            trace.iteration,
            len(trace.samples),
            len(trace.distinct_pages),
            trace.page_span,
            trace.mean_gap_pages,
            trace.mean_touches_per_page,
        )
    result.detail["page_sets"] = [trace.distinct_pages for trace in traces]
    return result


def main() -> None:
    print(run().to_table())
    print()
    for trace in collect():
        print(trace.ascii_scatter())
        print()


if __name__ == "__main__":
    main()
