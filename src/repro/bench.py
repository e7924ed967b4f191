"""Engine benchmark and differential-equivalence harness.

Two jobs, one cell vocabulary:

* :func:`compare_engines` — the differential-equivalence gate behind the
  ``fastpath-equiv`` validation claim and ``repro bench --compare``.  It
  runs every :class:`BenchCell` under both engines and asserts that
  ``SimStats.to_json()`` is **byte-identical** — not approximately equal,
  identical — so any divergence in fault counts, transfer histograms,
  kernel times, or eviction totals fails loudly.

* :func:`throughput_report` — the ``BENCH_core.json`` producer.  It
  times both engines over the same pre-materialized kernel streams and
  reports accesses/second plus the fast-over-reference speedup per cell.
  Kernel specs are materialized *outside* the timed region: workload
  generation is identical python work for both engines and measuring it
  would only dilute the engine comparison.

Cells are deliberately data (frozen dataclass): the equivalence matrix
below is the *fixed* seed × workload × pairing × oversubscription grid
the acceptance gate names, with fault-profile and tracing cells riding
along, and it must not silently drift between CI and local runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .config import SimulatorConfig, oversubscribed
from .runtime import UvmRuntime
from .workloads import make_workload
from .workloads.base import AddressResolver

#: (prefetcher, eviction) pairings cycled through the matrix; every
#: registered policy family appears at least once.
PAIRINGS = (
    ("tbn", "tbn"),
    ("sequential-local", "lru4k"),
    ("zheng512", "lru2mb"),
    ("random", "random"),
    ("none", "adaptive"),
    ("zheng-sequential", "sequential-local"),
    ("none", "lru4k-validated"),
)

#: Over-subscription percentages cycled through the matrix; None means
#: unbounded device memory (no eviction pressure at all).
OVERSUBS = (None, 110.0, 125.0, 150.0)

#: (workload, extra kwargs) axis of the matrix.  Iterative workloads get
#: a couple of iterations so spans cross kernel boundaries.
WORKLOADS = (
    ("gemm", ()),
    ("bfs", ()),
    ("hotspot", (("iterations", 4),)),
    ("srad", (("iterations", 3),)),
    ("backprop", ()),
    ("kmeans", (("iterations", 3),)),
    ("pathfinder", ()),
    ("atax", ()),
)


@dataclass(frozen=True)
class BenchCell:
    """One (workload, config) cell both engines must agree on."""

    name: str
    workload: str
    kwargs: tuple = ()
    prefetcher: str = "tbn"
    eviction: str = "lru4k"
    #: Over-subscription percent (>=100), or None for unbounded memory.
    oversubscription: float | None = 110.0
    fault_profile: str | None = None
    #: Span tracer on (exercises the tracer event paths in both engines).
    trace: bool = False
    #: Per-access trace sampling on (the fast engine must decline its
    #: fast path and still match byte-for-byte).
    record_access_trace: bool = False
    seed: int = 0
    scale: float = 1.0


@dataclass
class CellResult:
    """Outcome of one differential cell."""

    cell: BenchCell
    identical: bool
    reference_json: str = field(repr=False, default="")
    fast_json: str = field(repr=False, default="")


def equivalence_matrix(scale: float = 1.0) -> list[BenchCell]:
    """The fixed differential matrix of the ``fastpath-equiv`` gate.

    Two seeds × eight workloads, with pairings and over-subscription
    levels rotated so every policy family and capacity regime appears,
    plus dedicated fault-profile and tracing cells.  ``scale`` shrinks
    the workload footprints (the validation claim runs the same matrix
    at a small scale so ``repro validate`` stays fast).
    """
    cells: list[BenchCell] = []
    for seed in (0, 1):
        for index, (workload, kwargs) in enumerate(WORKLOADS):
            prefetcher, eviction = PAIRINGS[(index + seed) % len(PAIRINGS)]
            over = OVERSUBS[(index + 2 * seed) % len(OVERSUBS)]
            cells.append(BenchCell(
                name=f"s{seed}-{workload}",
                workload=workload,
                kwargs=kwargs,
                prefetcher=prefetcher,
                eviction=eviction,
                oversubscription=over,
                seed=seed,
                scale=scale,
            ))
    for profile, (workload, kwargs) in zip(
        ("light", "moderate", "heavy"),
        (("hotspot", (("iterations", 3),)), ("gemm", ()), ("bfs", ())),
    ):
        cells.append(BenchCell(
            name=f"fault-{profile}-{workload}",
            workload=workload,
            kwargs=kwargs,
            prefetcher="tbn",
            eviction="tbn",
            oversubscription=110.0,
            fault_profile=profile,
            scale=scale,
        ))
    cells.append(BenchCell(
        name="trace-spans-srad",
        workload="srad",
        kwargs=(("iterations", 2),),
        prefetcher="sequential-local",
        eviction="lru4k",
        oversubscription=125.0,
        trace=True,
        scale=scale,
    ))
    cells.append(BenchCell(
        name="trace-access-kmeans",
        workload="kmeans",
        kwargs=(("iterations", 2),),
        prefetcher="zheng512",
        eviction="lru2mb",
        oversubscription=110.0,
        record_access_trace=True,
        scale=scale,
    ))
    return cells


#: Cells timed for ``BENCH_core.json``.  Steady-state iterative cells
#: are where the batched engine pays (the acceptance target is >=3x on
#: at least two of them); the single-kernel and fault-bound cells are
#: kept deliberately — their ~1x shows the fast path is *free* when the
#: run is dominated by cold faults and driver work the engines share.
THROUGHPUT_CELLS = (
    BenchCell(name="hotspot-steady", workload="hotspot",
              kwargs=(("iterations", 64),),
              prefetcher="sequential-local", eviction="lru4k",
              oversubscription=None),
    BenchCell(name="srad-steady", workload="srad",
              kwargs=(("iterations", 64),),
              prefetcher="tbn", eviction="tbn", oversubscription=None),
    BenchCell(name="kmeans-steady", workload="kmeans",
              kwargs=(("iterations", 64),),
              prefetcher="zheng512", eviction="lru2mb",
              oversubscription=None),
    BenchCell(name="gemm-coldstart", workload="gemm",
              prefetcher="sequential-local", eviction="lru4k",
              oversubscription=None),
    BenchCell(name="hotspot-faultbound", workload="hotspot",
              kwargs=(("iterations", 20),),
              prefetcher="tbn", eviction="tbn", oversubscription=110.0),
)


def _build(cell: BenchCell, engine: str):
    """Runtime + pre-materialized kernels + access count for one cell."""
    workload = make_workload(cell.workload, scale=cell.scale,
                             **dict(cell.kwargs))
    overrides: dict = {
        "engine": engine,
        "prefetcher": cell.prefetcher,
        "eviction": cell.eviction,
        "seed": cell.seed,
        "trace": cell.trace,
        "record_access_trace": cell.record_access_trace,
    }
    if cell.trace:
        overrides["trace_max_events"] = 200_000
    if cell.fault_profile is not None:
        from .faultinject.profile import FaultProfile
        overrides["fault_profile"] = FaultProfile.load(cell.fault_profile,
                                                       seed=cell.seed)
    if cell.oversubscription is None:
        config = SimulatorConfig(**overrides)
    else:
        config = oversubscribed(workload.footprint_bytes,
                                cell.oversubscription, **overrides)
    runtime = UvmRuntime(config)
    for spec in workload.allocations():
        runtime.malloc_managed(spec.name, spec.size_bytes)
    resolver = AddressResolver(runtime.simulator.allocator)
    kernels = list(workload.kernel_specs(resolver))
    accesses = sum(len(warp.accesses) for kernel in kernels
                   for tb in kernel.thread_blocks for warp in tb.warps)
    return runtime, kernels, accesses


def _run(cell: BenchCell, engine: str) -> tuple[str, float, int]:
    """Run one cell; returns (stats json, wall seconds, accesses)."""
    runtime, kernels, accesses = _build(cell, engine)
    start = time.perf_counter()
    for kernel in kernels:
        runtime.launch_kernel(kernel)
    runtime.device_synchronize()
    elapsed = time.perf_counter() - start
    return runtime.stats.to_json(), elapsed, accesses


def compare_engines(cells: list[BenchCell] | None = None,
                    scale: float = 1.0) -> list[CellResult]:
    """Run every cell under both engines; byte-compare the stats."""
    if cells is None:
        cells = equivalence_matrix(scale)
    results = []
    for cell in cells:
        reference_json, _, _ = _run(cell, "reference")
        fast_json, _, _ = _run(cell, "fast")
        results.append(CellResult(cell, reference_json == fast_json,
                                  reference_json, fast_json))
    return results


def throughput_report(cells: tuple[BenchCell, ...] = THROUGHPUT_CELLS,
                      repeats: int = 3) -> dict:
    """Time both engines per cell; best-of-``repeats`` wall clock.

    The JSON shape is the ``BENCH_core.json`` contract consumed by
    ``scripts/bench_gate.py`` and the stored trajectory under
    ``benchmarks/trajectory/``.
    """
    report: dict = {"schema": "repro-bench-core/v1", "cells": []}
    for cell in cells:
        entry: dict = {
            "cell": cell.name,
            "workload": cell.workload,
            "prefetcher": cell.prefetcher,
            "eviction": cell.eviction,
            "oversubscription": cell.oversubscription,
            "engines": {},
        }
        for engine in ("reference", "fast"):
            best = None
            accesses = 0
            for _ in range(repeats):
                _, elapsed, accesses = _run(cell, engine)
                if best is None or elapsed < best:
                    best = elapsed
            entry["accesses"] = accesses
            entry["engines"][engine] = {
                "seconds": best,
                "accesses_per_sec": accesses / best if best else 0.0,
            }
        ref = entry["engines"]["reference"]["seconds"]
        fast = entry["engines"]["fast"]["seconds"]
        entry["speedup"] = ref / fast if fast else 0.0
        report["cells"].append(entry)
    return report


def format_compare(results: list[CellResult]) -> str:
    """Human-readable table of a :func:`compare_engines` run."""
    lines = [f"{'cell':26s} {'pairing':32s} {'over':>6s}  result",
             "-" * 78]
    for result in results:
        cell = result.cell
        over = "unbnd" if cell.oversubscription is None \
            else f"{cell.oversubscription:.0f}%"
        pairing = f"{cell.prefetcher}+{cell.eviction}"
        verdict = "identical" if result.identical else "MISMATCH"
        lines.append(f"{cell.name:26s} {pairing:32s} {over:>6s}  {verdict}")
    passed = sum(1 for r in results if r.identical)
    lines.append(f"{passed}/{len(results)} cells byte-identical")
    return "\n".join(lines)


def format_throughput(report: dict) -> str:
    """Human-readable table of a :func:`throughput_report` run."""
    lines = [f"{'cell':22s} {'accesses':>9s} {'ref us/acc':>11s} "
             f"{'fast us/acc':>12s} {'speedup':>8s}", "-" * 68]
    for entry in report["cells"]:
        accesses = entry["accesses"]
        ref = entry["engines"]["reference"]["seconds"]
        fast = entry["engines"]["fast"]["seconds"]
        lines.append(
            f"{entry['cell']:22s} {accesses:9d} "
            f"{ref / accesses * 1e6:11.2f} {fast / accesses * 1e6:12.2f} "
            f"{entry['speedup']:7.2f}x"
        )
    return "\n".join(lines)
