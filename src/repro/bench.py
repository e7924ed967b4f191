"""Differential-equivalence harness for the two simulation engines.

:func:`compare_engines` is the gate behind the ``fastpath-equiv``
validation claim and ``repro bench``.  It runs every :class:`BenchCell`
under both engines and asserts that ``SimStats.to_json()`` is
**byte-identical** — not approximately equal, identical — so any
divergence in fault counts, transfer histograms, kernel times, or
eviction totals fails loudly.

Cells are deliberately data (frozen dataclass): the equivalence matrix
below is the *fixed* seed × workload × pairing × oversubscription grid
the acceptance gate names, with fault-profile and tracing cells riding
along, and it must not silently drift between CI and local runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import SimulatorConfig, oversubscribed
from .sweep import SweepCell, run_cell
from .workloads import make_workload

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
    #: Per-access trace sampling on (samples every access in issue
    #: order, which the fast engine's deferral must not disturb).
    record_access_trace: bool = False
    #: Shared L2 on (its order-dependent state rides the eager hit path
    #: of both engines).
    l2_enabled: bool = False
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
    plus dedicated fault-profile, tracing and L2 cells.  ``scale`` shrinks
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
    cells.append(BenchCell(
        name="l2-hotspot",
        workload="hotspot",
        kwargs=(("iterations", 3),),
        prefetcher="tbn",
        eviction="tbn",
        oversubscription=110.0,
        l2_enabled=True,
        scale=scale,
    ))
    return cells


def _run(cell: BenchCell, engine: str) -> str:
    """Run one cell through the sweep runner; returns its canonical
    stats JSON."""
    spec = {"name": cell.workload, "scale": cell.scale, **dict(cell.kwargs)}
    overrides: dict = {
        "engine": engine,
        "prefetcher": cell.prefetcher,
        "eviction": cell.eviction,
        "seed": cell.seed,
        "trace": cell.trace,
        "record_access_trace": cell.record_access_trace,
        "l2_enabled": cell.l2_enabled,
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
        config = oversubscribed(make_workload(**spec).footprint_bytes,
                                cell.oversubscription, **overrides)
    return run_cell(SweepCell(spec, config)).to_json()


def compare_engines(cells: list[BenchCell] | None = None,
                    scale: float = 1.0) -> list[CellResult]:
    """Run every cell under both engines; byte-compare the stats."""
    if cells is None:
        cells = equivalence_matrix(scale)
    results = []
    for cell in cells:
        reference_json = _run(cell, "reference")
        fast_json = _run(cell, "fast")
        results.append(CellResult(cell, reference_json == fast_json,
                                  reference_json, fast_json))
    return results


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
