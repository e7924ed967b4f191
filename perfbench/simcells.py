"""The in-process workloads: ``faultbound``, ``steady`` and ``fig11-sweep``.

Each run sets up, then repeats *rounds* over the workload's cells until
the measuring time is spent, checking every simulation's
``SimStats.to_json()`` against the SHA-256 recorded in ``digests.json``.
A traced run (see ``run.py``) adds a traced round between untraced ones
and reports the per-layer rollup of the traced one.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass

from common import (
    HostClock,
    Outcome,
    digest_matches,
    quantile,
    retired_accesses,
    sha256,
    work_dir,
)

ENGINES = ("reference", "fast")

#: ``repro experiment``'s default scale; the fig11 cross-product runs here.
FIG11_SCALE = 0.4
FIG11_OVERSUBSCRIPTION = 110.0
#: The paper's TBNe+TBNp vs LRU4K+on-demand geomean gain (Figure 11).
PAPER_FIG11_GAIN_PCT = 93.0


@dataclass(frozen=True)
class Cell:
    """One simulation: workload, policy pairing, capacity."""

    name: str
    workload: str
    prefetcher: str
    eviction: str
    #: Over-subscription percent, or None for unbounded device memory.
    oversubscription: float | None
    keep_prefetching: bool = True
    kwargs: tuple = ()
    scale: float = 1.0


#: Over-subscribed cells where the driver does most of the host work,
#: one per eviction granularity (TBN tree units, 4 KB pages, 64 KB SL
#: units).  Prefetcher/eviction pairs are Figure 11's.
FAULTBOUND = (
    Cell("hotspot-tbne-tbnp-110", "hotspot", "tbn", "tbn", 110.0,
         kwargs=(("iterations", 20),)),
    Cell("srad-lru4k-ondemand-125", "srad", "tbn", "lru4k", 125.0,
         keep_prefetching=False),
    Cell("bfs-sle-slp-150", "bfs", "sequential-local",
         "sequential-local", 150.0),
)

#: Iterative cells with unbounded memory: after the cold-start batches
#: every access is a TLB hit, so SM issue and TLB work dominate.
STEADY = (
    Cell("hotspot-steady", "hotspot", "sequential-local", "lru4k", None,
         kwargs=(("iterations", 32),)),
    Cell("srad-steady", "srad", "tbn", "tbn", None,
         kwargs=(("iterations", 32),)),
    Cell("kmeans-steady", "kmeans", "zheng512", "lru2mb", None,
         kwargs=(("iterations", 32),)),
)

CELLS = {"faultbound": FAULTBOUND, "steady": STEADY}


def _config(cell: Cell, workload, engine: str):
    from repro.experiments.common import combo_config

    return combo_config(workload, cell.prefetcher, cell.eviction,
                        cell.oversubscription,
                        prefetch_under_pressure=cell.keep_prefetching,
                        engine=engine)


def build(cell: Cell, engine: str):
    """Materialize one cell: workload, runtime, allocations, kernels."""
    from repro.runtime import UvmRuntime
    from repro.workloads import registry
    from repro.workloads.base import AddressResolver

    workload = registry.make_workload(cell.workload, scale=cell.scale,
                                      **dict(cell.kwargs))
    runtime = UvmRuntime(_config(cell, workload, engine))
    for spec in workload.allocations():
        runtime.malloc_managed(spec.name, spec.size_bytes)
    resolver = AddressResolver(runtime.simulator.allocator)
    kernels = list(workload.kernel_specs(resolver))
    accesses = sum(len(warp.accesses) for kernel in kernels
                   for block in kernel.thread_blocks
                   for warp in block.warps)
    return runtime, kernels, accesses


def execute(runtime, kernels) -> float:
    """Launch every kernel and synchronize; returns host seconds."""
    start = time.perf_counter()
    for kernel in kernels:
        runtime.launch_kernel(kernel)
    runtime.device_synchronize()
    return time.perf_counter() - start


def setup_seconds(cells, repeats: int, clock: HostClock) -> float:
    """Median nominal time to materialize every distinct cell once."""

    def materialize() -> float:
        start = time.perf_counter()
        for cell in cells:
            build(cell, "reference")
        return time.perf_counter() - start

    return quantile([clock.bracket(materialize) for _ in range(repeats)],
                    0.5)


class CellRound:
    """One pass over a workload's cells under both engines.

    ``clock`` calibrates between cells; ``wall``, ``seconds`` and
    ``cell_ms`` (one run per cell and engine) are nominal host time, each
    cell scaled by the calibrations on either side of it.  ``raw_wall``
    is the measured time of the cells, calibrations excluded.
    """

    def __init__(self, cells, digests: dict, outcome: Outcome,
                 clock: HostClock, recorder=None) -> None:
        self.cells = cells
        self.digests = digests
        self.outcome = outcome
        self.clock = clock
        self.recorder = recorder
        self.cell_ms: list[float] = []
        self.seconds = {engine: 0.0 for engine in ENGINES}
        #: engine -> cell name -> nominal run seconds
        self.cell_seconds: dict[str, dict[str, float]] = \
            {engine: {} for engine in ENGINES}
        self.accesses = {engine: 0 for engine in ENGINES}
        self.wall = 0.0
        self.raw_wall = 0.0

    def _one(self, cell: Cell, engine: str) -> float:
        """Build, run and check one cell; returns its run seconds."""
        recorder = self.recorder
        if recorder is None:
            runtime, kernels, accesses = build(cell, engine)
        else:
            with recorder.span("workloads:kernel_specs"):
                runtime, kernels, accesses = build(cell, engine)
        seconds = execute(runtime, kernels)
        self.accesses[engine] += accesses
        stats = runtime.stats
        ok = digest_matches(stats.to_json(), self.digests[cell.name]) \
            and retired_accesses(stats) == accesses
        self.outcome.check(ok, f"{cell.name}/{engine}: stats digest or "
                               f"access count differs from the record")
        return seconds

    def run(self) -> "CellRound":
        self.clock.tick()
        for cell in self.cells:
            for engine in ENGINES:
                start = time.perf_counter()
                if self.recorder is None:
                    seconds = self._one(cell, engine)
                else:
                    with self.recorder.span("bench:cell",
                                            cell=f"{cell.name}/{engine}"):
                        seconds = self._one(cell, engine)
                total = time.perf_counter() - start
                self.clock.tick()
                factor = self.clock.local()
                self.raw_wall += total
                self.wall += total * factor
                self.seconds[engine] += seconds * factor
                self.cell_seconds[engine][cell.name] = seconds * factor
                self.cell_ms.append(seconds * factor * 1e3)
        return self


# --------------------------------------------------------------- fig11
def fig11_settings() -> list[tuple[str, dict]]:
    from repro.experiments.common import COMBINATIONS

    return [(label, dict(prefetcher=prefetcher, eviction=eviction,
                         oversubscription_percent=FIG11_OVERSUBSCRIPTION,
                         prefetch_under_pressure=keep))
            for label, prefetcher, eviction, keep in COMBINATIONS]


def fig11_cells(engine: str) -> list:
    """The fig11 cross-product as sweep cells, in ``run_settings`` order."""
    from repro.experiments.common import setting_cells
    from repro.workloads.registry import SUITE_ORDER

    cells = []
    for label, setting in fig11_settings():
        overrides = {} if engine == "reference" else {"engine": engine}
        cells.extend(setting_cells(FIG11_SCALE, list(SUITE_ORDER),
                                   label=label, **setting, **overrides))
    return cells


def fig11_setup_cells() -> list[Cell]:
    """One materialization per fig11 workload (the set-up measurement)."""
    from repro.workloads.registry import SUITE_ORDER

    return [Cell(f"fig11-{name}", name, "tbn", "tbn",
                 FIG11_OVERSUBSCRIPTION, scale=FIG11_SCALE)
            for name in SUITE_ORDER]


def _timed_cache_class():
    from repro.sweep import RunCache

    class TimedCache(RunCache):
        """A run cache that times each executed cell up to its store and
        keeps its result (in execution order, which is cell order).

        A calibration runs after every second store (outside the times);
        the cells in between are scaled to nominal seconds by it.
        """

        def __init__(self, root, clock: HostClock, engine: str) -> None:
            super().__init__(root)
            self.clock = clock
            self.engine = engine
            self.cell_ms: list[float] = []
            self.results: list = []
            self.nominal_s = 0.0
            self.raw_s = 0.0
            self._pending: list[float] = []
            self._mark = 0.0

        def begin(self) -> None:
            self.clock.tick()
            self._mark = time.perf_counter()

        def _settle(self, cells: int) -> None:
            self.clock.tick()
            factor = self.clock.local()
            self.raw_s += sum(self._pending)
            self.nominal_s += sum(self._pending) * factor
            self.cell_ms.extend(s * 1e3 * factor
                                for s in self._pending[:cells])
            self._pending.clear()
            self._mark = time.perf_counter()

        def store(self, key, cell, result) -> None:
            super().store(key, cell, result)
            self._pending.append(time.perf_counter() - self._mark)
            self.results.append(result)
            if len(self._pending) == 2:
                self._settle(2)
            else:
                self._mark = time.perf_counter()

        def finish(self) -> float:
            """Close the sweep; returns its nominal seconds."""
            cells = len(self._pending)
            self._pending.append(time.perf_counter() - self._mark)
            self._settle(cells)
            return self.nominal_s

    return TimedCache


def fig11_gain_pct(stats_by_label: dict[str, list]) -> float:
    from repro.analysis.metrics import geomean_speedup

    baseline = [s.total_kernel_time_ns
                for s in stats_by_label["LRU4K+on-demand"]]
    best = [s.total_kernel_time_ns for s in stats_by_label["TBNe+TBNp"]]
    return (geomean_speedup(baseline, best) - 1.0) * 100.0


class Fig11Round:
    """The reference sweep as ``repro experiment fig11`` runs it, against
    an empty run cache, plus (optionally) the same cells on the fast
    engine; both must reproduce the recorded digests."""

    def __init__(self, digests: dict, outcome: Outcome, clock: HostClock,
                 with_fast: bool = True) -> None:
        self.digests = digests
        self.outcome = outcome
        self.clock = clock
        self.with_fast = with_fast
        self.cell_ms: list[float] = []
        #: Nominal seconds per engine's sweep.
        self.seconds: dict[str, float] = {}
        #: Measured seconds of the reference sweep, calibrations excluded.
        self.raw_sweep_s = 0.0
        self.accesses: dict[str, int] = {}
        self.gain_pct = 0.0

    def _timed(self, cache, sweep) -> object:
        """Run ``sweep()`` against ``cache``; returns its result and
        records its measured seconds and per-cell times."""
        cache.begin()
        result = sweep()
        self.seconds[cache.engine] = cache.finish()
        self.cell_ms.extend(cache.cell_ms)
        if cache.engine == "reference":
            self.raw_sweep_s = cache.raw_s
        return result

    def _check(self, engine: str, results: list) -> None:
        texts = [result.to_json() for result in results]
        self.accesses[engine] = sum(retired_accesses(r) for r in results)
        ok = digest_matches("\n".join(texts), self.digests["stats_sha256"])
        for _ in results:
            self.outcome.check(ok, f"fig11/{engine}: stats digest differs")

    def run(self, recorder=None) -> "Fig11Round":
        from repro.experiments import fig11_combinations
        from repro.sweep import execute_cells, sweep_context

        timed_cache = _timed_cache_class()
        scratch = work_dir("fig11")
        try:
            cache = timed_cache(scratch / "reference", self.clock,
                                "reference")

            def reference_sweep():
                with sweep_context(jobs=1, cache=cache):
                    if recorder is None:
                        return fig11_combinations.run(scale=FIG11_SCALE)
                    with recorder.span("bench:pass"):
                        return fig11_combinations.run(scale=FIG11_SCALE)

            table = self._timed(cache, reference_sweep)
            self.outcome.check(
                sha256(table.to_table()) == self.digests["table_sha256"],
                "fig11: table digest differs")
            reference = cache.results
            self._check("reference", reference)
            per_label = len(reference) // len(fig11_settings())
            by_label = {label: reference[i * per_label:(i + 1) * per_label]
                        for i, (label, _) in enumerate(fig11_settings())}
            self.gain_pct = fig11_gain_pct(by_label)
            if self.with_fast:
                cells = fig11_cells("fast")
                cache = timed_cache(scratch / "fast", self.clock, "fast")
                fast = self._timed(cache, lambda: execute_cells(cells,
                                                                cache=cache))
                self._check("fast", fast)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        return self
