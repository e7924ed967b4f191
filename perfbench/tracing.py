"""In-memory span recorder wrapped around the program's layer boundaries.

Traced runs only.  :func:`instrument` patches per-kernel, per-batch,
per-fault and per-transfer entry points (never per-access ones such as
``Tlb.lookup``) with wrappers that record ``(name, start, end, parent,
cell)`` spans into one list, and restores the originals on exit.  A span
name is ``"<layer>:<operation>"``; a layer's self time is the summed
duration of its spans minus the time covered by their child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class SpanRecorder:
    """Spans kept in memory, written out once at the end of a run."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1, cell id)
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self.cell: str | None = None
        #: Events popped off simulator event queues (counted, not spanned).
        self.events = 0
        #: Stats of every simulator built while instrumented.
        self.stats: list = []
        #: Run-cache loads that returned a result / returned nothing.
        self.cache_hits = 0
        self.cache_misses = 0

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        recorder = self

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, recorder.cell)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str, cell: str | None = None):
        """A span around a block of the benchmark's own code."""
        previous = self.cell
        if cell is not None:
            self.cell = cell
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.cell)
            self.cell = previous

    # ------------------------------------------------------------ analysis
    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        spans = self.spans
        own = [end - start for _, start, end, _, _ in spans]
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def by_name(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, summed self seconds)``."""
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for span, own in zip(self.spans, self.self_times()):
            entry = totals[span[0]]
            entry[0] += 1
            entry[1] += own
        return {name: (calls, secs) for name, (calls, secs) in totals.items()}

    def reconcile(self, root_name: str) -> list[tuple[str, float, float]]:
        """Per ``root_name`` span: ``(cell, wall, summed self times)``.

        The summed self times of a root's whole subtree must equal its
        wall time; a gap means spans overlapped or escaped their parent.
        """
        own = self.self_times()
        parents = [span[3] for span in self.spans]
        roots = {i: 0.0 for i, span in enumerate(self.spans)
                 if span[0] == root_name}
        for index, self_s in enumerate(own):
            node = index
            while node >= 0 and node not in roots:
                node = parents[node]
            if node >= 0:
                roots[node] += self_s
        return [(self.spans[i][4], self.spans[i][2] - self.spans[i][1],
                 total) for i, total in roots.items()]

    def dump(self, path: Path) -> None:
        """One header line (span names, cell ids), then one line per span:
        ``[name index, start us, end us, parent index, cell index]``."""
        names: dict[str, int] = {}
        cells: dict[str | None, int] = {}
        origin = self.spans[0][1] if self.spans else 0.0
        rows = []
        for name, start, end, parent, cell in self.spans:
            rows.append(json.dumps([
                names.setdefault(name, len(names)),
                round((start - origin) * 1e6, 1),
                round((end - origin) * 1e6, 1),
                parent, cells.setdefault(cell, len(cells))]))
        with path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": list(names),
                                     "cells": list(cells)}) + "\n")
            handle.write("\n".join(rows) + "\n")


def _patch(patches: list, owner, attr: str, replacement) -> None:
    patches.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, replacement)


@contextmanager
def instrument(recorder: SpanRecorder):
    """Wrap every traced entry point for the duration of the block."""
    from repro import runtime, stats
    from repro.core import context, driver, engine, events, gmmu
    from repro.experiments import common as exp_common
    from repro.interconnect import pcie
    from repro.memory import page_table
    from repro.sweep import cache
    from repro.workloads import registry

    wrap = recorder.wrap
    patches: list = []
    methods = [
        (engine.Simulator, "launch_kernel", "core.engine:launch_kernel"),
        (engine.Simulator, "synchronize", "core.engine:synchronize"),
        (engine.Simulator, "tlb_shootdown", "memory:tlb_shootdown"),
        (gmmu.Gmmu, "handle_tlb_miss", "core.gmmu:handle_tlb_miss"),
        (driver.UvmDriver, "_service", "core.driver:service"),
        (driver.UvmDriver, "_evict", "core.driver:evict"),
        (driver.UvmDriver, "_complete_group", "core.driver:complete"),
        (driver.UvmDriver, "_handling_done", "core.driver:handling_done"),
        (context.UvmContext, "adjust_trees_for_pages",
         "core.context:adjust_trees"),
        (page_table.GpuPageTable, "invalidate",
         "memory:page_table_invalidate"),
        (pcie.PcieLink, "migrate", "interconnect:migrate"),
        (pcie.PcieLink, "write_back", "interconnect:write_back"),
        (stats.SimStats, "to_json", "stats:to_json"),
        (stats.SimStats, "to_json_dict", "stats:to_json"),
        (cache.RunCache, "store", "sweep:cache_store"),
        (runtime.UvmRuntime, "run_workload", "workloads:run_workload"),
    ]
    for owner, attr, name in methods:
        _patch(patches, owner, attr, wrap(name, owner.__dict__[attr]))
    traced_make = wrap("workloads:make_workload", registry.make_workload)
    _patch(patches, registry, "make_workload", traced_make)
    _patch(patches, exp_common, "make_workload", traced_make)
    _patch(patches, exp_common, "_local_runner",
           wrap("bench:cell", exp_common._local_runner))

    # Policies are per-driver instances of many classes: wrap the two
    # planning calls on each instance the driver adopts.
    driver_init = driver.UvmDriver.__init__

    def init(self, *args, **kwargs):
        driver_init(self, *args, **kwargs)
        for policy in {id(p): p for p in (self.prefetcher,
                                          self._fallback)}.values():
            policy.plan = wrap("core.prefetch:plan", policy.plan)
        self.eviction.plan_eviction = wrap("core.evict:plan",
                                           self.eviction.plan_eviction)

    _patch(patches, driver.UvmDriver, "__init__", init)

    pop = events.EventQueue.pop

    def counted_pop(self):
        recorder.events += 1
        return pop(self)

    _patch(patches, events.EventQueue, "pop", counted_pop)
    load = wrap("sweep:cache_load", cache.RunCache.load)

    def counted_load(self, key):
        result = load(self, key)
        if result is None:
            recorder.cache_misses += 1
        else:
            recorder.cache_hits += 1
        return result

    _patch(patches, cache.RunCache, "load", counted_load)
    make_simulator = runtime.make_simulator

    def recorded_make_simulator(*args, **kwargs):
        simulator = make_simulator(*args, **kwargs)
        recorder.stats.append(simulator.stats)
        return simulator

    _patch(patches, runtime, "make_simulator", recorded_make_simulator)
    try:
        yield recorder
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def layer_metrics(recorder: SpanRecorder) -> dict[str, float]:
    """The per-layer metric values of one traced run."""
    named = recorder.by_name()

    def calls(name: str) -> int:
        return named.get(name, (0, 0.0))[0]

    def secs(*names: str) -> float:
        return sum(named.get(name, (0, 0.0))[1] for name in names)

    engine_s = secs("core.engine:launch_kernel", "core.engine:synchronize")
    events = recorder.events
    stats = recorder.stats
    far = sum(s.far_faults for s in stats)
    evicted = sum(s.pages_evicted for s in stats)
    return {
        "workloads.materialize_s": secs("workloads:make_workload",
                                        "workloads:kernel_specs",
                                        "workloads:run_workload"),
        "core.engine.self_s": engine_s,
        "core.engine.events": events,
        "core.engine.us_per_event": engine_s / events * 1e6
        if events else 0.0,
        "core.gmmu.tlb_miss_calls": calls("core.gmmu:handle_tlb_miss"),
        "core.gmmu.s": secs("core.gmmu:handle_tlb_miss"),
        "core.driver.batches": calls("core.driver:service"),
        "core.driver.service_self_s": secs("core.driver:service"),
        "core.driver.evict_rounds": calls("core.driver:evict"),
        "core.driver.evict_self_s": secs("core.driver:evict"),
        "core.driver.complete_self_s": secs("core.driver:complete",
                                            "core.driver:handling_done"),
        "core.prefetch.plan_calls": calls("core.prefetch:plan"),
        "core.prefetch.plan_s": secs("core.prefetch:plan"),
        "core.prefetch.pages_per_fault":
            sum(s.pages_migrated for s in stats) / far if far else 0.0,
        "core.evict.plan_calls": calls("core.evict:plan"),
        "core.evict.plan_s": secs("core.evict:plan"),
        "core.evict.thrash_ratio":
            sum(s.pages_thrashed for s in stats) / evicted
            if evicted else 0.0,
        "core.context.adjust_trees_calls":
            calls("core.context:adjust_trees"),
        "core.context.adjust_trees_s": secs("core.context:adjust_trees"),
        "memory.tlb_shootdown_calls": calls("memory:tlb_shootdown"),
        "memory.tlb_shootdown_s": secs("memory:tlb_shootdown"),
        "memory.page_table_invalidate_s":
            secs("memory:page_table_invalidate"),
        "interconnect.transfers": calls("interconnect:migrate")
        + calls("interconnect:write_back"),
        "interconnect.s": secs("interconnect:migrate",
                               "interconnect:write_back"),
        "interconnect.h2d_bytes": sum(s.h2d.total_bytes for s in stats),
        "stats.to_json_s": secs("stats:to_json"),
        "sweep.cache_store_s": secs("sweep:cache_store"),
        "sweep.cache_misses": recorder.cache_misses,
        "sweep.cache_load_s": secs("sweep:cache_load"),
        "sweep.cache_hits": recorder.cache_hits,
        "bench.self_s": secs("bench:cell", "bench:pass"),
    }
