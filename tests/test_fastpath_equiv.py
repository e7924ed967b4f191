"""Differential tests: the fast engine must match the reference engine.

The acceptance gate (``repro bench`` / the ``fastpath-equiv``
validation claim) byte-compares the fixed cell matrix; these tests add a
randomized differential loop — a seeded stdlib-``random`` generator
drives both engines through identical synthetic workload/config draws
and asserts equal ``SimStats``, per-allocation residency maps, and
kernel times.  A small draw matrix runs in tier-1; the wide loop is
marked ``slow``.
"""

import json
import random

import pytest

from repro.bench import (
    BenchCell,
    compare_engines,
    equivalence_matrix,
)
from repro.config import SimulatorConfig, oversubscribed
from repro.core import make_simulator
from repro.core.fastpath import DEFERRAL_COUNTERS, FastSimulator
from repro.runtime import UvmRuntime
from repro.workloads import make_workload
from repro.workloads.base import AddressResolver
from repro.workloads.synthetic import (
    CyclicScanWorkload,
    RandomWorkload,
    StreamingWorkload,
    StridedWorkload,
)

PAIRINGS = (
    ("tbn", "tbn"),
    ("sequential-local", "lru4k"),
    ("zheng512", "lru2mb"),
    ("none", "adaptive"),
    ("random", "random"),
)

#: TLB size of the second differential draw per seed (default: 512).
SMALL_TLB = 16

SHAPES = (StreamingWorkload, RandomWorkload, StridedWorkload,
          CyclicScanWorkload)


def _draw_cell(rng: random.Random):
    """One random (workload, config-overrides) draw."""
    shape = rng.choice(SHAPES)
    workload = shape(
        pages=rng.randrange(96, 512),
        iterations=rng.randrange(1, 4),
        write_fraction=rng.choice((0.0, 0.25, 0.6)),
        warps_per_tb=rng.choice((2, 4)),
        pages_per_warp=rng.choice((8, 16, 32)),
        seed=rng.randrange(1 << 16),
    )
    prefetcher, eviction = rng.choice(PAIRINGS)
    overrides = {
        "prefetcher": prefetcher,
        "eviction": eviction,
        "seed": rng.randrange(8),
    }
    percent = rng.choice((None, 110.0, 130.0, 160.0))
    return workload, overrides, percent


def _run(engine: str, shape, workload_kwargs, overrides, percent):
    workload = shape(**workload_kwargs)
    if percent is None:
        config = SimulatorConfig(engine=engine, **overrides)
    else:
        config = oversubscribed(workload.footprint_bytes, percent,
                                engine=engine, **overrides)
    runtime = UvmRuntime(config)
    stats = runtime.run_workload(workload, check_invariants=True)
    residency = {
        spec.name: runtime.simulator.residency_map(spec.name)
        for spec in workload.allocations()
    }
    return stats.to_json(), residency, list(stats.kernel_times_ns)


def _assert_engines_agree(seed: int, tlb_entries: int | None) -> None:
    rng = random.Random(seed)
    shape_workload, overrides, percent = _draw_cell(rng)
    if tlb_entries is not None:
        overrides["tlb_entries"] = tlb_entries
    kwargs = {
        "pages": shape_workload.pages,
        "iterations": shape_workload.iterations,
        "write_fraction": shape_workload.write_fraction,
        "warps_per_tb": shape_workload.warps_per_tb,
        "pages_per_warp": shape_workload.pages_per_warp,
        "seed": shape_workload.seed,
    }
    shape = type(shape_workload)
    ref_json, ref_res, ref_times = _run("reference", shape, kwargs,
                                        overrides, percent)
    fast_json, fast_res, fast_times = _run("fast", shape, kwargs,
                                           overrides, percent)
    context = (f"seed={seed} shape={shape.__name__} kwargs={kwargs} "
               f"overrides={overrides} percent={percent}")
    assert ref_times == fast_times, context
    assert ref_res == fast_res, context
    assert ref_json == fast_json, context


def _tlb_params(seeds):
    """Each seed at the default TLB size (id ``seed``) and at
    ``SMALL_TLB`` entries (id ``seed-tlb16``).  The small TLB adds
    capacity misses between the deferred hits of a span."""
    for seed in seeds:
        yield pytest.param(seed, None, id=str(seed))
        yield pytest.param(seed, SMALL_TLB, id=f"{seed}-tlb{SMALL_TLB}")


class TestRandomizedDifferential:
    @pytest.mark.parametrize(("seed", "tlb_entries"), _tlb_params(range(4)))
    def test_engines_agree_small_matrix(self, seed, tlb_entries):
        _assert_engines_agree(seed, tlb_entries)

    @pytest.mark.slow
    @pytest.mark.parametrize(("seed", "tlb_entries"),
                             _tlb_params(range(4, 40)))
    def test_engines_agree_wide(self, seed, tlb_entries):
        _assert_engines_agree(seed, tlb_entries)


class TestFixedMatrix:
    def test_matrix_covers_required_axes(self):
        cells = equivalence_matrix()
        assert any(cell.fault_profile for cell in cells)
        assert any(cell.trace for cell in cells)
        assert any(cell.record_access_trace for cell in cells)
        assert any(cell.l2_enabled for cell in cells)
        assert any(cell.oversubscription is None for cell in cells)
        assert len({cell.seed for cell in cells}) > 1
        assert len({cell.workload for cell in cells}) >= 8

    def test_one_tiny_cell_byte_identical(self):
        cell = BenchCell(name="tiny", workload="gemm",
                         prefetcher="tbn", eviction="tbn",
                         oversubscription=110.0, scale=0.15)
        (result,) = compare_engines([cell])
        assert result.identical, result.cell

    def test_fault_profile_cell_byte_identical(self):
        cell = BenchCell(name="tiny-faults", workload="gemm",
                         prefetcher="sequential-local", eviction="lru4k",
                         oversubscription=110.0, fault_profile="moderate",
                         scale=0.15)
        (result,) = compare_engines([cell])
        assert result.identical, result.cell


class TestFastEngineSelection:
    def test_factory_returns_fast_engine(self):
        sim = make_simulator(SimulatorConfig(engine="fast"))
        assert isinstance(sim, FastSimulator)
        assert sim._access_log == []

    @pytest.mark.parametrize("mode", ["record_access_trace", "l2_enabled"])
    def test_access_trace_and_l2_modes_byte_identical(self, mode):
        # Neither mode is declined: the fast engine defers its recency
        # tail while the sampler and the L2 run eagerly in the shared
        # loop.
        cell = BenchCell(name=mode, workload="hotspot",
                         kwargs=(("iterations", 3),), prefetcher="tbn",
                         eviction="tbn", oversubscription=110.0,
                         scale=0.15, **{mode: True})
        (result,) = compare_engines([cell])
        assert result.identical, result.cell

    def test_default_engine_is_reference(self):
        sim = make_simulator(SimulatorConfig())
        assert not isinstance(sim, FastSimulator)
        assert sim._access_log is None


class TestDeferredValidCheck:
    def test_flush_raises_on_logged_page_invalidated_behind_its_back(self):
        from repro.errors import PageTableError

        workload = make_workload("hotspot", scale=0.15, iterations=2)
        # No invariant check at kernel end: it would flush the log.
        runtime = UvmRuntime(SimulatorConfig(
            engine="fast", check_invariants_on_completion=False))
        runtime.run_workload(workload)
        sim = runtime.simulator
        # Re-run one kernel: every page is resident, so every access
        # hits and waits in the log until the next flush.
        resolver = AddressResolver(sim.allocator)
        kernel = next(iter(workload.kernel_specs(resolver)))
        sim.launch_kernel(kernel)
        assert sim._access_log
        page = sim._access_log[0][0]
        sim.page_table.invalidate(page)
        with pytest.raises(PageTableError,
                           match=f"access to non-valid page {page}"):
            sim.synchronize()


class TestBenchReportShape:
    def test_compare_result_carries_payloads(self):
        cell = BenchCell(name="payload", workload="backprop",
                         oversubscription=None, scale=0.15)
        (result,) = compare_engines([cell])
        assert result.identical
        # The payloads are real canonical stats JSON, kept for diffing.
        assert json.loads(result.reference_json) == \
            json.loads(result.fast_json)


def _retired(stats) -> int:
    """Accesses retired: a lookup that far-faults (new fault or MSHR
    merge) blocks its warp and retires on replay.  Exact without a
    fault-injection profile."""
    return stats.tlb_hits + stats.tlb_misses - stats.far_faults \
        - stats.mshr_merges


#: The cells of docs/PERFORMANCE.md's "Deferral counters" table:
#: (name, workload, kwargs, prefetcher, eviction, over-subscription %
#: or None for unbounded memory, accesses_deferred, flushes,
#: pages_replayed).
DEFERRAL_CELLS = (
    ("hotspot-steady", "hotspot", {"iterations": 64},
     "sequential-local", "lru4k", None, 262_080, 257, 6_288),
    ("srad-steady", "srad", {"iterations": 64},
     "tbn", "tbn", None, 409_536, 238, 5_060),
    ("kmeans-steady", "kmeans", {"iterations": 64},
     "zheng512", "lru2mb", None, 271_360, 106, 4_409),
    ("gemm-coldstart", "gemm", {},
     "sequential-local", "lru4k", None, 10_240, 391, 10_240),
    ("hotspot-faultbound", "hotspot", {"iterations": 20},
     "tbn", "tbn", 110.0, 81_900, 2_429, 65_353),
)


class TestDeferralCounters:
    """``FastSimulator.deferral_counts``: how much the access log
    compressed, outside ``SimStats``."""

    def _run(self, **overrides):
        # Cold-start misses, then iterations that re-touch every page.
        workload = make_workload("hotspot", scale=0.2, iterations=4)
        config = SimulatorConfig(engine="fast", prefetcher="tbn",
                                 eviction="tbn", **overrides)
        runtime = UvmRuntime(config)
        stats = runtime.run_workload(workload)
        return runtime.simulator, stats

    def test_every_retired_access_is_deferred_and_compressed(self):
        sim, stats = self._run()
        counts = sim.deferral_counts
        assert set(counts) == set(DEFERRAL_COUNTERS)
        assert counts["accesses_deferred"] == _retired(stats)
        assert 0 < counts["flushes"] <= counts["pages_replayed"] \
            < counts["accesses_deferred"]
        assert not sim._access_log

    def test_counts_stay_out_of_stats(self):
        sim, stats = self._run()
        payload = stats.to_json()
        for counter in DEFERRAL_COUNTERS:
            assert counter not in payload

    @pytest.mark.parametrize("mode", ["record_access_trace", "l2_enabled"])
    def test_access_trace_and_l2_modes_defer_too(self, mode):
        sim, stats = self._run(**{mode: True})
        assert sim.deferral_counts["accesses_deferred"] == _retired(stats)

    @pytest.mark.parametrize(
        "workload, kwargs, prefetcher, eviction, over, deferred, flushes, "
        "replayed", [cell[1:] for cell in DEFERRAL_CELLS],
        ids=[cell[0] for cell in DEFERRAL_CELLS])
    def test_counts_pinned(self, workload, kwargs, prefetcher, eviction,
                           over, deferred, flushes, replayed):
        """The counters are deterministic: these are the exact figures the
        PERFORMANCE.md table quotes, at full scale.  Invariant checks stay
        off, as in a production run: each check is an observation point
        that flushes the log."""
        workload = make_workload(workload, **kwargs)
        overrides = {"engine": "fast", "prefetcher": prefetcher,
                     "eviction": eviction,
                     "check_invariants_on_completion": False}
        config = SimulatorConfig(**overrides) if over is None else \
            oversubscribed(workload.footprint_bytes, over, **overrides)
        runtime = UvmRuntime(config)
        runtime.run_workload(workload)
        assert runtime.simulator.deferral_counts == {
            "accesses_deferred": deferred, "flushes": flushes,
            "pages_replayed": replayed}


class TestExtendsBatchedHook:
    """Which eviction policies the fast engine's flush hands every
    logged access instead of the compressed window."""

    def test_only_an_on_accessed_below_a_batch_form(self):
        from repro.core.evict.lru4k import Lru4kEviction
        from repro.core.evict.random_e import RandomEviction
        from repro.core.evict.tbn import TreeBasedNeighborhoodPreEviction
        from repro.core.fastpath import extends_batched_hook

        class Extended(TreeBasedNeighborhoodPreEviction):
            def on_accessed(self, page, ctx):
                super().on_accessed(page, ctx)

        class OwnBatch(Extended):
            def on_accessed_many(self, pages, ctx):
                super().on_accessed_many(pages, ctx)

        class BatchOnly(Lru4kEviction):
            def on_accessed_many(self, pages, ctx):
                super().on_accessed_many(pages, ctx)

        class GenericBatch(RandomEviction):
            def on_accessed(self, page, ctx):
                super().on_accessed(page, ctx)

        assert extends_batched_hook(Extended())
        for policy in (TreeBasedNeighborhoodPreEviction(), Lru4kEviction(),
                       OwnBatch(), BatchOnly(), GenericBatch()):
            assert not extends_batched_hook(policy), type(policy)
