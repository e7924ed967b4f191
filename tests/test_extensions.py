"""Tests for the extension features: radix page-walk model, finite fault
buffer, the Zheng sequential prefetcher, and the adaptive eviction policy."""

import random

import pytest

from repro import constants
from repro.config import SimulatorConfig, oversubscribed
from repro.core.engine import Simulator
from repro.core.evict import make_eviction_policy
from repro.core.prefetch import make_prefetcher
from repro.errors import ConfigurationError
from repro.gpu.kernel import KernelSpec, ThreadBlockSpec, WarpSpec
from repro.memory.page import PageState
from repro.memory.radix_walker import (
    FixedWalker,
    PageWalkCache,
    RadixWalker,
    make_walker,
)
from repro.runtime import UvmRuntime, run_workload
from repro.workloads.registry import make_workload
from repro.workloads.synthetic import RandomWorkload, StreamingWorkload

MIB = constants.MIB


class TestPageWalkCache:
    def test_hit_miss_accounting(self):
        pwc = PageWalkCache(4)
        assert not pwc.lookup(1, 0)
        pwc.insert(1, 0)
        assert pwc.lookup(1, 0)
        assert pwc.hits == 1 and pwc.misses == 1

    def test_lru_eviction(self):
        pwc = PageWalkCache(2)
        pwc.insert(1, 0)
        pwc.insert(1, 1)
        pwc.lookup(1, 0)
        pwc.insert(1, 2)  # evicts (1, 1)
        assert pwc.lookup(1, 0)
        assert not pwc.lookup(1, 1)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            PageWalkCache(0)


class TestRadixWalker:
    def test_cold_walk_costs_all_levels(self):
        walker = RadixWalker(cycles_per_level=50)
        assert walker.walk_cycles(page=0) == 4 * 50

    def test_warm_walk_short_circuits_to_leaf(self):
        walker = RadixWalker(cycles_per_level=50)
        walker.walk_cycles(page=0)
        # Same 2MB region: PT-level entry cached -> one access.
        assert walker.walk_cycles(page=1) == 50

    def test_new_2mb_region_costs_two_levels(self):
        walker = RadixWalker(cycles_per_level=50)
        walker.walk_cycles(page=0)
        # Different 2MB region, same 1GB region: PD-level hit -> 2 levels.
        assert walker.walk_cycles(page=512) == 2 * 50

    def test_mean_levels_diagnostic(self):
        walker = RadixWalker(cycles_per_level=50)
        walker.walk_cycles(0)
        walker.walk_cycles(1)
        assert walker.mean_levels_per_walk == pytest.approx(2.5)

    def test_fixed_walker_constant(self):
        walker = FixedWalker(100)
        assert walker.walk_cycles(0) == 100
        assert walker.walk_cycles(10_000_000) == 100

    def test_factory(self):
        assert isinstance(make_walker("fixed", 100), FixedWalker)
        assert isinstance(make_walker("radix", 100), RadixWalker)
        with pytest.raises(ConfigurationError):
            make_walker("bogus", 100)

    def test_radix_model_in_simulator(self):
        fixed = run_workload(
            StreamingWorkload(pages=256),
            SimulatorConfig(num_sms=2, prefetcher="tbn",
                            page_walk_model="fixed"),
        )
        radix = run_workload(
            StreamingWorkload(pages=256),
            SimulatorConfig(num_sms=2, prefetcher="tbn",
                            page_walk_model="radix"),
        )
        # Same functional behaviour, different walk timing.
        assert radix.pages_migrated == fixed.pages_migrated
        assert radix.total_kernel_time_ns != fixed.total_kernel_time_ns

    def test_random_pattern_walks_cost_more_than_sequential(self):
        def mean_levels(workload):
            sim_config = SimulatorConfig(num_sms=2, prefetcher="none",
                                         page_walk_model="radix",
                                         pwc_entries=8)
            runtime = UvmRuntime(sim_config)
            runtime.run_workload(workload)
            return runtime.simulator.walker.mean_levels_per_walk

        sequential = mean_levels(StreamingWorkload(pages=512))
        scattered = mean_levels(RandomWorkload(pages=2048,
                                               touches_per_iteration=512))
        assert scattered > sequential


class TestFaultBatchLimit:
    def test_batches_split_at_limit(self):
        config = SimulatorConfig(num_sms=8, prefetcher="none",
                                 fault_batch_limit=2)
        sim = Simulator(config)
        alloc = sim.malloc_managed("a", MIB)
        base = alloc.page_range[0]
        tbs = [ThreadBlockSpec([WarpSpec([(base + i, False)])])
               for i in range(8)]
        sim.launch_kernel(KernelSpec("k", tbs))
        sim.synchronize()
        assert sim.stats.far_faults == 8
        # 8 faults with a 2-fault buffer -> at least 4 batches.
        assert sim.stats.fault_batches >= 4
        sim.check_invariants()

    def test_zero_limit_means_unlimited(self):
        config = SimulatorConfig(num_sms=8, prefetcher="none",
                                 fault_batch_limit=0)
        sim = Simulator(config)
        alloc = sim.malloc_managed("a", MIB)
        base = alloc.page_range[0]
        tbs = [ThreadBlockSpec([WarpSpec([(base + i, False)])])
               for i in range(8)]
        sim.launch_kernel(KernelSpec("k", tbs))
        sim.synchronize()
        assert sim.stats.fault_batches <= 2

    def test_negative_limit_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulatorConfig(fault_batch_limit=-1)


class TestZhengSequential:
    def test_cursor_advances_in_va_order(self):
        from repro.memory.addressing import AddressSpace
        from repro.memory.allocator import ManagedAllocator
        from repro.memory.frames import FramePool
        from repro.memory.page_table import GpuPageTable
        from repro.core.context import UvmContext
        from repro.stats import SimStats

        config = SimulatorConfig()
        space = AddressSpace()
        allocator = ManagedAllocator(space)
        allocator.malloc_managed("a", 4 * MIB)
        ctx = UvmContext(config, space, allocator, GpuPageTable(),
                         FramePool(None), SimStats())
        alloc = allocator.get("a")
        base = alloc.page_range[0]
        prefetcher = make_prefetcher("zheng-sequential")
        # Fault far into the allocation: prefetch still starts at page 0.
        plan = prefetcher.plan([base + 500], ctx)
        planned = set(plan.all_pages())
        assert base in planned
        assert base + 63 in planned
        assert plan.total_pages == 65  # 64-page window + the fault
        # Second batch: cursor moved past the first window.
        plan2 = prefetcher.plan([base + 501], ctx)
        assert base + 64 in set(plan2.all_pages())

    @staticmethod
    def _per_page_window(prefetcher, ctx, alloc, cursor, planned):
        """The cursor scan page by page, as a reference."""
        taken = []
        while len(taken) < prefetcher.WINDOW_PAGES \
                and cursor < alloc.num_pages:
            candidate = alloc.page_range[0] + cursor
            cursor += 1
            if candidate not in planned and \
                    ctx.page_table.state_of(candidate) is PageState.INVALID:
                taken.append(candidate)
        return taken, cursor

    @pytest.mark.parametrize("seed", range(6))
    def test_window_matches_per_page_scan(self, seed):
        """Range queries skip resident and faulted pages exactly as a
        per-page ``state_of`` scan does, and leave the same cursor."""
        from repro.core.context import UvmContext
        from repro.memory.addressing import AddressSpace
        from repro.memory.allocator import ManagedAllocator
        from repro.memory.frames import FramePool
        from repro.memory.page_table import GpuPageTable
        from repro.stats import SimStats

        rng = random.Random(seed)
        space = AddressSpace()
        allocator = ManagedAllocator(space)
        allocator.malloc_managed("a", MIB)  # 256 pages: the scan ends
        ctx = UvmContext(SimulatorConfig(), space, allocator,
                         GpuPageTable(), FramePool(None), SimStats())
        alloc = allocator.get("a")
        for page in alloc.page_range:
            if rng.random() < 0.4:
                ctx.page_table.begin_migration(page)
                if rng.random() < 0.5:
                    ctx.page_table.complete_migration(page)
        prefetcher = make_prefetcher("zheng-sequential")
        cursor = 0
        while cursor < alloc.num_pages:
            faults = sorted(rng.sample(
                ctx.page_table.invalid_pages_in_range(
                    alloc.page_range[0], alloc.page_range[-1] + 1), 2))
            expected, cursor = self._per_page_window(
                prefetcher, ctx, alloc, cursor, set(faults))
            plan = prefetcher.plan(faults, ctx)
            assert sorted(plan.all_pages()) == sorted(faults + expected)
            assert prefetcher._cursors["a"] == cursor

    def test_runs_end_to_end(self):
        stats = run_workload(
            StreamingWorkload(pages=256),
            SimulatorConfig(num_sms=2, prefetcher="zheng-sequential"),
            check_invariants=True,
        )
        assert stats.pages_migrated == 256
        assert stats.far_faults < 256


class TestAdaptiveEviction:
    def test_registered(self):
        policy = make_eviction_policy("adaptive")
        assert policy.cascading

    def test_runs_under_pressure_with_invariants(self):
        workload = make_workload("hotspot", scale=0.25)
        config = oversubscribed(
            workload.footprint_bytes, 115.0,
            num_sms=4, prefetcher="tbn", eviction="adaptive",
            disable_prefetch_on_oversubscription=False,
        )
        runtime = UvmRuntime(config)
        stats = runtime.run_workload(workload, check_invariants=True)
        assert stats.pages_evicted > 0

    def test_thrash_suspends_cascading(self):
        """Cyclic reuse drives the thrash rate up; the policy reacts by
        suspending cascades at some point during the run."""
        from repro.workloads.synthetic import CyclicScanWorkload

        workload = CyclicScanWorkload(pages=640, iterations=6)
        config = oversubscribed(
            workload.footprint_bytes, 115.0,
            num_sms=4, prefetcher="tbn", eviction="adaptive",
            disable_prefetch_on_oversubscription=False,
        )
        runtime = UvmRuntime(config)
        runtime.run_workload(workload)
        policy = runtime.simulator.driver.eviction
        # Either it is currently throttled or it saw enough thrash to have
        # completed at least one adaptation epoch.
        assert (not policy.cascading) or runtime.stats.pages_thrashed > 0

    def test_adaptive_never_worse_than_worst_static(self):
        """On a reuse-heavy workload the adaptive policy lands within the
        envelope of the two static policies it blends."""
        times = {}
        for eviction in ("sequential-local", "tbn", "adaptive"):
            workload = make_workload("srad", scale=0.25)
            config = oversubscribed(
                workload.footprint_bytes, 110.0,
                num_sms=4, prefetcher="tbn", eviction=eviction,
                disable_prefetch_on_oversubscription=False,
            )
            stats = UvmRuntime(config).run_workload(workload)
            times[eviction] = stats.total_kernel_time_ns
        worst = max(times["sequential-local"], times["tbn"])
        assert times["adaptive"] <= worst * 1.25
