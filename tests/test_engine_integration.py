"""End-to-end engine tests: fault handling, migration, eviction, timing."""

import pytest

from repro import constants
from repro.config import SimulatorConfig, oversubscribed
from repro.core.engine import Simulator, make_simulator
from repro.errors import SimulationError
from repro.gpu.kernel import KernelSpec, ThreadBlockSpec, WarpSpec
from repro.memory.page import PageState

MIB = constants.MIB
FAULT_NS = constants.FAULT_HANDLING_LATENCY_NS


def scan_kernel(base, num_pages, writes=False, warps_per_tb=2,
                pages_per_warp=32, name="scan", iteration=0):
    accesses = [(base + i, writes) for i in range(num_pages)]
    warps = [WarpSpec(accesses[i:i + pages_per_warp])
             for i in range(0, len(accesses), pages_per_warp)]
    tbs = [ThreadBlockSpec(warps[i:i + warps_per_tb])
           for i in range(0, len(warps), warps_per_tb)]
    return KernelSpec(name, tbs, iteration=iteration)


def make_sim(**overrides):
    overrides.setdefault("num_sms", 4)
    return Simulator(SimulatorConfig(**overrides))


class TestBasicExecution:
    def test_all_touched_pages_become_valid(self):
        sim = make_sim(prefetcher="none")
        alloc = sim.malloc_managed("a", MIB)
        base = alloc.page_range[0]
        sim.launch_kernel(scan_kernel(base, 256))
        sim.synchronize()
        assert sim.page_table.valid_count == 256
        for page in range(base, base + 256):
            assert sim.page_table.is_valid(page)
        sim.check_invariants()

    def test_on_demand_faults_once_per_page(self):
        sim = make_sim(prefetcher="none")
        alloc = sim.malloc_managed("a", MIB)
        sim.launch_kernel(scan_kernel(alloc.page_range[0], 128))
        sim.synchronize()
        assert sim.stats.far_faults == 128
        assert sim.stats.pages_migrated == 128
        assert sim.stats.pages_prefetched == 0

    def test_second_launch_hits_resident_pages(self):
        sim = make_sim(prefetcher="tbn")
        alloc = sim.malloc_managed("a", MIB)
        base = alloc.page_range[0]
        first = sim.launch_kernel(scan_kernel(base, 256))
        faults_after_first = sim.stats.far_faults
        second = sim.launch_kernel(scan_kernel(base, 256, iteration=1))
        assert sim.stats.far_faults == faults_after_first
        assert second < first / 5  # warm run is dramatically faster

    def test_writes_set_dirty(self):
        sim = make_sim(prefetcher="none")
        alloc = sim.malloc_managed("a", MIB)
        base = alloc.page_range[0]
        sim.launch_kernel(scan_kernel(base, 16, writes=True))
        sim.synchronize()
        assert sim.page_table.dirty_pages(list(range(base, base + 16))) \
            == list(range(base, base + 16))

    def test_kernel_time_includes_fault_latency(self):
        sim = make_sim(prefetcher="none", num_sms=1)
        alloc = sim.malloc_managed("a", MIB)
        base = alloc.page_range[0]
        duration = sim.launch_kernel(
            scan_kernel(base, 8, warps_per_tb=1, pages_per_warp=8)
        )
        # One warp faulting 8 times serially: at least 8 fault latencies.
        assert duration >= 8 * FAULT_NS

    def test_deadlock_detection(self):
        sim = make_sim()
        # A kernel touching unmanaged memory raises within the driver.
        kernel = scan_kernel(10, 1)
        with pytest.raises(Exception):
            sim.launch_kernel(kernel)


class TestPrefetcherIntegration:
    def test_tbn_reduces_faults_and_migrates_same_pages(self):
        results = {}
        for prefetcher in ("none", "tbn"):
            sim = make_sim(prefetcher=prefetcher)
            alloc = sim.malloc_managed("a", MIB)
            sim.launch_kernel(scan_kernel(alloc.page_range[0], 256))
            sim.synchronize()
            results[prefetcher] = sim.stats
        assert results["tbn"].far_faults < results["none"].far_faults / 4
        assert results["tbn"].pages_migrated == 256
        assert results["tbn"].h2d.average_bandwidth_gbps \
            > results["none"].h2d.average_bandwidth_gbps * 1.5

    def test_migrating_pages_merge_faults(self):
        sim = make_sim(prefetcher="tbn", num_sms=8)
        alloc = sim.malloc_managed("a", MIB)
        base = alloc.page_range[0]
        sim.launch_kernel(scan_kernel(base, 256, warps_per_tb=4,
                                      pages_per_warp=8))
        sim.synchronize()
        # With many warps hitting prefetched-in-flight pages, MSHR merges
        # must have occurred and never produced duplicate migrations.
        assert sim.stats.pages_migrated == 256
        sim.check_invariants()

    def test_user_prefetch_eliminates_faults(self):
        sim = make_sim(prefetcher="none")
        alloc = sim.malloc_managed("a", MIB)
        sim.prefetch_async("a")
        sim.synchronize()
        assert sim.page_table.valid_count == alloc.num_pages
        sim.launch_kernel(scan_kernel(alloc.page_range[0],
                                      alloc.num_pages))
        assert sim.stats.far_faults == 0


class TestOversubscription:
    def make_oversubscribed(self, footprint_pages=512, percent=110.0,
                            **overrides):
        sim = Simulator(oversubscribed(
            footprint_pages * 4096, percent, num_sms=4, **overrides
        ))
        alloc = sim.malloc_managed("a", footprint_pages * 4096)
        return sim, alloc

    def test_capacity_never_exceeded(self):
        sim, alloc = self.make_oversubscribed(
            prefetcher="tbn", eviction="tbn",
            disable_prefetch_on_oversubscription=False,
        )
        base = alloc.page_range[0]
        for it in range(3):
            sim.launch_kernel(scan_kernel(base, alloc.num_pages,
                                          writes=True, iteration=it))
        sim.synchronize()
        assert sim.frames.used <= sim.frames.capacity
        sim.check_invariants()
        assert sim.stats.pages_evicted > 0

    def test_prefetch_disabled_at_capacity_when_configured(self):
        sim, alloc = self.make_oversubscribed(
            prefetcher="tbn", eviction="lru4k",
            disable_prefetch_on_oversubscription=True,
        )
        base = alloc.page_range[0]
        sim.launch_kernel(scan_kernel(base, alloc.num_pages, writes=True))
        sim.synchronize()
        assert not sim.driver.prefetch_enabled
        # After the gate closes, migrations are 4KB on-demand: 4KB
        # transfers well beyond the initial prefetch phase.
        assert sim.stats.transfers_4kb > 0

    def test_prefetch_stays_enabled_for_preeviction_combo(self):
        sim, alloc = self.make_oversubscribed(
            prefetcher="tbn", eviction="tbn",
            disable_prefetch_on_oversubscription=False,
        )
        base = alloc.page_range[0]
        for it in range(2):
            sim.launch_kernel(scan_kernel(base, alloc.num_pages,
                                          iteration=it))
        sim.synchronize()
        assert sim.driver.prefetch_enabled

    def test_free_page_buffer_disables_prefetch_early(self):
        sim, alloc = self.make_oversubscribed(
            prefetcher="tbn", eviction="lru4k",
            free_page_buffer_fraction=0.10,
        )
        base = alloc.page_range[0]
        sim.launch_kernel(scan_kernel(base, alloc.num_pages))
        sim.synchronize()
        assert not sim.driver.prefetch_enabled
        # The buffer is maintained: free + pending >= target at the end.
        target = int(sim.frames.capacity * 0.10)
        sim.frames.settle(sim.now)
        assert sim.frames.free_now + sim.frames.pending_release \
            >= target - 1

    def test_thrashing_counted(self):
        sim, alloc = self.make_oversubscribed(
            prefetcher="tbn", eviction="lru2mb",
            disable_prefetch_on_oversubscription=False,
        )
        base = alloc.page_range[0]
        for it in range(3):
            sim.launch_kernel(scan_kernel(base, alloc.num_pages,
                                          iteration=it))
        sim.synchronize()
        assert sim.stats.pages_thrashed > 0

    def test_dirty_pages_written_back_clean_dropped(self):
        sim, alloc = self.make_oversubscribed(
            prefetcher="none", eviction="lru4k",
        )
        base = alloc.page_range[0]
        half = alloc.num_pages // 2
        sim.launch_kernel(scan_kernel(base, half, writes=True))
        sim.launch_kernel(scan_kernel(base + half, alloc.num_pages - half,
                                      writes=False, iteration=1))
        # Force pressure with a third pass over the dirty half.
        sim.launch_kernel(scan_kernel(base, half, writes=False,
                                      iteration=2))
        sim.synchronize()
        stats = sim.stats
        assert stats.pages_evicted == (stats.pages_written_back
                                       + stats.pages_dropped_clean)

    def test_eviction_units_write_back_as_whole_blocks(self):
        sim, alloc = self.make_oversubscribed(
            prefetcher="sequential-local", eviction="sequential-local",
            disable_prefetch_on_oversubscription=False,
        )
        base = alloc.page_range[0]
        for it in range(2):
            sim.launch_kernel(scan_kernel(base, alloc.num_pages,
                                          iteration=it))
        sim.synchronize()
        # SLe writes whole 64KB blocks: d2h histogram has 64KB entries and
        # every evicted page was written back (clean or dirty).
        assert sim.stats.d2h.transfers_of_size(64 * 1024) > 0
        assert sim.stats.pages_dropped_clean == 0


class TestDeterminism:
    def test_same_seed_same_results(self):
        def run():
            sim = make_sim(prefetcher="random", eviction="random",
                           seed=11,
                           device_memory_bytes=MIB,
                           disable_prefetch_on_oversubscription=False)
            alloc = sim.malloc_managed("a", MIB + 256 * 1024)
            base = alloc.page_range[0]
            for it in range(2):
                sim.launch_kernel(scan_kernel(base, alloc.num_pages,
                                              iteration=it))
            sim.synchronize()
            return (sim.stats.total_kernel_time_ns, sim.stats.far_faults,
                    sim.stats.pages_evicted)

        assert run() == run()


class TestInvariantsAcrossPolicies:
    @pytest.mark.parametrize("prefetcher,eviction", [
        ("none", "lru4k"),
        ("random", "random"),
        ("sequential-local", "sequential-local"),
        ("tbn", "tbn"),
        ("tbn", "lru2mb"),
        ("zheng512", "lru4k"),
        ("tbn", "lru4k-validated"),
    ])
    def test_invariants_hold_under_pressure(self, prefetcher, eviction):
        sim = Simulator(oversubscribed(
            2 * MIB, 120.0, num_sms=4,
            prefetcher=prefetcher, eviction=eviction,
            disable_prefetch_on_oversubscription=False,
        ))
        alloc = sim.malloc_managed("a", 2 * MIB)
        base = alloc.page_range[0]
        for it in range(3):
            sim.launch_kernel(scan_kernel(base, alloc.num_pages,
                                          writes=(it % 2 == 0),
                                          iteration=it))
        sim.synchronize()
        sim.check_invariants()
        assert sim.page_table.valid_count <= sim.frames.capacity

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_tlb_mapping_a_non_valid_page_is_caught(self, engine):
        sim = make_simulator(oversubscribed(
            2 * MIB, 120.0, num_sms=4, engine=engine,
        ))
        alloc = sim.malloc_managed("a", 2 * MIB)
        sim.launch_kernel(scan_kernel(alloc.page_range[0], alloc.num_pages))
        sim.synchronize()
        sim.check_invariants()
        evicted = next(page for page in alloc.page_range
                       if sim.page_table.state_of(page)
                       is PageState.INVALID)
        sim.sms[1].tlb.insert(evicted)
        with pytest.raises(SimulationError,
                           match=f"SM 1 TLB maps page {evicted} in state "
                                 f"PageState.INVALID"):
            sim.check_invariants()

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_tree_view_leaked_past_its_step_is_caught(self, engine):
        """Buddy trees are views that last for one driver step; one built
        outside a step (here by a direct ``tree_for_block`` call) is
        reported between events."""
        sim = make_simulator(oversubscribed(
            2 * MIB, 120.0, num_sms=4, engine=engine, prefetcher="tbn",
            eviction="tbn",
        ))
        alloc = sim.malloc_managed("a", 2 * MIB)
        sim.launch_kernel(scan_kernel(alloc.page_range[0], alloc.num_pages))
        sim.synchronize()
        sim.check_invariants()
        block = sim.ctx.space.block_of_page(alloc.page_range[0])
        tree = sim.ctx.tree_for_block(block)
        with pytest.raises(SimulationError,
                           match=f"1 buddy-tree view\\(s\\) outlived "
                                 f"their driver step \\(first at block "
                                 f"{tree.first_block}\\)"):
            sim.check_invariants()
