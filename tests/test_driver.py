"""Focused driver tests: batching, gating, trimming, and write-back paths."""

import pytest

from repro import constants
from repro.config import SimulatorConfig
from repro.core.engine import Simulator
from repro.core.plans import MigrationPlan, TransferGroup
from repro.errors import SimulationError
from repro.gpu.kernel import KernelSpec, ThreadBlockSpec, WarpSpec
from repro.memory.page import PageState

MIB = constants.MIB
FAULT_NS = constants.FAULT_HANDLING_LATENCY_NS


def one_warp_kernel(pages, writes=False, name="k"):
    return KernelSpec(name, [ThreadBlockSpec([
        WarpSpec([(p, writes) for p in pages])
    ])])


def make_sim(**overrides):
    overrides.setdefault("num_sms", 1)
    return Simulator(SimulatorConfig(**overrides))


class TestFaultBatching:
    def test_concurrent_faults_batch(self):
        sim = Simulator(SimulatorConfig(num_sms=4, prefetcher="none"))
        alloc = sim.malloc_managed("a", MIB)
        base = alloc.page_range[0]
        # 4 TBs on 4 SMs fault simultaneously on distinct pages.
        tbs = [ThreadBlockSpec([WarpSpec([(base + i * 64, False)])])
               for i in range(4)]
        sim.launch_kernel(KernelSpec("k", tbs))
        sim.synchronize()
        assert sim.stats.far_faults == 4
        # All four faults land before the driver's service event fires, so
        # they are drained as a single batch.
        assert sim.stats.fault_batches == 1

    def test_serialized_handling_charges_per_fault(self):
        sim_serial = make_sim(prefetcher="none",
                              batch_fault_handling=False)
        sim_batched = make_sim(prefetcher="none",
                               batch_fault_handling=True)
        for sim in (sim_serial, sim_batched):
            alloc = sim.malloc_managed("a", MIB)
            base = alloc.page_range[0]
            sim.launch_kernel(one_warp_kernel(range(base, base + 32)))
            sim.synchronize()
        assert sim_serial.stats.total_fault_handling_ns \
            >= 32 * FAULT_NS * 0.99
        # One warp faulting serially: batches of one either way, but the
        # batched model would amortize concurrent faults (none here).
        assert sim_batched.stats.total_fault_handling_ns \
            == pytest.approx(sim_serial.stats.total_fault_handling_ns)

    def test_mshr_merge_does_not_duplicate_faults(self):
        sim = Simulator(SimulatorConfig(num_sms=2, prefetcher="none"))
        alloc = sim.malloc_managed("a", MIB)
        base = alloc.page_range[0]
        # Two warps on two SMs touch the SAME page.
        tbs = [ThreadBlockSpec([WarpSpec([(base, False)])])
               for _ in range(2)]
        sim.launch_kernel(KernelSpec("k", tbs))
        sim.synchronize()
        assert sim.stats.far_faults == 1
        assert sim.stats.pages_migrated == 1
        assert sim.stats.mshr_merges >= 1


class TestPrefetchGate:
    def capacity_pages(self, sim):
        return sim.frames.capacity

    def test_gate_closes_only_at_capacity(self):
        sim = make_sim(prefetcher="tbn", eviction="lru4k",
                       device_memory_bytes=2 * MIB,
                       disable_prefetch_on_oversubscription=True)
        alloc = sim.malloc_managed("a", 3 * MIB)
        base = alloc.page_range[0]
        # Touch half the capacity: gate stays open.
        sim.launch_kernel(one_warp_kernel(range(base, base + 128)))
        sim.synchronize()
        assert sim.driver.prefetch_enabled
        # Touch past capacity: gate closes.
        sim.launch_kernel(one_warp_kernel(
            range(base + 128, base + alloc.num_pages), name="k2"
        ))
        sim.synchronize()
        assert not sim.driver.prefetch_enabled

    def test_gate_stays_open_when_configured(self):
        sim = make_sim(prefetcher="tbn", eviction="tbn",
                       device_memory_bytes=2 * MIB,
                       disable_prefetch_on_oversubscription=False)
        alloc = sim.malloc_managed("a", 3 * MIB)
        base = alloc.page_range[0]
        sim.launch_kernel(one_warp_kernel(range(base, base
                                                + alloc.num_pages)))
        sim.synchronize()
        assert sim.driver.prefetch_enabled

    def test_unbounded_memory_never_gates(self):
        sim = make_sim(prefetcher="tbn", eviction="lru4k")
        alloc = sim.malloc_managed("a", 4 * MIB)
        base = alloc.page_range[0]
        sim.launch_kernel(one_warp_kernel(range(base, base + 1024)))
        sim.synchronize()
        assert sim.driver.prefetch_enabled


class TestPrefetchBudget:
    def test_eviction_makes_room_for_whole_plan(self):
        """A fault whose prefetch expansion exceeds free memory triggers
        eviction for the expansion too, and capacity is never exceeded."""
        sim = make_sim(prefetcher="tbn", eviction="lru4k",
                       device_memory_bytes=MIB,
                       disable_prefetch_on_oversubscription=False)
        alloc = sim.malloc_managed("a", 2 * MIB)
        base = alloc.page_range[0]
        sim.launch_kernel(one_warp_kernel(range(base, base + 256)))
        sim.synchronize()
        sim.launch_kernel(one_warp_kernel([base + 256], name="k2"))
        sim.synchronize()
        assert sim.frames.used <= sim.frames.capacity
        assert sim.stats.pages_evicted >= 1
        sim.check_invariants()

    def test_fault_pages_exceeding_capacity_raise(self):
        sim = Simulator(SimulatorConfig(
            num_sms=8, prefetcher="none", eviction="lru4k",
            device_memory_bytes=4 * 4096,
        ))
        alloc = sim.malloc_managed("a", MIB)
        base = alloc.page_range[0]
        # 8 simultaneous faults with only 4 frames and nothing evictable.
        tbs = [ThreadBlockSpec([WarpSpec([(base + i, False)])])
               for i in range(8)]
        with pytest.raises(Exception):
            sim.launch_kernel(KernelSpec("k", tbs))
            sim.synchronize()


class TestWritebackPaths:
    def test_lru4k_writes_back_only_dirty(self):
        sim = make_sim(prefetcher="none", eviction="lru4k",
                       device_memory_bytes=MIB)
        alloc = sim.malloc_managed("a", MIB + 64 * 4096)
        base = alloc.page_range[0]
        # Fill memory with clean pages, then overflow.
        sim.launch_kernel(one_warp_kernel(range(base, base + 256)))
        sim.launch_kernel(one_warp_kernel(
            range(base + 256, base + 320), name="k2"
        ))
        sim.synchronize()
        assert sim.stats.pages_evicted == 64
        assert sim.stats.pages_written_back == 0
        assert sim.stats.pages_dropped_clean == 64

    def test_unit_writeback_ignores_cleanliness(self):
        sim = make_sim(prefetcher="sequential-local",
                       eviction="sequential-local",
                       device_memory_bytes=MIB,
                       disable_prefetch_on_oversubscription=False)
        alloc = sim.malloc_managed("a", MIB + 64 * 4096)
        base = alloc.page_range[0]
        sim.launch_kernel(one_warp_kernel(range(base, base
                                                + alloc.num_pages)))
        sim.synchronize()
        assert sim.stats.pages_dropped_clean == 0
        assert sim.stats.pages_written_back == sim.stats.pages_evicted


class TestBookkeeping:
    """Per-allocation counters of an eviction round and completed groups."""

    def migrate(self, sim, groups):
        plan = MigrationPlan(groups=groups)
        sim.driver._execute_migration(plan, now_ns=sim.now,
                                      batch_start_ns=sim.now,
                                      batched_handling=True)
        sim.synchronize()

    def test_counters_fold_per_allocation_in_first_seen_order(self):
        sim = make_sim(num_sms=2, prefetcher="none", eviction="lru4k",
                       device_memory_bytes=16 * MIB)
        a = sim.malloc_managed("a", 4 * MIB)
        b = sim.malloc_managed("b", MIB)
        edge = a.page_range[0] + 511     # last page of a's first 2 MB chunk
        b0 = b.page_range[0]
        # Round 1: b's group completes first, then a group crossing a's
        # chunk boundary; all pages prefetched (no warp waits on them).
        self.migrate(sim, [TransferGroup([b0, b0 + 1]),
                           TransferGroup([edge, edge + 1])])
        assert list(sim.stats.per_allocation) == ["b", "a"]
        # One eviction round over both allocations, one page dirty.
        sim.page_table.mark_access(b0, True)
        for sm in sim.sms:
            for page in (b0, edge, edge + 1):
                sm.tlb.insert(page)
        assert sim.driver._evict(4, sim.now) == 4
        sim.synchronize()
        assert all(len(sm.tlb) == 0 for sm in sim.sms)
        # Round 2: edge and edge+1 re-migrate (thrashed), edge+1 and
        # edge+2 are prefetched; b0 re-migrates as a fault page.
        self.migrate(sim, [
            TransferGroup([edge, edge + 1, edge + 2],
                          fault_pages=frozenset({edge})),
            TransferGroup([b0], fault_pages=frozenset({b0})),
        ])
        per = sim.stats.per_allocation
        assert list(per) == ["b", "a"]
        assert (per["a"].pages_migrated, per["a"].pages_thrashed,
                per["a"].pages_prefetched, per["a"].pages_evicted) \
            == (5, 2, 4, 2)
        assert (per["b"].pages_migrated, per["b"].pages_thrashed,
                per["b"].pages_prefetched, per["b"].pages_evicted) \
            == (3, 1, 2, 2)
        stats = sim.stats
        assert (stats.pages_migrated, stats.pages_thrashed,
                stats.pages_prefetched, stats.pages_evicted) == (8, 3, 6, 4)
        assert stats.eviction_events == 1
        assert (stats.pages_written_back, stats.pages_dropped_clean) \
            == (1, 3)
        sim.check_invariants()


class TestUserPrefetch:
    def test_prefetch_range_skips_resident_pages(self):
        sim = make_sim(prefetcher="none")
        alloc = sim.malloc_managed("a", MIB)
        base = alloc.page_range[0]
        sim.launch_kernel(one_warp_kernel(range(base, base + 8)))
        sim.synchronize()
        migrated_before = sim.stats.pages_migrated
        sim.prefetch_async("a")
        sim.synchronize()
        assert sim.stats.pages_migrated - migrated_before \
            == alloc.num_pages - 8

    def test_prefetch_range_capped_at_large_page_transfers(self):
        sim = make_sim(prefetcher="none")
        sim.malloc_managed("a", 4 * MIB)
        sim.prefetch_async("a")
        sim.synchronize()
        biggest = max(sim.stats.h2d.histogram)
        assert biggest <= 2 * MIB

    def test_prefetch_range_respects_capacity(self):
        sim = make_sim(prefetcher="none", eviction="lru4k",
                       device_memory_bytes=MIB)
        alloc = sim.malloc_managed("a", 2 * MIB)
        base = alloc.page_range[0]
        sim.launch_kernel(one_warp_kernel(range(base, base + 256)))
        sim.synchronize()
        sim.prefetch_async("a")  # wants 2MB against a 1MB device
        sim.synchronize()
        assert sim.frames.used <= sim.frames.capacity
        sim.check_invariants()


class TestRangeBoundsValidation:
    """prefetch_async / cpu_access must reject out-of-allocation ranges.

    Regression: these used to silently build global page indices past the
    allocation's reserved VA (or into a neighbouring allocation) and
    corrupt its residency.
    """

    def _sim_with_alloc(self):
        sim = make_sim()
        sim.malloc_managed("a", MIB)        # 256 pages
        sim.malloc_managed("b", MIB)        # neighbour that must stay cold
        return sim

    def test_prefetch_negative_first_page(self):
        sim = self._sim_with_alloc()
        with pytest.raises(SimulationError, match="prefetch_async"):
            sim.prefetch_async("a", first_page=-1)

    def test_prefetch_oversized_num_pages(self):
        sim = self._sim_with_alloc()
        with pytest.raises(SimulationError, match="outside allocation"):
            sim.prefetch_async("a", first_page=0, num_pages=257)

    def test_prefetch_range_past_end(self):
        sim = self._sim_with_alloc()
        with pytest.raises(SimulationError, match="'a' with 256 pages"):
            sim.prefetch_async("a", first_page=200, num_pages=100)

    def test_prefetch_negative_num_pages(self):
        sim = self._sim_with_alloc()
        with pytest.raises(SimulationError, match="num_pages=-4"):
            sim.prefetch_async("a", first_page=8, num_pages=-4)

    def test_cpu_access_out_of_range(self):
        sim = self._sim_with_alloc()
        with pytest.raises(SimulationError, match="cpu_access"):
            sim.cpu_access("a", first_page=256, num_pages=1)

    def test_rejected_range_leaves_neighbour_untouched(self):
        sim = self._sim_with_alloc()
        with pytest.raises(SimulationError):
            sim.prefetch_async("a", num_pages=512)  # would spill into "b"
        sim.synchronize()
        assert set(sim.residency_map("b")) == {PageState.INVALID}
        assert sim.frames.used == 0

    def test_full_allocation_default_still_works(self):
        sim = self._sim_with_alloc()
        sim.prefetch_async("a")
        sim.synchronize()
        assert set(sim.residency_map("a")) == {PageState.VALID}
