"""Tests for page table, TLB, MSHR, and frame pool."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    DeviceMemoryError,
    PageTableError,
    SimulationError,
)
from repro.memory.frames import FramePool
from repro.memory.mshr import FarFaultMSHR
from repro.memory.page import PageState
from repro.memory.page_table import GpuPageTable
from repro.memory.tlb import Tlb


class TestPageTable:
    def test_unknown_page_is_invalid(self):
        pt = GpuPageTable()
        assert pt.state_of(42) is PageState.INVALID
        assert not pt.is_valid(42)

    def test_migration_lifecycle(self):
        pt = GpuPageTable()
        pt.begin_migration(7)
        assert pt.state_of(7) is PageState.MIGRATING
        pt.complete_migration(7, time_ns=100.0)
        assert pt.is_valid(7)
        assert pt.valid_count == 1
        pte = pt.invalidate(7)
        assert pte.state is PageState.INVALID
        assert pt.valid_count == 0

    def test_double_migration_rejected(self):
        pt = GpuPageTable()
        pt.begin_migration(7)
        with pytest.raises(PageTableError):
            pt.begin_migration(7)

    def test_complete_without_begin_rejected(self):
        pt = GpuPageTable()
        with pytest.raises(PageTableError):
            pt.complete_migration(7, 0.0)

    def test_invalidate_non_valid_rejected(self):
        pt = GpuPageTable()
        with pytest.raises(PageTableError):
            pt.invalidate(7)
        pt.begin_migration(7)
        with pytest.raises(PageTableError):
            pt.invalidate(7)

    def test_access_flags(self):
        pt = GpuPageTable()
        pt.begin_migration(7)
        pt.complete_migration(7, 0.0)
        pte = pt.entry(7)
        assert not pte.accessed and not pte.dirty
        pt.mark_access(7, 5.0, is_write=False)
        assert pte.accessed and not pte.dirty
        pt.mark_access(7, 6.0, is_write=True)
        assert pte.dirty
        assert pte.last_access_ns == 6.0

    def test_access_to_invalid_rejected(self):
        pt = GpuPageTable()
        with pytest.raises(PageTableError):
            pt.mark_access(7, 0.0, is_write=False)

    def test_eviction_clears_flags_and_counts_migrations(self):
        pt = GpuPageTable()
        pt.begin_migration(7)
        pt.complete_migration(7, 0.0)
        pt.mark_access(7, 1.0, is_write=True)
        pt.invalidate(7)
        pt.begin_migration(7)
        pt.complete_migration(7, 2.0)
        pte = pt.entry(7)
        assert pte.migration_count == 2
        assert not pte.dirty

    def test_block_queries(self):
        pt = GpuPageTable()
        for page in (0, 1, 5):
            pt.begin_migration(page)
            pt.complete_migration(page, 0.0)
        pt.begin_migration(2)  # in flight
        assert pt.valid_pages_in_block(0) == [0, 1, 5]
        invalid = pt.invalid_pages_in_block(0)
        assert 2 not in invalid  # MIGRATING is not INVALID
        assert set(invalid) == set(range(16)) - {0, 1, 2, 5}

    def test_dirty_pages_query(self):
        pt = GpuPageTable()
        for page in (3, 4):
            pt.begin_migration(page)
            pt.complete_migration(page, 0.0)
        pt.mark_access(3, 1.0, is_write=True)
        assert pt.dirty_pages([3, 4, 9]) == [3]


class TestTlb:
    def test_hit_and_miss_counting(self):
        tlb = Tlb(4)
        assert not tlb.lookup(1)
        tlb.insert(1)
        assert tlb.lookup(1)
        assert tlb.hits == 1 and tlb.misses == 1

    def test_lru_replacement(self):
        tlb = Tlb(2)
        tlb.insert(1)
        tlb.insert(2)
        tlb.lookup(1)       # 2 becomes LRU
        tlb.insert(3)       # evicts 2
        assert 1 in tlb and 3 in tlb and 2 not in tlb

    def test_invalidate(self):
        tlb = Tlb(4)
        tlb.insert(1)
        tlb.insert(2)
        assert tlb.invalidate_many({1, 3}) == {1}
        assert tlb.invalidate_many({1}) == set()
        assert 1 not in tlb and 2 in tlb

    def test_flush(self):
        tlb = Tlb(4)
        for page in range(4):
            tlb.insert(page)
        tlb.flush()
        assert len(tlb) == 0

    def test_reinsert_refreshes(self):
        tlb = Tlb(2)
        tlb.insert(1)
        tlb.insert(2)
        tlb.insert(1)  # refresh, no growth
        assert len(tlb) == 2
        tlb.insert(3)  # evicts 2
        assert 2 not in tlb

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            Tlb(0)


class TestMshr:
    def test_first_fault_is_new(self):
        mshr = FarFaultMSHR(8)
        assert mshr.register(1, "warp-a", 0.0)
        assert not mshr.register(1, "warp-b", 1.0)
        assert mshr.merges == 1
        assert len(mshr) == 1

    def test_complete_returns_waiters(self):
        mshr = FarFaultMSHR(8)
        mshr.register(1, "warp-a", 0.0)
        mshr.register(1, "warp-b", 0.0)
        assert mshr.complete(1) == ["warp-a", "warp-b"]
        assert len(mshr) == 0

    def test_complete_unknown_rejected(self):
        mshr = FarFaultMSHR(8)
        with pytest.raises(SimulationError):
            mshr.complete(1)

    def test_none_waiter_not_recorded(self):
        mshr = FarFaultMSHR(8)
        mshr.register(1, None, 0.0)
        assert mshr.complete(1) == []

    def test_overflow(self):
        mshr = FarFaultMSHR(2)
        mshr.register(1, None, 0.0)
        mshr.register(2, None, 0.0)
        with pytest.raises(SimulationError):
            mshr.register(3, None, 0.0)

    def test_peak_occupancy(self):
        mshr = FarFaultMSHR(8)
        mshr.register(1, None, 0.0)
        mshr.register(2, None, 0.0)
        mshr.complete(1)
        mshr.register(3, None, 0.0)
        assert mshr.peak_occupancy == 2


class TestFramePool:
    def test_unbounded_never_stalls(self):
        pool = FramePool(None)
        assert pool.allocate(10_000, 5.0) == 5.0
        assert pool.used == 10_000

    def test_allocate_from_free(self):
        pool = FramePool(10)
        assert pool.allocate(4, 0.0) == 0.0
        assert pool.free_now == 6
        assert pool.used == 4

    def test_allocate_waits_for_pending_release(self):
        pool = FramePool(4)
        pool.allocate(4, 0.0)
        pool.release(2, at_ns=100.0)
        # 2 frames needed, none free, 2 pending at t=100.
        assert pool.allocate(2, 10.0) == 100.0
        pool.check_conservation()

    def test_allocate_consumes_earliest_releases_first(self):
        pool = FramePool(4)
        pool.allocate(4, 0.0)
        pool.release(1, at_ns=300.0)
        pool.release(1, at_ns=100.0)
        assert pool.allocate(1, 0.0) == 100.0
        assert pool.allocate(1, 0.0) == 300.0

    def test_over_demand_raises(self):
        pool = FramePool(4)
        pool.allocate(4, 0.0)
        with pytest.raises(DeviceMemoryError):
            pool.allocate(1, 0.0)

    def test_release_more_than_used_raises(self):
        pool = FramePool(4)
        pool.allocate(2, 0.0)
        with pytest.raises(DeviceMemoryError):
            pool.release(3, 0.0)

    def test_settle_moves_past_releases_to_free(self):
        pool = FramePool(4)
        pool.allocate(4, 0.0)
        pool.release(2, at_ns=50.0)
        pool.settle(60.0)
        assert pool.free_now == 2
        pool.check_conservation()

    def test_occupancy(self):
        pool = FramePool(10)
        pool.allocate(5, 0.0)
        assert pool.occupancy() == pytest.approx(0.5)

    @given(st.lists(st.tuples(st.sampled_from(["alloc", "release"]),
                              st.integers(min_value=1, max_value=5)),
                    max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_conservation_under_random_traffic(self, ops):
        pool = FramePool(20)
        now = 0.0
        for op, count in ops:
            now += 10.0
            if op == "alloc":
                demand = min(count,
                             pool.free_now + pool.pending_release)
                if demand > 0:
                    pool.allocate(demand, now)
            else:
                give_back = min(count, pool.used)
                if give_back > 0:
                    pool.release(give_back, now + 100.0)
            pool.check_conservation()
