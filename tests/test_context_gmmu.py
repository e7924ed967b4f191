"""Tests for UvmContext helpers and the GMMU translation path."""

import pytest

from repro import constants
from repro.config import SimulatorConfig
from repro.core.context import UvmContext
from repro.core.driver import UvmDriver
from repro.core.gmmu import Gmmu
from repro.errors import PolicyError
from repro.gpu.kernel import WarpSpec
from repro.gpu.sm import StreamingMultiprocessor
from repro.gpu.warp import Warp
from repro.interconnect.bandwidth import BandwidthModel
from repro.interconnect.pcie import PcieLink
from repro.memory.addressing import AddressSpace
from repro.memory.allocator import ManagedAllocator
from repro.memory.frames import FramePool
from repro.memory.mshr import FarFaultMSHR
from repro.memory.page_table import GpuPageTable
from repro.stats import SimStats

MIB = constants.MIB
KIB = constants.KIB


def make_ctx(alloc_specs=(("a", 4 * MIB),), capacity=None):
    config = SimulatorConfig()
    space = AddressSpace()
    allocator = ManagedAllocator(space)
    for name, size in alloc_specs:
        allocator.malloc_managed(name, size)
    return UvmContext(config, space, allocator, GpuPageTable(),
                      FramePool(capacity), SimStats())


class TestTreeManagement:
    def test_tree_cached_per_region(self):
        ctx = make_ctx()
        alloc = ctx.allocator.get("a")
        page0 = alloc.page_range[0]
        tree_a = ctx.tree_for_page(page0)
        tree_b = ctx.tree_for_page(page0 + 100)  # same 2MB region
        assert tree_a is tree_b
        tree_c = ctx.tree_for_page(page0 + 512)  # next 2MB region
        assert tree_c is not tree_a
        assert len(ctx.all_trees()) == 2

    def test_remainder_tree_covers_padding_blocks(self):
        ctx = make_ctx(alloc_specs=(("a", 192 * KIB),))
        alloc = ctx.allocator.get("a")
        # The 192KB request was rounded to a 256KB (4-block) tree.
        tree = ctx.tree_for_page(alloc.page_range[0])
        assert tree.num_blocks == 4
        padding_block = tree.first_block + 3
        assert ctx.migratable_pages_in_block(padding_block) == []

    def test_adjust_trees_for_pages(self):
        ctx = make_ctx()
        alloc = ctx.allocator.get("a")
        pages = list(alloc.page_range[:20])
        for page in pages:
            ctx.page_table.begin_migration(page)
        tree = ctx.tree_for_page(pages[0])
        assert tree.root_valid_bytes == 20 * 4096
        ctx.adjust_trees_for_pages(pages, -1)
        assert tree.root_valid_bytes == 0
        ctx.adjust_trees_for_pages(pages, +1)
        assert tree.root_valid_bytes == 20 * 4096
        # The page table is unchanged: a fresh view reads it again.
        ctx.drop_tree_views()
        ctx.adjust_trees_for_pages(pages[:4], -1)
        assert ctx.tree_for_page(pages[0]).root_valid_bytes == 16 * 4096

    def test_view_reads_the_page_table(self):
        """Leaves count VALID and MIGRATING pages; a view lasts until it
        is dropped, and the next one reads the page table again."""
        ctx = make_ctx()
        base = ctx.allocator.get("a").page_range[0]
        ctx.page_table.begin_migration(base)
        ctx.page_table.begin_migration(base + 1)
        ctx.page_table.complete_migration(base + 1)
        ctx.page_table.begin_migration(base + 16)
        tree = ctx.tree_for_page(base)
        tree.check_consistency()
        assert tree.leaf_valid_bytes(tree.first_block) == 2 * 4096
        assert tree.leaf_valid_bytes(tree.first_block + 1) == 4096
        assert ctx.all_trees() == [tree]
        ctx.drop_tree_views()
        assert ctx.all_trees() == []
        assert ctx.tree_for_page(base) is not tree

    def test_adjust_rejects_bad_sign(self):
        ctx = make_ctx()
        with pytest.raises(PolicyError):
            ctx.adjust_trees_for_pages([0], 2)


class TestPageHelpers:
    def test_migratable_pages_excludes_valid_and_migrating(self):
        ctx = make_ctx()
        alloc = ctx.allocator.get("a")
        base = alloc.page_range[0]
        ctx.page_table.begin_migration(base)         # MIGRATING
        ctx.page_table.begin_migration(base + 1)
        ctx.page_table.complete_migration(base + 1)  # VALID
        block = ctx.space.block_of_page(base)
        pages = ctx.migratable_pages_in_block(block)
        assert base not in pages and base + 1 not in pages
        assert len(pages) == 14

    def test_block_fully_invalid(self):
        ctx = make_ctx()
        alloc = ctx.allocator.get("a")
        base = alloc.page_range[0]
        block = ctx.space.block_of_page(base)
        assert ctx.block_fully_invalid(block)
        ctx.page_table.begin_migration(base)
        assert not ctx.block_fully_invalid(block)

    def test_random_candidate_pool_clamped_to_allocation(self):
        ctx = make_ctx(alloc_specs=(("a", 100 * 4096),))
        alloc = ctx.allocator.get("a")
        pool = ctx.requested_pages_in_large_page(alloc.page_range[0])
        assert pool[0] == alloc.page_range[0]
        assert pool[-1] == alloc.page_range[-1]

    def test_reservation_skip_scales_with_residency(self):
        ctx = make_ctx()
        ctx.config = ctx.config.replace(lru_reservation_fraction=0.10)
        alloc = ctx.allocator.get("a")
        for page in alloc.page_range[:50]:
            ctx.page_table.begin_migration(page)
            ctx.page_table.complete_migration(page)
        assert ctx.reservation_skip == 5
        ctx.config = ctx.config.replace(lru_reservation_fraction=0.0)
        assert ctx.reservation_skip == 0

    def test_allocation_page_counts_in_first_seen_order(self):
        ctx = make_ctx(alloc_specs=(("a", 4 * MIB), ("b", 2 * MIB)))
        a = ctx.allocator.get("a").page_range
        b = ctx.allocator.get("b").page_range
        # "a" spans two 2MB chunks; "b" is seen first.
        pages = [b[3], a[600], a[0], b[0], a[1]]
        counts = ctx.allocation_page_counts(pages)
        assert list(counts.items()) == [("b", 2), ("a", 3)]
        assert ctx.allocation_page_counts([]) == {}


class _EngineStub:
    """Captures driver callbacks without a full engine."""

    def __init__(self):
        self.scheduled = []
        self.woken = []

    def schedule(self, time_ns, callback):
        self.scheduled.append((time_ns, callback))

    def wake_warps(self, waiters, now_ns):
        self.woken.extend(waiters)

    def tlb_shootdown(self, pages):
        pass


class TestGmmu:
    def make(self):
        ctx = make_ctx()
        stats = ctx.stats
        link = PcieLink(BandwidthModel(), stats.h2d, stats.d2h)
        mshr = FarFaultMSHR(1024)
        from repro.core.evict import make_eviction_policy
        from repro.core.prefetch import make_prefetcher
        driver = UvmDriver(ctx, link, mshr, make_prefetcher("none"),
                           make_eviction_policy("lru4k"))
        driver.engine = _EngineStub()
        gmmu = Gmmu(ctx, mshr, driver)
        sm = StreamingMultiprocessor(0, 16)
        return ctx, gmmu, driver, sm

    def fresh_warp(self, page):
        return Warp(0, WarpSpec([(page, False)]))

    def test_valid_page_fills_tlb(self):
        ctx, gmmu, driver, sm = self.make()
        page = ctx.allocator.get("a").page_range[0]
        ctx.page_table.begin_migration(page)
        ctx.page_table.complete_migration(page)
        warp = self.fresh_warp(page)
        assert gmmu.handle_tlb_miss(sm, warp, page, 0.0)
        assert page in sm.tlb
        assert ctx.stats.page_table_walks == 1
        assert ctx.stats.far_faults == 0

    def test_invalid_page_registers_fault(self):
        ctx, gmmu, driver, sm = self.make()
        page = ctx.allocator.get("a").page_range[0]
        warp = self.fresh_warp(page)
        assert not gmmu.handle_tlb_miss(sm, warp, page, 5.0)
        assert ctx.stats.far_faults == 1
        assert driver.engine.scheduled  # service scheduled

    def test_second_fault_same_page_merges(self):
        ctx, gmmu, driver, sm = self.make()
        page = ctx.allocator.get("a").page_range[0]
        gmmu.handle_tlb_miss(sm, self.fresh_warp(page), page, 0.0)
        gmmu.handle_tlb_miss(sm, self.fresh_warp(page), page, 1.0)
        assert ctx.stats.far_faults == 1
        assert ctx.stats.mshr_merges == 1
