"""Tests for the eviction policies (repro.core.evict)."""

import pytest

from repro import constants
from repro.config import SimulatorConfig
from repro.core.context import UvmContext
from repro.core.evict import EVICTION_REGISTRY, make_eviction_policy
from repro.core.evict.base import clamped_skip
from repro.errors import PolicyError
from repro.memory.addressing import AddressSpace
from repro.memory.allocator import ManagedAllocator
from repro.memory.frames import FramePool
from repro.memory.page_table import GpuPageTable
from repro.stats import SimStats

PAGES_PER_BLOCK = constants.PAGES_PER_BLOCK
PAGES_PER_CHUNK = constants.PAGES_PER_LARGE_PAGE


def make_ctx(alloc_bytes=4 * constants.MIB, reservation=0.0):
    config = SimulatorConfig(lru_reservation_fraction=reservation)
    space = AddressSpace()
    allocator = ManagedAllocator(space)
    allocator.malloc_managed("a", alloc_bytes)
    ctx = UvmContext(config, space, allocator, GpuPageTable(),
                     FramePool(None), SimStats())
    return ctx, allocator.get("a")


def validate_pages(ctx, policy, pages, access=True, time=None):
    """Migrate pages in and register them with the policy."""
    for page in pages:
        ctx.page_table.begin_migration(page)
        ctx.page_table.complete_migration(page)
        policy.on_validated(page, ctx)
        if access:
            ctx.page_table.mark_access(page, is_write=False)
            policy.on_accessed(page, ctx)


def apply_eviction(ctx, plan):
    """Invalidate the plan's pages and end the step, as the driver does."""
    for page in plan.all_pages():
        ctx.page_table.invalidate(page)
    ctx.drop_tree_views()


class TestRegistry:
    def test_all_expected_names(self):
        assert set(EVICTION_REGISTRY) >= {
            "lru4k", "lru4k-validated", "random", "lru2mb",
            "sequential-local", "tbn",
        }

    def test_unknown_raises(self):
        with pytest.raises(PolicyError):
            make_eviction_policy("bogus")


class TestClampedSkip:
    def test_respects_population(self):
        assert clamped_skip(10, 5, 1) == 4
        assert clamped_skip(2, 10, 1) == 2
        assert clamped_skip(0, 1, 1) == 0

    def test_empty_population_raises(self):
        with pytest.raises(PolicyError):
            clamped_skip(1, 0, 1)


class TestLru4k:
    def test_evicts_least_recently_accessed_first(self):
        ctx, alloc = make_ctx()
        policy = make_eviction_policy("lru4k")
        pages = list(alloc.page_range[:4])
        validate_pages(ctx, policy, pages)
        policy.on_accessed(pages[0], ctx)  # refresh page 0
        plan = policy.plan_eviction(1, ctx)
        assert plan.all_pages() == [pages[1]]
        assert not plan.units[0].unit_writeback

    def test_unaccessed_prefetched_pages_invisible_to_lru(self):
        """Section 5: unused prefetched pages are never chosen by LRU."""
        ctx, alloc = make_ctx()
        policy = make_eviction_policy("lru4k")
        accessed = list(alloc.page_range[:2])
        prefetched = list(alloc.page_range[2:4])
        validate_pages(ctx, policy, accessed, access=True)
        validate_pages(ctx, policy, prefetched, access=False)
        plan = policy.plan_eviction(2, ctx)
        assert set(plan.all_pages()) == set(accessed)

    def test_falls_back_to_unaccessed_when_lru_empty(self):
        ctx, alloc = make_ctx()
        policy = make_eviction_policy("lru4k")
        prefetched = list(alloc.page_range[:3])
        validate_pages(ctx, policy, prefetched, access=False)
        plan = policy.plan_eviction(2, ctx)
        assert len(plan.all_pages()) == 2
        assert set(plan.all_pages()) <= set(prefetched)

    def test_validated_variant_sees_prefetched_pages(self):
        ctx, alloc = make_ctx()
        policy = make_eviction_policy("lru4k-validated")
        pages = list(alloc.page_range[:3])
        validate_pages(ctx, policy, pages, access=False)
        plan = policy.plan_eviction(1, ctx)
        assert plan.all_pages() == [pages[0]]

    def test_reservation_protects_lru_head(self):
        ctx, alloc = make_ctx(reservation=0.5)
        policy = make_eviction_policy("lru4k")
        pages = list(alloc.page_range[:4])
        validate_pages(ctx, policy, pages)
        plan = policy.plan_eviction(1, ctx)
        # 50% of 4 resident pages protected -> victim is pages[2].
        assert plan.all_pages() == [pages[2]]


class TestRandomEviction:
    def test_evicts_requested_count(self):
        ctx, alloc = make_ctx()
        policy = make_eviction_policy("random")
        pages = list(alloc.page_range[:10])
        validate_pages(ctx, policy, pages)
        plan = policy.plan_eviction(4, ctx)
        chosen = plan.all_pages()
        assert len(chosen) == 4
        assert len(set(chosen)) == 4
        assert set(chosen) <= set(pages)

    def test_never_exceeds_membership(self):
        ctx, alloc = make_ctx()
        policy = make_eviction_policy("random")
        validate_pages(ctx, policy, list(alloc.page_range[:2]))
        plan = policy.plan_eviction(5, ctx)
        assert plan.total_pages == 2


class TestSle:
    def test_evicts_whole_block_of_victim(self):
        ctx, alloc = make_ctx()
        policy = make_eviction_policy("sequential-local")
        pages = list(alloc.page_range[:PAGES_PER_BLOCK * 2])
        validate_pages(ctx, policy, pages)
        plan = policy.plan_eviction(1, ctx)
        assert plan.total_pages == PAGES_PER_BLOCK
        assert plan.units[0].unit_writeback
        blocks = {ctx.space.block_of_page(p) for p in plan.all_pages()}
        assert len(blocks) == 1

    def test_includes_prefetched_unaccessed_pages(self):
        """Section 5.3: all valid pages are in the LRU list."""
        ctx, alloc = make_ctx()
        policy = make_eviction_policy("sequential-local")
        accessed = list(alloc.page_range[:4])
        prefetched = list(alloc.page_range[4:PAGES_PER_BLOCK])
        validate_pages(ctx, policy, accessed, access=True)
        validate_pages(ctx, policy, prefetched, access=False)
        plan = policy.plan_eviction(1, ctx)
        assert set(plan.all_pages()) == set(accessed) | set(prefetched)

    def test_keeps_evicting_until_demand_met(self):
        ctx, alloc = make_ctx()
        policy = make_eviction_policy("sequential-local")
        pages = list(alloc.page_range[:PAGES_PER_BLOCK * 3])
        validate_pages(ctx, policy, pages)
        plan = policy.plan_eviction(PAGES_PER_BLOCK + 1, ctx)
        assert plan.total_pages == 2 * PAGES_PER_BLOCK


class TestTbne:
    def test_figure8_cascade_through_policy_layer(self):
        ctx, alloc = make_ctx(alloc_bytes=512 * constants.KIB)
        policy = make_eviction_policy("tbn")
        base = alloc.page_range[0]
        all_pages = list(alloc.page_range)
        validate_pages(ctx, policy, all_pages)

        def block_pages(index):
            start = base + index * PAGES_PER_BLOCK
            return list(range(start, start + PAGES_PER_BLOCK))

        # Make blocks 1, 3, 4, 0 the LRU order by refreshing the others.
        for block in (2, 5, 6, 7):
            for page in block_pages(block):
                policy.on_accessed(page, ctx)
        order = []
        for blocks_touched in ((1, 3, 4, 0),):
            for block in blocks_touched:
                for page in block_pages(block):
                    policy.on_accessed(page, ctx)
                order.append(block)
        # Re-touch 2,5,6,7 again so LRU order is 1,3,4,0,2,5,6,7.
        for block in (2, 5, 6, 7):
            for page in block_pages(block):
                policy.on_accessed(page, ctx)

        evicted_blocks = []
        for _ in range(4):
            plan = policy.plan_eviction(1, ctx)
            apply_eviction(ctx, plan)
            evicted_blocks.append(sorted(
                {ctx.space.block_of_page(p) - base // PAGES_PER_BLOCK
                 for p in plan.all_pages()}
            ))
        assert evicted_blocks[0] == [1]
        assert evicted_blocks[1] == [3]
        assert evicted_blocks[2] == [4]
        # Fourth eviction: victim 0 cascades through 2, 5, 6, 7 (Figure 8).
        assert evicted_blocks[3] == [0, 2, 5, 6, 7]
        assert policy.evictable_pages() == 0

    def test_contiguous_cascade_blocks_grouped_into_one_unit(self):
        ctx, alloc = make_ctx(alloc_bytes=512 * constants.KIB)
        policy = make_eviction_policy("tbn")
        pages = list(alloc.page_range)
        validate_pages(ctx, policy, pages)
        base = alloc.page_range[0]
        # Evict blocks 4..7 one by one: leaves 0..3 valid; evicting 0
        # cascades into 1..3 which are contiguous -> single unit.
        for block in (4, 5, 6, 7):
            start = base + block * PAGES_PER_BLOCK
            for page in range(start, start + PAGES_PER_BLOCK):
                policy.on_accessed(page, ctx)
        plan1 = policy.plan_eviction(1, ctx)  # LRU is block 0 now? ensure
        # Whatever got evicted, the plan's units are contiguous runs.
        for unit in plan1.units:
            blocks = sorted({ctx.space.block_of_page(p)
                             for p in unit.pages})
            assert blocks == list(range(blocks[0],
                                        blocks[0] + len(blocks)))

    def test_trees_stay_consistent_with_policy(self):
        ctx, alloc = make_ctx(alloc_bytes=512 * constants.KIB)
        policy = make_eviction_policy("tbn")
        pages = list(alloc.page_range)
        validate_pages(ctx, policy, pages)
        total = len(pages)
        while policy.evictable_pages():
            plan = policy.plan_eviction(1, ctx)
            total -= plan.total_pages
            tree = ctx.tree_for_page(pages[0])
            assert tree.root_valid_bytes == total * 4096
            tree.check_consistency()
            apply_eviction(ctx, plan)


class TestLru2Mb:
    def test_evicts_whole_chunk_as_one_unit(self):
        ctx, alloc = make_ctx(alloc_bytes=4 * constants.MIB)
        policy = make_eviction_policy("lru2mb")
        first_chunk = list(alloc.page_range[:PAGES_PER_CHUNK])
        second_chunk = list(
            alloc.page_range[PAGES_PER_CHUNK:PAGES_PER_CHUNK + 64]
        )
        validate_pages(ctx, policy, first_chunk)
        validate_pages(ctx, policy, second_chunk)
        plan = policy.plan_eviction(1, ctx)
        assert len(plan.units) == 1
        assert plan.units[0].unit_writeback
        assert set(plan.all_pages()) == set(first_chunk)


def inline_stamp(table):
    """What the issue loop does per access when ``access_hook`` returns
    None: stamp the page, its block and its chunk in the page table."""
    stamps = table.stamps
    base = table.access_view()[0]

    def stamp(page):
        index = page - base
        assert stamps.page[index], page
        stamps.clock += 1
        stamps.page[index] = stamps.block[index >> stamps.block_shift] = \
            stamps.chunk[index >> stamps.chunk_shift] = stamps.clock

    return stamp


class TestAccessHook:
    """``access_hook(ctx)(page)`` is ``on_accessed(page, ctx)``, or, for a
    hook of None, the issue loop's inline stamps: the same accesses
    through either leave every registered policy planning the same
    evictions."""

    @staticmethod
    def _evictions(name, use_hook):
        import random

        ctx, alloc = make_ctx()
        policy = make_eviction_policy(name)
        pages = list(alloc.page_range)
        validate_pages(ctx, policy, pages, access=False)
        draw = random.Random(7)
        accesses = [draw.choice(pages[:600]) for _ in range(1500)]
        if use_hook:
            touch = policy.access_hook(ctx) or inline_stamp(ctx.page_table)
            for page in accesses:
                touch(page)
        else:
            for page in accesses:
                policy.on_accessed(page, ctx)
        planned = []
        while policy.evictable_pages():
            plan = policy.plan_eviction(40, ctx)
            planned.append(plan.all_pages())
            apply_eviction(ctx, plan)
        return planned

    @pytest.mark.parametrize("name", sorted(EVICTION_REGISTRY))
    def test_hook_plans_like_on_accessed(self, name):
        assert self._evictions(name, True) == self._evictions(name, False)

    def test_block_lru_subclass_extending_on_accessed_keeps_it(self):
        from repro.core.evict.tbn import TreeBasedNeighborhoodPreEviction

        class Counting(TreeBasedNeighborhoodPreEviction):
            def reset(self):
                super().reset()
                self.seen = []

            def on_accessed(self, page, ctx):
                self.seen.append(page)
                super().on_accessed(page, ctx)

        ctx, alloc = make_ctx()
        policy = Counting()
        pages = list(alloc.page_range)[:32]
        validate_pages(ctx, policy, pages, access=False)
        hook = policy.access_hook(ctx)
        hook(pages[3])
        hook(pages[5])
        assert policy.seen == [pages[3], pages[5]]
        # The built-in form binds the LRU's own method instead: here the
        # page table's stamps are taken, so its LRU keeps its own.
        plain = TreeBasedNeighborhoodPreEviction()
        assert plain.access_hook(ctx) == plain._structure(ctx).touch
        # Owning the table's stamps, it opts into the inline stamps.
        owner = TreeBasedNeighborhoodPreEviction()
        fresh, _ = make_ctx()
        assert owner.access_hook(fresh) is None
        assert owner._structure(fresh).stamps is fresh.page_table.stamps

    @pytest.mark.parametrize("name", ["tbn", "lru4k"])
    def test_subclass_hook_calls_on_accessed_per_access(self, name):
        """The hook of a subclass that extends ``on_accessed`` calls the
        extension once per access, in order, repeats included: it is
        neither stamped inline nor logged."""
        base = type(make_eviction_policy(name))

        class Counting(base):
            def reset(self):
                super().reset()
                self.seen = []

            def on_accessed(self, page, ctx):
                self.seen.append(page)
                super().on_accessed(page, ctx)

        ctx, alloc = make_ctx()
        policy = Counting()
        policy.reset()
        pages = list(alloc.page_range)[:32]
        validate_pages(ctx, policy, pages, access=False)
        hook = policy.access_hook(ctx)
        for page in (pages[5], pages[3], pages[5]):
            hook(page)
        assert policy.seen == [pages[5], pages[3], pages[5]]
        assert not getattr(policy, "_log", [])
