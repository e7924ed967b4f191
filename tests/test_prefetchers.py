"""Tests for the prefetcher policies (repro.core.prefetch)."""

import random
from collections import Counter

import pytest

from repro import constants
from repro.config import SimulatorConfig
from repro.core.context import UvmContext
from repro.core.plans import split_runs_at_faults
from repro.core.prefetch import (
    PREFETCHER_REGISTRY,
    make_prefetcher,
)
from repro.errors import PolicyError
from repro.memory.addressing import AddressSpace
from repro.memory.allocator import ManagedAllocator
from repro.memory.frames import FramePool
from repro.memory.page import PageState
from repro.memory.page_table import GpuPageTable
from repro.stats import SimStats

PAGES_PER_BLOCK = constants.PAGES_PER_BLOCK


def make_ctx(alloc_bytes=4 * constants.MIB, seed=0):
    config = SimulatorConfig(seed=seed)
    space = AddressSpace()
    allocator = ManagedAllocator(space)
    allocator.malloc_managed("a", alloc_bytes)
    ctx = UvmContext(config, space, allocator, GpuPageTable(),
                     FramePool(None), SimStats())
    return ctx, allocator.get("a")


def validate(ctx, pages):
    """Mark pages resident so prefetchers must skip them, and end the
    step as the driver does once it applies a plan."""
    for page in pages:
        ctx.page_table.begin_migration(page)
        ctx.page_table.complete_migration(page)
    ctx.drop_tree_views()


def assert_plan_well_formed(plan, faulted, ctx):
    pages = plan.all_pages()
    assert len(pages) == len(set(pages)), "no duplicate pages"
    assert set(faulted) <= set(pages), "every fault page planned"
    for page in pages:
        assert not ctx.page_table.is_valid(page), "plans INVALID pages only"
    fault_set = set(faulted)
    for group in plan.groups:
        if group.fault_pages:
            assert group.fault_pages <= fault_set


class TestRegistry:
    def test_all_expected_names(self):
        assert set(PREFETCHER_REGISTRY) >= {
            "none", "random", "sequential-local", "tbn", "zheng512",
        }

    def test_unknown_name_raises(self):
        with pytest.raises(PolicyError):
            make_prefetcher("bogus")


class TestOnDemand:
    def test_plans_only_fault_pages(self):
        ctx, alloc = make_ctx()
        base = alloc.page_range[0]
        faulted = [base, base + 50]
        plan = make_prefetcher("none").plan(faulted, ctx)
        assert sorted(plan.all_pages()) == sorted(faulted)
        assert_plan_well_formed(plan, faulted, ctx)

    def test_adjacent_faults_grouped(self):
        ctx, alloc = make_ctx()
        base = alloc.page_range[0]
        plan = make_prefetcher("none").plan([base, base + 1], ctx)
        assert len(plan.groups) == 1
        assert plan.groups[0].pages == [base, base + 1]


class TestRandomPrefetcher:
    def test_adds_one_candidate_per_fault_from_same_chunk(self):
        ctx, alloc = make_ctx()
        base = alloc.page_range[0]
        plan = make_prefetcher("random").plan([base], ctx)
        assert_plan_well_formed(plan, [base], ctx)
        assert plan.total_pages == 2
        extra = next(p for p in plan.all_pages() if p != base)
        assert ctx.space.large_page_of_page(extra) \
            == ctx.space.large_page_of_page(base)

    def test_deterministic_under_seed(self):
        ctx1, alloc1 = make_ctx(seed=3)
        ctx2, alloc2 = make_ctx(seed=3)
        fault1 = [alloc1.page_range[0]]
        fault2 = [alloc2.page_range[0]]
        plan1 = make_prefetcher("random").plan(fault1, ctx1)
        plan2 = make_prefetcher("random").plan(fault2, ctx2)
        offset1 = [p - alloc1.page_range[0] for p in plan1.all_pages()]
        offset2 = [p - alloc2.page_range[0] for p in plan2.all_pages()]
        assert offset1 == offset2

    def test_no_candidate_when_chunk_fully_valid(self):
        ctx, alloc = make_ctx(alloc_bytes=2 * constants.MIB)
        pages = list(alloc.page_range)
        validate(ctx, pages[1:])  # everything but the fault page
        plan = make_prefetcher("random").plan([pages[0]], ctx)
        assert plan.all_pages() == [pages[0]]


def scan_invalid(page_table, pages):
    """Oracle: the per-page state scan Rp's pool used to be built from."""
    return [p for p in pages if page_table.state_of(p) is PageState.INVALID]


def scan_random_plan(faulted, ctx):
    """Oracle: ``RandomPrefetcher.plan`` with a per-page-scan pool."""
    fault_set = set(faulted)
    planned = set(fault_set)
    for page in faulted:
        alloc_pages = ctx.allocator.allocation_of_page(page).page_range
        chunk = ctx.space.pages_in_large_page(
            ctx.space.large_page_of_page(page))
        pool = [p for p in scan_invalid(ctx.page_table, chunk)
                if p in alloc_pages and p not in planned]
        if pool:
            planned.add(ctx.rng.choice(pool))
    return split_runs_at_faults(sorted(planned), fault_set)


class TestRandomPoolMatchesScan:
    """The occupancy-bit range query and Rp's pool against the scan."""

    @staticmethod
    def _ctx(seed):
        space = AddressSpace()
        allocator = ManagedAllocator(space)
        page = constants.PAGE_SIZE
        small = allocator.malloc_managed("small", 300 * page)
        pair = allocator.malloc_managed("pair", 700 * page)
        # The gap puts "far" past the first flag-store window.
        allocator.malloc_managed("gap", 256 * constants.MIB)
        far = allocator.malloc_managed("far", 600 * page)
        ctx = UvmContext(SimulatorConfig(seed=seed), space, allocator,
                         GpuPageTable(), FramePool(None), SimStats())
        return ctx, small, pair, far

    @pytest.mark.parametrize("seed", range(12))
    def test_random_transitions(self, seed):
        ctx, small, pair, far = self._ctx(seed)
        table = ctx.page_table
        draw = random.Random(seed)
        touched = [*small.page_range, *pair.page_range]
        prefetcher = make_prefetcher("random")
        for _ in range(30):
            for page in draw.sample(touched, 40):
                state = table.state_of(page)
                if state is PageState.INVALID:
                    table.begin_migration(page)
                elif state is PageState.MIGRATING:
                    table.complete_migration(page)
                else:
                    table.invalidate(page)
            for alloc in (small, pair, far):
                pages = alloc.page_range
                first = draw.randrange(pages.start, pages.stop)
                stop = draw.randrange(first, pages.stop + 1)
                assert table.invalid_pages_in_range(first, stop) \
                    == scan_invalid(table, range(first, stop))
            candidates = scan_invalid(table, [*touched, *far.page_range])
            faulted = draw.sample(candidates, draw.randint(1, 8))
            before = ctx.rng.getstate()
            expected = scan_random_plan(faulted, ctx)
            expected_state = ctx.rng.getstate()
            ctx.rng.setstate(before)
            assert prefetcher.plan(faulted, ctx).groups == expected
            assert ctx.rng.getstate() == expected_state
        assert far.page_range.start >= table._base + len(table._state)
        span = range(small.page_range.start, far.page_range.stop)
        assert table.invalid_pages_in_range(span.start, span.stop) \
            == scan_invalid(table, span)

    def test_crowded_chunks_match_the_list_pick(self):
        """Many faults per chunk, chunks that run out of candidates
        mid-batch and repeated fault pages: the count-based draw from
        each chunk's free mask picks what ``rng.choice`` over the
        scanned list picks, and leaves the stream in the same state."""
        ctx, small, pair, far = self._ctx(5)
        table = ctx.page_table
        draw = random.Random(5)
        prefetcher = make_prefetcher("random")
        pages = [*small.page_range, *pair.page_range, *far.page_range]
        for page in draw.sample(pages, len(pages) // 2):
            table.begin_migration(page)
            if draw.random() < 0.5:
                table.complete_migration(page)
        # 300 of small's 300 pages are one chunk: 150-odd candidates.
        for rounds in range(20):
            invalid = scan_invalid(table, pages)
            faulted = draw.sample(invalid, min(len(invalid),
                                               draw.randint(20, 200)))
            faulted += faulted[:5]
            before = ctx.rng.getstate()
            expected = scan_random_plan(faulted, ctx)
            expected_state = ctx.rng.getstate()
            ctx.rng.setstate(before)
            assert prefetcher.plan(faulted, ctx).groups == expected
            assert ctx.rng.getstate() == expected_state
            for page in draw.sample(invalid, len(invalid) // 4):
                table.begin_migration(page)

    def test_one_range_lookup_per_chunk(self, monkeypatch):
        """A chunk's requested range is looked up once per plan, however
        many of the plan's faults fall in it."""
        ctx, small, pair, far = self._ctx(2)
        calls = []
        lookup = ctx.requested_pages_in_large_page
        monkeypatch.setattr(ctx, "requested_pages_in_large_page",
                            lambda page: calls.append(page) or lookup(page))
        faulted = [*small.page_range[:40], *far.page_range[:30:3]]
        before = ctx.rng.getstate()
        expected = scan_random_plan(faulted, ctx)
        ctx.rng.setstate(before)
        assert make_prefetcher("random").plan(faulted, ctx).groups \
            == expected
        chunks = {ctx.space.large_page_of_page(page) for page in faulted}
        assert len(calls) == len(chunks) == 2


class TestSequentialLocal:
    def test_migrates_whole_block(self):
        ctx, alloc = make_ctx()
        base = alloc.page_range[0]
        fault = base + 5  # middle of block 0
        plan = make_prefetcher("sequential-local").plan([fault], ctx)
        assert_plan_well_formed(plan, [fault], ctx)
        assert sorted(plan.all_pages()) == list(range(base,
                                                      base + 16))

    def test_fault_group_and_prefetch_groups_split(self):
        ctx, alloc = make_ctx()
        base = alloc.page_range[0]
        plan = make_prefetcher("sequential-local").plan([base], ctx)
        sizes = sorted(len(g.pages) for g in plan.groups)
        assert sizes == [1, 15]  # 4KB fault group + 60KB prefetch group

    def test_skips_already_valid_pages(self):
        ctx, alloc = make_ctx()
        base = alloc.page_range[0]
        validate(ctx, [base + 1, base + 2])
        plan = make_prefetcher("sequential-local").plan([base], ctx)
        assert base + 1 not in plan.all_pages()
        assert base + 2 not in plan.all_pages()

    def test_multiple_faults_same_block_one_block_plan(self):
        ctx, alloc = make_ctx()
        base = alloc.page_range[0]
        plan = make_prefetcher("sequential-local").plan(
            [base, base + 7], ctx
        )
        assert sorted(plan.all_pages()) == list(range(base, base + 16))

    def test_clamps_to_requested_extent(self):
        # 8KB allocation: block has 16 pages but only 2 requested.
        ctx, alloc = make_ctx(alloc_bytes=2 * 4096)
        base = alloc.page_range[0]
        plan = make_prefetcher("sequential-local").plan([base], ctx)
        assert sorted(plan.all_pages()) == [base, base + 1]


class TestTbnPrefetcher:
    def test_figure2a_through_policy_layer(self):
        ctx, alloc = make_ctx(alloc_bytes=512 * constants.KIB)
        base = alloc.page_range[0]
        prefetcher = make_prefetcher("tbn")

        def fault_block(block_index):
            fault = base + block_index * PAGES_PER_BLOCK
            plan = prefetcher.plan([fault], ctx)
            # The driver marks pages MIGRATING; emulate with VALID for
            # the purposes of subsequent planning.
            validate(ctx, plan.all_pages())
            return plan

        for block in (1, 3, 5, 7):
            plan = fault_block(block)
            assert plan.total_pages == PAGES_PER_BLOCK
        plan = fault_block(0)
        blocks = {ctx.space.block_of_page(p) - base // PAGES_PER_BLOCK
                  for p in plan.all_pages()}
        assert blocks == {0, 2, 4, 6}

    def test_merges_contiguous_blocks_into_single_transfer(self):
        """Figure 2(b) fourth fault: blocks 4..7 merge, split 4KB + 252KB."""
        ctx, alloc = make_ctx(alloc_bytes=512 * constants.KIB)
        base = alloc.page_range[0]
        prefetcher = make_prefetcher("tbn")
        for block in (1, 3, 0):
            plan = prefetcher.plan([base + block * PAGES_PER_BLOCK], ctx)
            validate(ctx, plan.all_pages())
        plan = prefetcher.plan([base + 4 * PAGES_PER_BLOCK], ctx)
        sizes = sorted(len(g.pages) for g in plan.groups)
        assert sizes == [1, 63]  # 4KB fault + 252KB prefetch

    def test_plan_fills_the_tree_view(self):
        """The step's tree view holds the planned pages; the page table
        holds none of them until the driver applies the plan."""
        ctx, alloc = make_ctx()
        plan = make_prefetcher("tbn").plan([alloc.page_range[0]], ctx)
        tree = ctx.tree_for_page(alloc.page_range[0])
        assert tree.root_valid_bytes == plan.total_pages * 4096
        per_block = Counter(ctx.space.block_of_page(p)
                            for p in plan.all_pages())
        for block, count in per_block.items():
            assert tree.leaf_valid_bytes(block) == count * 4096
        ctx.drop_tree_views()
        assert ctx.tree_for_page(alloc.page_range[0]).root_valid_bytes == 0

    def test_skips_partially_valid_prefetch_blocks(self):
        """Section 4.2: prefetch wants fully invalid 64KB blocks."""
        ctx, alloc = make_ctx(alloc_bytes=256 * constants.KIB)
        base = alloc.page_range[0]
        # Make block 1 partially valid (simulates 4KB eviction debris).
        validate(ctx, [base + PAGES_PER_BLOCK])
        plan = make_prefetcher("tbn").plan([base], ctx)
        planned_blocks = {ctx.space.block_of_page(p) for p in
                          plan.all_pages()}
        assert ctx.space.block_of_page(base + PAGES_PER_BLOCK) \
            not in planned_blocks


class TestZheng:
    def test_window_of_128_pages(self):
        ctx, alloc = make_ctx(alloc_bytes=4 * constants.MIB)
        base = alloc.page_range[0]
        plan = make_prefetcher("zheng512").plan([base], ctx)
        assert plan.total_pages == 128
        assert sorted(plan.all_pages()) == list(range(base, base + 128))

    def test_window_clamped_at_allocation_end(self):
        ctx, alloc = make_ctx(alloc_bytes=64 * 4096)
        fault = alloc.page_range[0] + 60
        plan = make_prefetcher("zheng512").plan([fault], ctx)
        assert max(plan.all_pages()) == alloc.page_range[-1]
