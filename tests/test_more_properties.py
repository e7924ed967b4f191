"""Additional property-based tests: hierarchical LRU against a reference
model, TBNp transfer bounds, and driver stall accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import constants
from repro.config import SimulatorConfig
from repro.core.context import UvmContext
from repro.core.prefetch import make_prefetcher
from repro.memory.addressing import AddressSpace
from repro.memory.allocator import ManagedAllocator
from repro.memory.frames import FramePool
from repro.memory.lru import HierarchicalLRU
from repro.memory.page_table import GpuPageTable
from repro.runtime import run_workload
from repro.stats import SimStats
from repro.workloads.synthetic import StreamingWorkload
from tests.ordered_lru import OrderedHierarchicalLRU

SPACE = AddressSpace()
PAGES_PER_BLOCK = SPACE.pages_per_block
PAGES_PER_CHUNK = SPACE.pages_per_large_page


class _ReferenceLRU:
    """Brute-force model of the Section 5.3 hierarchical ordering.

    A chunk's / block's recency is the timestamp of its last *access*
    (paper: blocks "are sorted based on their respective access
    timestamps") — removing a page does not demote its block.  Blocks and
    chunks left without pages disappear; re-inserting re-stamps them.
    """

    def __init__(self):
        self.pages: set[int] = set()
        self.block_stamp: dict[int, int] = {}
        self.chunk_stamp: dict[int, int] = {}
        self.clock = 0

    def touch(self, page: int) -> None:
        self.clock += 1
        self.pages.add(page)
        self.block_stamp[SPACE.block_of_page(page)] = self.clock
        self.chunk_stamp[SPACE.large_page_of_page(page)] = self.clock

    def remove(self, page: int) -> None:
        self.pages.discard(page)

    def victim_block(self) -> int | None:
        if not self.pages:
            return None
        live_blocks = {SPACE.block_of_page(p) for p in self.pages}
        live_chunks = {SPACE.large_page_of_page(p) for p in self.pages}
        lru_chunk = min(live_chunks, key=lambda c: self.chunk_stamp[c])
        blocks = [b for b in live_blocks
                  if b // SPACE.blocks_per_large_page == lru_chunk]
        return min(blocks, key=lambda b: self.block_stamp[b])


@st.composite
def lru_ops(draw):
    # Pages across 3 chunks so chunk ordering matters.
    pages = st.integers(min_value=0, max_value=3 * PAGES_PER_CHUNK - 1)
    return draw(st.lists(
        st.tuples(st.sampled_from(["touch", "remove"]), pages),
        min_size=1, max_size=120,
    ))


class TestHierarchicalLruAgainstReference:
    @given(lru_ops())
    @settings(max_examples=150, deadline=None)
    def test_victim_block_matches_reference(self, ops):
        """The stamp LRU, the ``OrderedDict`` one it replaced and the
        brute-force model agree, over either stamp store."""
        for lru in (HierarchicalLRU(),
                    HierarchicalLRU(SPACE,
                                    GpuPageTable().claim_stamps(SPACE))):
            ordered = OrderedHierarchicalLRU()
            reference = _ReferenceLRU()
            members: set[int] = set()
            for op, page in ops:
                if op == "touch":
                    lru.insert(page)
                    ordered.insert(page)
                    reference.touch(page)
                    members.add(page)
                elif page in members:
                    lru.remove(page)
                    ordered.remove(page)
                    reference.remove(page)
                    members.discard(page)
            if members:
                assert lru.victim_block() == ordered.victim_block() \
                    == reference.victim_block()


class TestTbnpTransferBounds:
    @given(st.sets(st.integers(min_value=0, max_value=31), max_size=20),
           st.integers(min_value=0, max_value=31))
    @settings(max_examples=80, deadline=None)
    def test_single_transfer_bounded_by_large_page(self, pre_valid,
                                                   fault_block):
        """No TBNp transfer group exceeds the 2MB tree it came from, and
        plans never touch already-valid pages."""
        config = SimulatorConfig()
        allocator = ManagedAllocator(SPACE)
        allocator.malloc_managed("a", 2 * constants.MIB)
        ctx = UvmContext(config, SPACE, allocator, GpuPageTable(),
                         FramePool(None), SimStats())
        alloc = allocator.get("a")
        base = alloc.page_range[0]
        pre_valid = pre_valid - {fault_block}
        for block in pre_valid:
            for page in range(base + block * PAGES_PER_BLOCK,
                              base + (block + 1) * PAGES_PER_BLOCK):
                ctx.page_table.begin_migration(page)
                ctx.page_table.complete_migration(page)
        fault = base + fault_block * PAGES_PER_BLOCK
        plan = make_prefetcher("tbn").plan([fault], ctx)
        assert 0 < plan.total_pages <= PAGES_PER_CHUNK
        for group in plan.groups:
            assert len(group.pages) * 4096 <= 2 * constants.MIB
            for page in group.pages:
                assert not ctx.page_table.is_valid(page)
        tree = ctx.tree_for_page(fault)
        tree.check_consistency()
        # The plan's view holds the seeded pages plus what it planned.
        assert tree.root_valid_bytes == \
            (len(pre_valid) * PAGES_PER_BLOCK + plan.total_pages) * 4096


class TestStallAccounting:
    def test_no_stall_when_unbounded(self):
        stats = run_workload(
            StreamingWorkload(pages=128),
            SimulatorConfig(num_sms=2, prefetcher="tbn"),
        )
        assert stats.eviction_stall_ns == 0.0

    def test_stall_appears_when_writeback_outlasts_handling(self):
        """A 2MB write-back (~93us) outlasts the 45us fault handling, so
        the migration must wait for the freed frames: a visible stall."""
        workload = StreamingWorkload(pages=1024, iterations=1,
                                     write_fraction=1.0)
        stats = run_workload(
            workload,
            SimulatorConfig(num_sms=2, prefetcher="tbn",
                            eviction="lru2mb",
                            device_memory_bytes=600 * 4096,
                            batch_fault_handling=True,
                            disable_prefetch_on_oversubscription=False),
        )
        assert stats.pages_evicted > 0
        assert stats.eviction_stall_ns > 0.0
