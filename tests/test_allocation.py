"""Tests for managed allocations and the VA allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import constants
from repro.errors import AddressError, AllocationError
from repro.memory.addressing import AddressSpace
from repro.memory.allocation import AllocationSpec, ManagedAllocation
from repro.memory.allocator import ManagedAllocator

MIB = constants.MIB
KIB = constants.KIB
SPACE = AddressSpace()
BASE = 0x1_0000_0000


class TestAllocationSpec:
    def test_rejects_nonpositive_size(self):
        with pytest.raises(AllocationError):
            AllocationSpec("x", 0)

    def test_holds_fields(self):
        spec = AllocationSpec("grid", 4 * MIB)
        assert spec.name == "grid"
        assert spec.size_bytes == 4 * MIB


class TestManagedAllocationTrees:
    def test_paper_example_4mb_plus_192kb(self):
        """Section 3.3: 4MB+192KB becomes two 2MB trees plus one 256KB tree."""
        alloc = ManagedAllocation("a", BASE, 4 * MIB + 192 * KIB, SPACE)
        sizes = [tree.size for tree in alloc.trees]
        assert sizes == [2 * MIB, 2 * MIB, 256 * KIB]
        assert alloc.rounded_bytes == 4 * MIB + 256 * KIB

    def test_exact_multiple_of_2mb(self):
        alloc = ManagedAllocation("a", BASE, 6 * MIB, SPACE)
        assert [t.size for t in alloc.trees] == [2 * MIB] * 3

    def test_small_allocation_single_tree(self):
        alloc = ManagedAllocation("a", BASE, 100 * KIB, SPACE)
        assert len(alloc.trees) == 1
        assert alloc.trees[0].size == 128 * KIB
        assert alloc.trees[0].num_blocks == 2

    def test_trees_are_contiguous(self):
        alloc = ManagedAllocation("a", BASE, 5 * MIB, SPACE)
        addr = BASE
        for tree in alloc.trees:
            assert tree.base_addr == addr
            addr = tree.end_addr

    def test_requires_2mb_alignment(self):
        with pytest.raises(AllocationError):
            ManagedAllocation("a", BASE + 4096, MIB, SPACE)

    def test_tree_for_addresses(self):
        alloc = ManagedAllocation("a", BASE, 4 * MIB + 192 * KIB, SPACE)
        assert alloc.tree_for(BASE) is alloc.trees[0]
        assert alloc.tree_for(BASE + 2 * MIB) is alloc.trees[1]
        assert alloc.tree_for(BASE + 4 * MIB + KIB) is alloc.trees[2]

    def test_tree_for_out_of_range(self):
        alloc = ManagedAllocation("a", BASE, MIB, SPACE)
        with pytest.raises(AllocationError):
            alloc.tree_for(BASE + 2 * MIB)

    def test_page_range_covers_requested_bytes(self):
        alloc = ManagedAllocation("a", BASE, MIB + 1, SPACE)
        assert alloc.num_pages == MIB // 4096 + 1

    def test_addr_of_page_offset(self):
        alloc = ManagedAllocation("a", BASE, MIB, SPACE)
        assert alloc.addr_of_page_offset(0) == BASE
        assert alloc.addr_of_page_offset(3) == BASE + 3 * 4096
        with pytest.raises(AllocationError):
            alloc.addr_of_page_offset(alloc.num_pages)

    @given(st.integers(min_value=1, max_value=16 * MIB))
    @settings(max_examples=60, deadline=None)
    def test_trees_cover_requested_extent(self, size):
        alloc = ManagedAllocation("a", BASE, size, SPACE)
        assert alloc.rounded_bytes >= size
        # Every tree except the last is exactly one large page.
        for tree in alloc.trees[:-1]:
            assert tree.size == 2 * MIB
        blocks = alloc.trees[-1].num_blocks
        assert blocks & (blocks - 1) == 0


class TestManagedAllocator:
    def test_allocations_are_disjoint_and_aligned(self):
        allocator = ManagedAllocator()
        a = allocator.malloc_managed("a", 3 * MIB)
        b = allocator.malloc_managed("b", 100 * KIB)
        assert a.base_addr % (2 * MIB) == 0
        assert b.base_addr % (2 * MIB) == 0
        assert b.base_addr >= a.end_addr

    def test_duplicate_names_rejected(self):
        allocator = ManagedAllocator()
        allocator.malloc_managed("a", MIB)
        with pytest.raises(AllocationError):
            allocator.malloc_managed("a", MIB)

    def test_lookup_by_name_and_address(self):
        allocator = ManagedAllocator()
        a = allocator.malloc_managed("a", MIB)
        assert allocator.get("a") is a
        assert allocator.allocation_of(a.base_addr + 10) is a
        with pytest.raises(AddressError):
            allocator.allocation_of(0)

    def test_allocation_of_page(self):
        allocator = ManagedAllocator()
        a = allocator.malloc_managed("a", MIB)
        first_page = a.page_range[0]
        assert allocator.allocation_of_page(first_page) is a

    def test_free_removes(self):
        allocator = ManagedAllocator()
        allocator.malloc_managed("a", MIB)
        allocator.free("a")
        with pytest.raises(AllocationError):
            allocator.get("a")
        with pytest.raises(AllocationError):
            allocator.free("a")

    def test_footprint_totals(self):
        allocator = ManagedAllocator()
        allocator.malloc_managed("a", MIB)
        allocator.malloc_managed("b", 2 * MIB)
        assert allocator.total_pages == 3 * MIB // 4096

    def test_guard_gap_prevents_adjacency(self):
        allocator = ManagedAllocator()
        a = allocator.malloc_managed("a", 2 * MIB)
        b = allocator.malloc_managed("b", 2 * MIB)
        # At least one guard large page between the two allocations.
        assert b.base_addr - a.end_addr >= 2 * MIB
