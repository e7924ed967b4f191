"""Tests for LRU structures (repro.memory.lru)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PolicyError
from repro.memory.addressing import AddressSpace
from repro.memory.lru import FlatLRU, HierarchicalLRU, RandomMembership

SPACE = AddressSpace()
PAGES_PER_BLOCK = SPACE.pages_per_block          # 16
PAGES_PER_CHUNK = SPACE.pages_per_large_page     # 512


class TestFlatLRU:
    def test_victim_is_least_recent(self):
        lru = FlatLRU()
        for page in (1, 2, 3):
            lru.insert(page)
        assert lru.victim() == 1
        lru.touch(1)
        assert lru.victim() == 2

    def test_insert_existing_refreshes(self):
        lru = FlatLRU()
        lru.insert(1)
        lru.insert(2)
        lru.insert(1)
        assert lru.victim() == 2

    def test_remove(self):
        lru = FlatLRU()
        lru.insert(1)
        lru.remove(1)
        assert len(lru) == 0
        with pytest.raises(PolicyError):
            lru.remove(1)

    def test_touch_missing_raises(self):
        lru = FlatLRU()
        with pytest.raises(PolicyError):
            lru.touch(5)

    def test_victim_with_reservation_skip(self):
        lru = FlatLRU()
        for page in range(10):
            lru.insert(page)
        assert lru.victim(skip=0) == 0
        assert lru.victim(skip=3) == 3

    def test_victim_skip_bounds(self):
        lru = FlatLRU()
        lru.insert(1)
        with pytest.raises(PolicyError):
            lru.victim(skip=1)
        with pytest.raises(PolicyError):
            lru.victim(skip=-1)

    def test_order_helper(self):
        lru = FlatLRU()
        for page in (5, 3, 8):
            lru.insert(page)
        lru.touch(5)
        assert lru.pages_in_order() == [3, 8, 5]


class TestHierarchicalLRU:
    def test_membership_and_count(self):
        lru = HierarchicalLRU()
        lru.insert(0)
        lru.insert(17)  # block 1
        assert 0 in lru and 17 in lru and 5 not in lru
        assert len(lru) == 2

    def test_victim_block_is_lru_block_of_lru_chunk(self):
        lru = HierarchicalLRU()
        # Chunk 0: blocks 0 and 1; chunk 1: block 32.
        lru.insert(0)                       # chunk 0, block 0
        lru.insert(PAGES_PER_BLOCK)         # chunk 0, block 1
        lru.insert(PAGES_PER_CHUNK)         # chunk 1, block 32
        # Chunk 1 is most recent; victim comes from chunk 0, block 0.
        assert lru.victim_block() == 0
        lru.touch(0)                        # chunk 0 now MRU, block 0 MRU
        assert lru.victim_block() == PAGES_PER_CHUNK // PAGES_PER_BLOCK

    def test_chunk_recency_dominates_block_recency(self):
        lru = HierarchicalLRU()
        lru.insert(0)                       # chunk 0
        lru.insert(PAGES_PER_CHUNK)         # chunk 1
        lru.touch(0)                        # chunk 0 MRU
        # Chunk 1's only block is older at chunk level even though the
        # page in chunk 0 block 0 was inserted first.
        assert lru.victim_block() == PAGES_PER_CHUNK // PAGES_PER_BLOCK

    def test_remove_block_returns_all_pages(self):
        lru = HierarchicalLRU()
        pages = [0, 1, 2, 5]
        for page in pages:
            lru.insert(page)
        removed = lru.remove_block(0)
        assert sorted(removed) == pages
        assert len(lru) == 0
        assert lru.remove_block(0) == []

    def test_remove_single_page(self):
        lru = HierarchicalLRU()
        lru.insert(3)
        lru.remove(3)
        assert len(lru) == 0
        with pytest.raises(PolicyError):
            lru.remove(3)

    def test_victim_block_with_page_skip(self):
        lru = HierarchicalLRU()
        # Block 0 holds 3 pages, block 1 holds 2 pages.
        for page in (0, 1, 2):
            lru.insert(page)
        for page in (16, 17):
            lru.insert(page)
        assert lru.victim_block(skip_pages=0) == 0
        # A reservation boundary falling mid-block protects the whole
        # block: eviction removes entire blocks, so returning block 0
        # here (the pre-fix behaviour) would evict pages 0-2 even though
        # the skip promised to keep two of them.
        assert lru.victim_block(skip_pages=2) == 1
        assert lru.victim_block(skip_pages=3) == 1
        with pytest.raises(PolicyError):
            lru.victim_block(skip_pages=5)

    def test_victim_block_skip_into_last_block_falls_back(self):
        # When the reservation cuts into the last block no block is fully
        # unprotected; the boundary block is returned anyway (documented
        # fallback: partial protection of the MRU-most block beats
        # deadlocking the eviction path).
        lru = HierarchicalLRU()
        for page in (0, 1, 2):
            lru.insert(page)
        for page in (16, 17):
            lru.insert(page)
        assert lru.victim_block(skip_pages=4) == 1

    def test_victim_page_with_skip(self):
        lru = HierarchicalLRU()
        for page in (0, 1, 16):
            lru.insert(page)
        assert lru.victim_page(0) == 0
        assert lru.victim_page(1) == 1
        assert lru.victim_page(2) == 16

    def test_blocks_in_order(self):
        lru = HierarchicalLRU()
        lru.insert(0)
        lru.insert(16)
        lru.insert(PAGES_PER_CHUNK)
        lru.touch(16)
        # Chunk 0 was touched last -> chunk 1's block first? No: touch(16)
        # moved chunk 0 to MRU, so chunk 1 (block 32) comes first.
        order = lru.blocks_in_order()
        assert order == [PAGES_PER_CHUNK // PAGES_PER_BLOCK, 0, 1]

    @given(st.lists(st.tuples(st.sampled_from(["ins", "del", "touch"]),
                              st.integers(min_value=0, max_value=1200)),
                    max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_membership_matches_reference(self, ops):
        lru = HierarchicalLRU()
        reference: set[int] = set()
        for op, page in ops:
            if op == "ins":
                lru.insert(page)
                reference.add(page)
            elif op == "del" and page in reference:
                lru.remove(page)
                reference.discard(page)
            elif op == "touch" and page in reference:
                lru.touch(page)
        assert len(lru) == len(reference)
        for page in reference:
            assert page in lru
        if reference:
            victim_block = lru.victim_block()
            assert any(SPACE.block_of_page(p) == victim_block
                       for p in reference)

    @staticmethod
    def _order(lru):
        """Full LRU-to-MRU page order (chunk, then block, then page)."""
        return [lru.victim_page(i) for i in range(len(lru))]

    @given(st.lists(st.tuples(st.sampled_from(["ins", "del", "touch"]),
                              st.integers(min_value=0, max_value=1100)),
                    max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_touch_orders_like_insert(self, ops):
        touched = HierarchicalLRU()
        inserted = HierarchicalLRU()
        for op, page in ops:
            present = page in inserted
            if op == "ins" or (op == "touch" and present):
                if op == "touch":
                    touched.touch(page)
                else:
                    touched.insert(page)
                inserted.insert(page)
            elif op == "touch":
                before = self._order(touched)
                with pytest.raises(PolicyError):
                    touched.touch(page)
                assert self._order(touched) == before
            elif present:
                touched.remove(page)
                inserted.remove(page)
            assert touched.blocks_in_order() == inserted.blocks_in_order()
            assert self._order(touched) == self._order(inserted)

    @given(st.lists(st.tuples(st.sampled_from(["run", "del", "touch"]),
                              st.integers(min_value=0, max_value=1100),
                              st.integers(min_value=1, max_value=40)),
                    max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_insert_run_orders_like_inserts(self, ops):
        """Runs across block and chunk edges, over present pages too."""
        by_run = HierarchicalLRU()
        by_page = HierarchicalLRU()
        for op, page, length in ops:
            if op == "run":
                by_run.insert_run(page, page + length)
                for each in range(page, page + length):
                    by_page.insert(each)
            elif page in by_page:
                for lru in (by_run, by_page):
                    if op == "del":
                        lru.remove(page)
                    else:
                        lru.touch(page)
            assert len(by_run) == len(by_page)
            assert by_run.blocks_in_order() == by_page.blocks_in_order()
            assert self._order(by_run) == self._order(by_page)

    def test_touch_absent_raises_at_every_level(self):
        lru = HierarchicalLRU()
        lru.insert(0)
        lru.insert(PAGES_PER_BLOCK)
        before = self._order(lru)
        for page in (PAGES_PER_CHUNK,          # absent chunk
                     2 * PAGES_PER_BLOCK,      # absent block, chunk present
                     1):                       # absent page, block present
            with pytest.raises(PolicyError):
                lru.touch(page)
            assert self._order(lru) == before


class TestRandomMembership:
    def test_insert_remove_contains(self):
        rm = RandomMembership(random.Random(0))
        rm.insert(5)
        assert 5 in rm and len(rm) == 1
        rm.insert(5)  # idempotent
        assert len(rm) == 1
        rm.remove(5)
        assert 5 not in rm
        with pytest.raises(PolicyError):
            rm.remove(5)

    def test_sample_uniform_membership(self):
        rm = RandomMembership(random.Random(0))
        for item in range(10):
            rm.insert(item)
        seen = {rm.sample() for _ in range(200)}
        assert seen <= set(range(10))
        assert len(seen) > 5  # overwhelmingly likely

    def test_sample_empty_raises(self):
        rm = RandomMembership(random.Random(0))
        with pytest.raises(PolicyError):
            rm.sample()

    @given(st.lists(st.tuples(st.booleans(),
                              st.integers(min_value=0, max_value=50)),
                    max_size=100))
    def test_matches_reference_set(self, ops):
        rm = RandomMembership(random.Random(1))
        reference: set[int] = set()
        for insert, item in ops:
            if insert:
                rm.insert(item)
                reference.add(item)
            elif item in reference:
                rm.remove(item)
                reference.discard(item)
        assert len(rm) == len(reference)
        for item in reference:
            assert item in rm
