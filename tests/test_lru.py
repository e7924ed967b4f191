"""Tests for LRU structures (repro.memory.lru)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PolicyError
from repro.memory.addressing import AddressSpace
from repro.memory.lru import FlatLRU, HierarchicalLRU, RandomMembership
from repro.memory.page_table import GpuPageTable
from tests.ordered_lru import OrderedHierarchicalLRU

SPACE = AddressSpace()
PAGES_PER_BLOCK = SPACE.pages_per_block          # 16
PAGES_PER_CHUNK = SPACE.pages_per_large_page     # 512


def own_stamps():
    """An LRU over a stamp store of its own."""
    return HierarchicalLRU(SPACE)


def table_stamps():
    """An LRU over a page table's stamps (the engine's inline path)."""
    return HierarchicalLRU(SPACE, GpuPageTable().claim_stamps(SPACE))


LRU_FACTORIES = (own_stamps, table_stamps)


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
    """Each test runs over a stamp store of the LRU's own and over a page
    table's stamps."""

    def test_membership_and_count(self):
        for make in LRU_FACTORIES:
            lru = make()
            lru.insert(0)
            lru.insert(17)  # block 1
            assert 0 in lru and 17 in lru and 5 not in lru
            assert len(lru) == 2

    def test_victim_block_is_lru_block_of_lru_chunk(self):
        for make in LRU_FACTORIES:
            lru = make()
            # Chunk 0: blocks 0 and 1; chunk 1: block 32.
            lru.insert(0)                       # chunk 0, block 0
            lru.insert(PAGES_PER_BLOCK)         # chunk 0, block 1
            lru.insert(PAGES_PER_CHUNK)         # chunk 1, block 32
            # Chunk 1 is most recent; victim comes from chunk 0, block 0.
            assert lru.victim_block() == 0
            lru.touch(0)                        # chunk 0 now MRU, block 0 MRU
            assert lru.victim_block() == PAGES_PER_CHUNK // PAGES_PER_BLOCK

    def test_chunk_recency_dominates_block_recency(self):
        for make in LRU_FACTORIES:
            lru = make()
            lru.insert(0)                       # chunk 0
            lru.insert(PAGES_PER_CHUNK)         # chunk 1
            lru.touch(0)                        # chunk 0 MRU
            # Chunk 1's only block is older at chunk level even though the
            # page in chunk 0 block 0 was inserted first.
            assert lru.victim_block() == PAGES_PER_CHUNK // PAGES_PER_BLOCK

    def test_remove_block_returns_all_pages(self):
        for make in LRU_FACTORIES:
            lru = make()
            pages = [0, 1, 2, 5]
            for page in pages:
                lru.insert(page)
            removed = lru.remove_block(0)
            assert sorted(removed) == pages
            assert len(lru) == 0
            assert lru.remove_block(0) == []

    def test_remove_single_page(self):
        for make in LRU_FACTORIES:
            lru = make()
            lru.insert(3)
            lru.remove(3)
            assert len(lru) == 0
            with pytest.raises(PolicyError):
                lru.remove(3)

    def test_victim_block_with_page_skip(self):
        for make in LRU_FACTORIES:
            lru = make()
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
        for make in LRU_FACTORIES:
            # When the reservation cuts into the last block no block is fully
            # unprotected; the boundary block is returned anyway (documented
            # fallback: partial protection of the MRU-most block beats
            # deadlocking the eviction path).
            lru = make()
            for page in (0, 1, 2):
                lru.insert(page)
            for page in (16, 17):
                lru.insert(page)
            assert lru.victim_block(skip_pages=4) == 1

    def test_victim_page_with_skip(self):
        for make in LRU_FACTORIES:
            lru = make()
            for page in (0, 1, 16):
                lru.insert(page)
            assert lru.victim_page(0) == 0
            assert lru.victim_page(1) == 1
            assert lru.victim_page(2) == 16

    def test_blocks_in_order(self):
        for make in LRU_FACTORIES:
            lru = make()
            lru.insert(0)
            lru.insert(16)
            lru.insert(PAGES_PER_CHUNK)
            lru.touch(16)
            # Chunk 0 was touched last -> chunk 1's block first? No: touch(16)
            # moved chunk 0 to MRU, so chunk 1 (block 32) comes first.
            order = lru.blocks_in_order()
            assert order == [PAGES_PER_CHUNK // PAGES_PER_BLOCK, 0, 1]

    @given(make=st.sampled_from(LRU_FACTORIES),
           ops=st.lists(st.tuples(st.sampled_from(["ins", "del", "touch"]),
                                  st.integers(min_value=0, max_value=1200)),
                        max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_membership_matches_reference(self, make, ops):
        lru = make()
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

    @given(make=st.sampled_from(LRU_FACTORIES),
           ops=st.lists(st.tuples(st.sampled_from(["ins", "del", "touch"]),
                                  st.integers(min_value=0, max_value=1100)),
                        max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_touch_orders_like_insert(self, make, ops):
        touched = make()
        inserted = make()
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

    @given(make=st.sampled_from(LRU_FACTORIES),
           ops=st.lists(st.tuples(st.sampled_from(["run", "del", "touch"]),
                                  st.integers(min_value=0, max_value=1100),
                                  st.integers(min_value=1, max_value=40)),
                        max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_insert_run_orders_like_inserts(self, make, ops):
        """Runs across block and chunk edges, over present pages too."""
        by_run = make()
        by_page = make()
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
        for make in LRU_FACTORIES:
            lru = make()
            lru.insert(0)
            lru.insert(PAGES_PER_BLOCK)
            before = self._order(lru)
            for page in (PAGES_PER_CHUNK,      # absent chunk
                         2 * PAGES_PER_BLOCK,  # absent block, chunk present
                         1):                   # absent page, block present
                with pytest.raises(PolicyError):
                    lru.touch(page)
                assert self._order(lru) == before


#: Pages of three chunks, four blocks each, so that operations hit
#: present pages often.
_ORACLE_PAGES = st.builds(
    lambda chunk, block, offset:
        chunk * PAGES_PER_CHUNK + block * PAGES_PER_BLOCK + offset,
    st.integers(0, 2), st.integers(0, 3), st.integers(0, PAGES_PER_BLOCK - 1))
_ORACLE_OPS = st.lists(st.one_of(
    st.tuples(st.just("insert"), _ORACLE_PAGES),
    st.tuples(st.just("insert_run"), _ORACLE_PAGES, st.integers(1, 40)),
    st.tuples(st.just("touch"), _ORACLE_PAGES),
    st.tuples(st.just("remove"), _ORACLE_PAGES),
    st.tuples(st.just("remove_block"), _ORACLE_PAGES),
    st.tuples(st.just("cascade"), _ORACLE_PAGES,
              st.integers(0, PAGES_PER_BLOCK)),
    st.tuples(st.just("victim_block"), st.integers(0, 200)),
    st.tuples(st.just("victim_page"), st.integers(0, 200)),
), max_size=60)


def _outcome(call, *args):
    """A call's result, or the PolicyError class it raised."""
    try:
        return call(*args)
    except PolicyError:
        return PolicyError


def _apply(lru, op, args):
    """One oracle operation on ``lru``; returns what it observed."""
    if op == "insert_run":
        page, length = args
        return lru.insert_run(page, page + length)
    if op in ("remove_block", "cascade"):
        block = SPACE.block_of_page(args[0])
        pages = lru.remove_block(block)
        if op == "remove_block":
            return pages
        # TBNe's cascade: keep the ``wanted`` LRU-most pages of the
        # block, re-insert the rest.
        wanted = args[1]
        for page in pages[wanted:]:
            lru.insert(page)
        return pages[:wanted]
    return _outcome(getattr(lru, op), *args)


class TestStampsAgainstOrderedOracle:
    """The stamp LRU against the ``OrderedDict`` structure it replaced."""

    @given(make=st.sampled_from(LRU_FACTORIES), ops=_ORACLE_OPS)
    @settings(max_examples=150, deadline=None)
    def test_every_query_matches(self, make, ops):
        lru = make()
        oracle = OrderedHierarchicalLRU(SPACE)
        for op, *args in ops:
            assert _apply(lru, op, args) == _apply(oracle, op, args)
            assert len(lru) == len(oracle)
            assert lru.blocks_in_order() == oracle.blocks_in_order()
            # A page is a member exactly when its stamp is non-zero.
            assert sum(map(bool, lru.stamps.page)) == len(lru)
        order = [oracle.victim_page(i) for i in range(len(oracle))]
        assert [lru.victim_page(i) for i in range(len(lru))] == order
        assert lru.pages_in_order() == order
        for page in range(3 * PAGES_PER_CHUNK):
            assert (page in lru) == (page in oracle)

    def test_page_table_growth_keeps_stamps(self):
        """A stamp store that is the page table's moves with the table's
        window and keeps every stamp and the clock."""
        table = GpuPageTable()
        lru = HierarchicalLRU(SPACE, table.claim_stamps(SPACE))
        first = 1 << 20
        lru.insert_run(first, first + 40)
        order = [lru.victim_page(i) for i in range(len(lru))]
        clock = lru.stamps.clock
        table.begin_migration(first - 3 * (1 << 16))  # grows downwards
        table.begin_migration(first + 5 * (1 << 16))  # and upwards
        assert lru.stamps.base == table.access_view()[0]
        assert len(lru.stamps.page) == len(table.access_view()[1])
        assert [lru.victim_page(i) for i in range(len(lru))] == order
        assert lru.stamps.clock == clock

    def test_table_stamps_go_to_one_lru(self):
        table = GpuPageTable()
        assert table.claim_stamps(SPACE) is table.stamps is not None
        assert table.claim_stamps(SPACE) is None


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
