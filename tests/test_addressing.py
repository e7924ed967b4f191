"""Tests for address arithmetic (repro.memory.addressing)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import constants
from repro.memory.addressing import (
    AddressSpace,
    contiguous_runs,
    round_up_pow2_blocks,
)

SPACE = AddressSpace()


class TestAddressSpace:
    def test_page_of_block_boundaries(self):
        assert SPACE.page_of(0) == 0
        assert SPACE.page_of(4095) == 0
        assert SPACE.page_of(4096) == 1

    def test_block_of(self):
        assert SPACE.block_of(0) == 0
        assert SPACE.block_of(65535) == 0
        assert SPACE.block_of(65536) == 1

    def test_large_page_of(self):
        assert SPACE.large_page_of(2 * constants.MIB - 1) == 0
        assert SPACE.large_page_of(2 * constants.MIB) == 1

    def test_geometry_ratios(self):
        assert SPACE.pages_per_block == 16
        assert SPACE.blocks_per_large_page == 32
        assert SPACE.pages_per_large_page == 512

    def test_ratios_are_derived_not_compared(self):
        small = AddressSpace(8192, 32768, 1 << 20)
        assert (small.pages_per_block, small.blocks_per_large_page,
                small.pages_per_large_page) == (4, 32, 128)
        assert small == AddressSpace(8192, 32768, 1 << 20)
        assert hash(SPACE) == hash(AddressSpace())
        assert repr(SPACE) == ("AddressSpace(page_size=4096, "
                               "block_size=65536, large_page_size=2097152)")

    def test_block_of_page(self):
        assert SPACE.block_of_page(0) == 0
        assert SPACE.block_of_page(15) == 0
        assert SPACE.block_of_page(16) == 1

    def test_pages_in_block(self):
        pages = SPACE.pages_in_block(3)
        assert list(pages) == list(range(48, 64))

    def test_blocks_in_large_page(self):
        assert list(SPACE.blocks_in_large_page(1)) == list(range(32, 64))

    def test_page_address_roundtrip(self):
        for page in (0, 1, 17, 1000):
            assert SPACE.page_of(SPACE.page_address(page)) == page

    def test_align_up_down(self):
        assert SPACE.align_up(1, 4096) == 4096
        assert SPACE.align_up(4096, 4096) == 4096
        assert SPACE.align_down(4097, 4096) == 4096

    @given(st.integers(min_value=0, max_value=2**40))
    def test_page_and_block_consistent(self, addr):
        page = SPACE.page_of(addr)
        assert SPACE.block_of(addr) == SPACE.block_of_page(page)
        assert SPACE.large_page_of(addr) == SPACE.large_page_of_page(page)


class TestContiguousRuns:
    def test_empty(self):
        assert contiguous_runs([]) == []

    def test_single(self):
        assert contiguous_runs([5]) == [(5, 1)]

    def test_merges_adjacent(self):
        assert contiguous_runs([1, 2, 3, 7, 8, 10]) == [(1, 3), (7, 2),
                                                        (10, 1)]

    @given(st.lists(st.integers(min_value=0, max_value=500), min_size=1,
                    unique=True))
    def test_runs_cover_exactly_the_input(self, pages):
        pages = sorted(pages)
        runs = contiguous_runs(pages)
        covered = [p for start, count in runs
                   for p in range(start, start + count)]
        assert covered == pages

    @given(st.lists(st.integers(min_value=0, max_value=60)))
    def test_matches_per_page_walk(self, pages):
        """Equal to a per-page walk on any input, unsorted and repeated
        pages included (each break in +1 steps starts a run)."""
        expected = []
        for page in pages:
            if expected and page == sum(expected[-1]):
                expected[-1] = (expected[-1][0], expected[-1][1] + 1)
            else:
                expected.append((page, 1))
        assert contiguous_runs(pages) == expected

    @given(st.lists(st.integers(min_value=0, max_value=500), min_size=2,
                    unique=True))
    def test_runs_are_maximal(self, pages):
        pages = sorted(pages)
        runs = contiguous_runs(pages)
        page_set = set(pages)
        for start, count in runs:
            assert start - 1 not in page_set
            assert start + count not in page_set


class TestRoundUpPow2Blocks:
    def test_paper_example_192kb(self):
        # Section 3.3: a 192KB remainder rounds up to 256KB.
        assert round_up_pow2_blocks(192 * constants.KIB,
                                    constants.BASIC_BLOCK_SIZE) \
            == 256 * constants.KIB

    def test_exact_power_unchanged(self):
        assert round_up_pow2_blocks(256 * constants.KIB,
                                    constants.BASIC_BLOCK_SIZE) \
            == 256 * constants.KIB

    def test_one_byte_rounds_to_one_block(self):
        assert round_up_pow2_blocks(1, constants.BASIC_BLOCK_SIZE) \
            == constants.BASIC_BLOCK_SIZE

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            round_up_pow2_blocks(0, constants.BASIC_BLOCK_SIZE)

    @given(st.integers(min_value=1, max_value=8 * constants.MIB))
    def test_result_is_pow2_blocks_and_covers(self, size):
        result = round_up_pow2_blocks(size, constants.BASIC_BLOCK_SIZE)
        blocks = result // constants.BASIC_BLOCK_SIZE
        assert result >= size
        assert blocks & (blocks - 1) == 0
        assert result % constants.BASIC_BLOCK_SIZE == 0
