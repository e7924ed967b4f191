"""Tests for the full binary tree (repro.memory.btree).

The two TBNp walkthroughs of Figure 2 and the TBNe walkthrough of Figure 8
are encoded exactly; property-based tests check the accounting invariants
under arbitrary operation sequences.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import constants
from repro.errors import PolicyError
from repro.memory.allocation import TreeRegion
from repro.memory.btree import BuddyTree

KB64 = constants.BASIC_BLOCK_SIZE


def make_tree(num_blocks=8, base_addr=0, threshold=0.5):
    region = TreeRegion(base_addr, num_blocks, KB64)
    return BuddyTree(region, threshold=threshold)


def fill_block(tree, block):
    """Simulate a fault migrating the whole basic block, then balance."""
    tree.adjust_block(block, KB64 - tree.leaf_valid_bytes(block))
    return tree.balance_after_fill(block)


def evict_block(tree, block):
    """Simulate evicting the whole basic block, then balance."""
    tree.adjust_block(block, -tree.leaf_valid_bytes(block))
    return tree.balance_after_evict(block)


class TestConstruction:
    def test_rejects_non_power_of_two(self):
        region = TreeRegion(0, 8, KB64)
        object.__setattr__(region, "num_blocks", 6)
        with pytest.raises(PolicyError):
            BuddyTree(region)

    def test_initially_empty(self):
        tree = make_tree()
        assert tree.root_valid_bytes == 0
        for block in range(8):
            assert tree.leaf_valid_bytes(block) == 0

    def test_covers_block_respects_base(self):
        tree = make_tree(base_addr=4 * constants.MIB)
        first = 4 * constants.MIB // KB64
        assert tree.covers_block(first)
        assert tree.covers_block(first + 7)
        assert not tree.covers_block(first - 1)
        assert not tree.covers_block(first + 8)


class TestFill:
    def test_equals_the_same_adjustments(self):
        leaves = [KB64, 0, KB64 // 2, KB64, 0, 0, 4096, KB64]
        filled = make_tree()
        filled.fill(leaves)
        adjusted = make_tree()
        for block, nbytes in enumerate(leaves):
            adjusted.adjust_block(block, nbytes)
        filled.check_consistency()
        assert filled._valid == adjusted._valid

    def test_rejects_wrong_leaf_count(self):
        with pytest.raises(PolicyError):
            make_tree().fill([0] * 4)


class TestAdjustBlock:
    def test_updates_leaf_and_root(self):
        tree = make_tree()
        tree.adjust_block(3, KB64)
        assert tree.leaf_valid_bytes(3) == KB64
        assert tree.root_valid_bytes == KB64
        tree.check_consistency()

    def test_rejects_overflow(self):
        tree = make_tree()
        tree.adjust_block(0, KB64)
        with pytest.raises(PolicyError):
            tree.adjust_block(0, 4096)

    def test_rejects_underflow(self):
        tree = make_tree()
        with pytest.raises(PolicyError):
            tree.adjust_block(0, -4096)

    def test_rejects_block_outside_tree(self):
        tree = make_tree()
        with pytest.raises(PolicyError):
            tree.adjust_block(100, KB64)


class TestTbnpFigure2a:
    """First Figure 2 example: faults on blocks 1, 3, 5, 7 then 0."""

    def test_first_four_faults_prefetch_nothing(self):
        tree = make_tree()
        for block in (1, 3, 5, 7):
            assert fill_block(tree, block) == {}
        assert tree.root_valid_bytes == 4 * KB64

    def test_fifth_fault_prefetches_blocks_2_4_6(self):
        tree = make_tree()
        for block in (1, 3, 5, 7):
            fill_block(tree, block)
        plan = fill_block(tree, 0)
        assert plan == {2: KB64, 4: KB64, 6: KB64}
        # Tree fully valid afterwards.
        assert tree.root_valid_bytes == 8 * KB64
        tree.check_consistency()


class TestTbnpFigure2b:
    """Second Figure 2 example: faults on blocks 1, 3, 0, then 4."""

    def test_first_two_faults_prefetch_nothing(self):
        tree = make_tree()
        assert fill_block(tree, 1) == {}
        assert fill_block(tree, 3) == {}

    def test_third_fault_prefetches_block_2(self):
        tree = make_tree()
        fill_block(tree, 1)
        fill_block(tree, 3)
        plan = fill_block(tree, 0)
        assert plan == {2: KB64}

    def test_fourth_fault_prefetches_blocks_5_6_7(self):
        tree = make_tree()
        for block in (1, 3):
            fill_block(tree, block)
        fill_block(tree, 0)
        plan = fill_block(tree, 4)
        assert plan == {5: KB64, 6: KB64, 7: KB64}
        assert tree.root_valid_bytes == 8 * KB64
        tree.check_consistency()


class TestTbnpBounds:
    def test_max_single_prefetch_on_2mb_tree_is_1020kb_counterpart(self):
        """Mirror of Figure 2(b) scaled to a full 2MB tree: a single fault
        can trigger prefetch of up to half the tree minus what is valid."""
        tree = make_tree(num_blocks=32)
        # Fill the left half leaf-by-leaf (intermediate balancing may
        # prefetch some of these blocks early; the set dedupes).
        valid: set[int] = set()
        for block in range(16):
            valid.add(block)
            valid.update(fill_block(tree, block))
        # Fault one block in the right half: root goes over 50% and balances.
        before = len(valid)
        valid.add(16)
        plan = fill_block(tree, 16)
        valid.update(plan)
        prefetched_bytes = sum(plan.values())
        assert tree.root_valid_bytes == len(valid) * KB64
        assert prefetched_bytes <= 2 * constants.MIB - (before + 1) * KB64
        tree.check_consistency()

    def test_no_prefetch_below_threshold(self):
        tree = make_tree(num_blocks=8)
        # Fault blocks 0 and 4 (opposite halves): every ancestor is at
        # exactly 50% or below -- never *strictly* greater.
        assert fill_block(tree, 0) == {}
        assert fill_block(tree, 4) == {}


class TestTbneFigure8:
    """Figure 8: 512KB fully valid; LRU evicts blocks 1, 3, 4, then 0."""

    def setup_method(self):
        self.tree = make_tree()
        for block in range(8):
            self.tree.adjust_block(block, KB64)

    def test_first_three_evictions_cascade_nothing(self):
        for block in (1, 3, 4):
            assert evict_block(self.tree, block) == {}
        assert self.tree.root_valid_bytes == 5 * KB64

    def test_fourth_eviction_cascades_2_5_6_7(self):
        for block in (1, 3, 4):
            evict_block(self.tree, block)
        plan = evict_block(self.tree, 0)
        assert plan == {2: KB64, 5: KB64, 6: KB64, 7: KB64}
        assert self.tree.root_valid_bytes == 0
        self.tree.check_consistency()

    def test_single_eviction_from_full_tree_cascades_nothing(self):
        assert evict_block(self.tree, 5) == {}
        assert self.tree.root_valid_bytes == 7 * KB64


class TestTbneAdjacent:
    def test_adjacent_evictions_do_not_empty_tree(self):
        """Evicting blocks 0,1,2 cascades only block 3 (their buddy pair),
        leaving the other half of the tree resident."""
        tree = make_tree()
        for block in range(8):
            tree.adjust_block(block, KB64)
        assert evict_block(tree, 0) == {}
        assert evict_block(tree, 1) == {}
        plan = evict_block(tree, 2)
        assert plan == {3: KB64}
        assert tree.root_valid_bytes == 4 * KB64


@st.composite
def operations(draw):
    """A sequence of whole-block fill/evict operations on an 8-block tree."""
    ops = draw(st.lists(
        st.tuples(st.sampled_from(["fill", "evict"]),
                  st.integers(min_value=0, max_value=7)),
        min_size=1, max_size=40,
    ))
    return ops


class TestTreeProperties:
    @given(operations())
    @settings(max_examples=200, deadline=None)
    def test_accounting_stays_consistent(self, ops):
        tree = make_tree()
        valid_blocks: set[int] = set()
        for op, block in ops:
            if op == "fill" and block not in valid_blocks:
                plan = fill_block(tree, block)
                valid_blocks.add(block)
                for planned, nbytes in plan.items():
                    assert planned not in valid_blocks
                    assert nbytes == KB64
                    valid_blocks.add(planned)
            elif op == "evict" and block in valid_blocks:
                plan = evict_block(tree, block)
                valid_blocks.discard(block)
                for planned, nbytes in plan.items():
                    assert planned in valid_blocks
                    assert nbytes == KB64
                    valid_blocks.discard(planned)
        tree.check_consistency()
        assert tree.root_valid_bytes == len(valid_blocks) * KB64
        for block in range(8):
            expected = KB64 if block in valid_blocks else 0
            assert tree.leaf_valid_bytes(block) == expected

    @given(operations())
    @settings(max_examples=100, deadline=None)
    def test_prefetch_plans_target_invalid_blocks_only(self, ops):
        tree = make_tree()
        valid_blocks: set[int] = set()
        for op, block in ops:
            if op == "fill" and block not in valid_blocks:
                plan = fill_block(tree, block)
                assert block not in plan
                assert not set(plan) & valid_blocks
                valid_blocks.add(block)
                valid_blocks.update(plan)
            elif op == "evict" and block in valid_blocks:
                plan = evict_block(tree, block)
                assert block not in plan
                assert set(plan) <= valid_blocks
                valid_blocks.discard(block)
                valid_blocks.difference_update(plan)

    @given(st.integers(min_value=1, max_value=6))
    def test_threshold_one_sided(self, log_blocks):
        """With every block individually filled in order, TBNp prefetches the
        whole tree once the first half is exceeded."""
        n = 2 ** log_blocks
        tree = make_tree(num_blocks=n)
        filled: set[int] = set()
        for block in range(n // 2):
            plan = fill_block(tree, block)
            filled.add(block)
            filled.update(plan)
        # Sequential fill keeps every ancestor at <= 50% until half point.
        assert tree.root_valid_bytes <= n * KB64
        plan = fill_block(tree, n // 2) if n > 1 else {}
        filled.add(n // 2)
        filled.update(plan)
        assert tree.root_valid_bytes == len(filled) * KB64
