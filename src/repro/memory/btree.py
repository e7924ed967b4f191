"""Full binary trees over 2 MB large pages — the machinery behind TBNp/TBNe.

Every managed allocation is logically split into 2 MB large pages (plus a
rounded power-of-two remainder); each gets a *full binary tree* whose leaves
are 64 KB basic blocks (Section 3.3).  The tree tracks, per node, the total
bytes of valid (or scheduled-to-become-valid) pages among its leaves.

Two balancing acts run over the same structure:

* **Prefetch** (TBNp): when a node's to-be-valid size becomes *strictly
  greater* than 50% of its capacity, the smaller child is raised to the
  larger child's size, the decision being pushed down recursively to
  children that still have room.
* **Pre-eviction** (TBNe): mirror image — when a node's valid size falls
  *strictly below* 50% of its capacity, the eviction decision is pushed
  down to the children till the leaf level: the subtree's remaining valid
  blocks are evicted, freeing a maximal contiguous invalid range.

The tree stores byte counts only; the planners map a planned (block, bytes)
to pages through the page table, of which each simulator tree is a view.
"""

from __future__ import annotations

from .. import constants
from ..errors import PolicyError
from .allocation import TreeRegion


class BuddyTree:
    """Valid-size accounting and balancing over one :class:`TreeRegion`."""

    def __init__(self, region: TreeRegion, threshold: float = 0.5,
                 page_size: int = constants.PAGE_SIZE) -> None:
        n = region.num_blocks
        if n <= 0 or n & (n - 1):
            raise PolicyError("tree must cover a power-of-two block count")
        self.region = region
        self.num_blocks = n
        self.block_size = region.block_size
        self.page_size = page_size
        self.threshold = threshold
        #: Global index of the first basic block covered by this tree.
        self.first_block = region.base_addr // region.block_size
        #: Heap-layout valid byte counts: root at 0, children of i at
        #: 2i+1 / 2i+2, leaves at [n-1, 2n-1).
        self._valid = [0] * (2 * n - 1)
        self._leaf_base = n - 1

    # --- indexing -----------------------------------------------------------
    def _leaf_node(self, global_block: int) -> int:
        local = global_block - self.first_block
        if not 0 <= local < self.num_blocks:
            raise PolicyError(
                f"block {global_block} outside tree at "
                f"0x{self.region.base_addr:x}"
            )
        return self._leaf_base + local

    def _global_block(self, node: int) -> int:
        return self.first_block + (node - self._leaf_base)

    def _capacity(self, node: int) -> int:
        depth = (node + 1).bit_length() - 1
        return (self.num_blocks >> depth) * self.block_size

    def _is_leaf(self, node: int) -> bool:
        return node >= self._leaf_base

    # --- inspection ---------------------------------------------------------
    @property
    def root_valid_bytes(self) -> int:
        """To-be-valid bytes in the whole tree."""
        return self._valid[0]

    def leaf_valid_bytes(self, global_block: int) -> int:
        """To-be-valid bytes of one basic block."""
        return self._valid[self._leaf_node(global_block)]

    def covers_block(self, global_block: int) -> bool:
        """True when this tree's range includes the basic block."""
        local = global_block - self.first_block
        return 0 <= local < self.num_blocks

    def check_consistency(self) -> None:
        """Assert every internal node equals the sum of its children."""
        for node in range(self._leaf_base):
            left, right = 2 * node + 1, 2 * node + 2
            if self._valid[node] != self._valid[left] + self._valid[right]:
                raise PolicyError(
                    f"tree node {node} inconsistent: "
                    f"{self._valid[node]} != "
                    f"{self._valid[left]} + {self._valid[right]}"
                )
        for node in range(len(self._valid)):
            if not 0 <= self._valid[node] <= self._capacity(node):
                raise PolicyError(f"tree node {node} out of range")

    # --- plain adjustments ----------------------------------------------------
    def fill(self, leaf_bytes: list[int]) -> None:
        """Set every leaf's to-be-valid bytes, in block order, and re-sum
        the nodes above them."""
        if len(leaf_bytes) != self.num_blocks:
            raise PolicyError("fill takes one value per leaf")
        valid = self._valid
        valid[self._leaf_base:] = leaf_bytes
        for node in range(self._leaf_base - 1, -1, -1):
            valid[node] = valid[2 * node + 1] + valid[2 * node + 2]

    def adjust_block(self, global_block: int, delta_bytes: int) -> None:
        """Apply an externally-decided validity change to one block.

        Used for TBNp's faulted blocks and TBNe's LRU victims — anything
        not originated by this tree's own balancing.
        """
        node = self._leaf_node(global_block)
        if not 0 <= self._valid[node] + delta_bytes <= self.block_size:
            raise PolicyError(
                f"block {global_block} valid bytes would leave [0, "
                f"{self.block_size}]"
            )
        while True:
            self._valid[node] += delta_bytes
            if node == 0:
                return
            node = (node - 1) // 2

    # --- TBNp ------------------------------------------------------------------
    def balance_after_fill(self, global_block: int) -> dict[int, int]:
        """Run the prefetch balancing walk after ``global_block`` was filled.

        The caller must have already applied the fill via
        :meth:`adjust_block`.  Returns ``{global_block: bytes}`` of planned
        prefetches; the plan is applied to the tree's to-be-valid counts
        before returning.
        """
        plan: dict[int, int] = {}
        node = self._leaf_node(global_block)
        while node != 0:
            node = (node - 1) // 2
            left, right = 2 * node + 1, 2 * node + 2
            # Re-derive from children: balancing lower levels may have grown
            # a subtree without touching this ancestor yet.
            self._valid[node] = self._valid[left] + self._valid[right]
            capacity = self._capacity(node)
            if self._valid[node] > capacity * self.threshold:
                gap = self._valid[left] - self._valid[right]
                if gap > 0:
                    self._grow(right, gap, plan)
                elif gap < 0:
                    self._grow(left, -gap, plan)
                self._valid[node] = self._valid[left] + self._valid[right]
        return plan

    def _grow(self, node: int, amount: int, plan: dict[int, int]) -> None:
        """Add ``amount`` to-be-valid bytes in ``node``'s subtree, keeping
        the subtree balanced (pushed down to children with room)."""
        room = self._capacity(node) - self._valid[node]
        self._grow_exact(node, min(amount, room), plan)

    def _grow_exact(self, node: int, amount: int,
                    plan: dict[int, int]) -> None:
        """Like :meth:`_grow` but the amount is known to fit exactly."""
        if amount <= 0:
            return
        self._valid[node] += amount
        if self._is_leaf(node):
            block = self._global_block(node)
            plan[block] = plan.get(block, 0) + amount
            return
        left, right = 2 * node + 1, 2 * node + 2
        vl, vr = self._valid[left], self._valid[right]
        final_l, final_r = self._split_grow(vl, vr, amount,
                                            self._capacity(left))
        self._grow_exact(left, final_l - vl, plan)
        self._grow_exact(right, final_r - vr, plan)

    def _split_grow(self, vl: int, vr: int, amount: int,
                    child_capacity: int) -> tuple[int, int]:
        """Distribute ``amount`` bytes so the two children end as balanced
        as block granularity allows."""
        total = vl + vr + amount
        target = self._floor_unit(total // 2)
        final_l = min(max(target, vl), child_capacity)
        final_r = total - final_l
        if final_r > child_capacity:
            final_r = child_capacity
            final_l = total - final_r
        elif final_r < vr:
            final_r = vr
            final_l = total - final_r
        return final_l, final_r

    # --- TBNe ------------------------------------------------------------------
    def balance_after_evict(self, global_block: int) -> dict[int, int]:
        """Run the pre-eviction cascade after ``global_block`` was
        (partially) evicted.

        The caller must have already applied the eviction via
        :meth:`adjust_block`.  Walking toward the root, any node whose valid
        size falls *strictly below* 50% of its capacity has the eviction
        decision "pushed down to the children till the leaf level"
        (Section 5.2): its remaining valid blocks are all evicted, leaving
        the subtree empty — a maximal run of contiguous invalid pages the
        prefetcher can use again.  Emptying a subtree can drop its parent
        below threshold in turn, which is how Figure 8's fourth eviction
        cascades through blocks 2, 5, 6 and 7.

        Returns ``{global_block: bytes}`` of further bytes to evict; the
        plan is applied to the tree before returning.
        """
        plan: dict[int, int] = {}
        node = self._leaf_node(global_block)
        while node != 0:
            node = (node - 1) // 2
            left, right = 2 * node + 1, 2 * node + 2
            self._valid[node] = self._valid[left] + self._valid[right]
            capacity = self._capacity(node)
            if 0 < self._valid[node] < capacity * self.threshold:
                self._flush(left, plan)
                self._flush(right, plan)
                self._valid[node] = 0
        return plan

    def _flush(self, node: int, plan: dict[int, int]) -> None:
        """Evict every remaining valid byte under ``node``."""
        if self._valid[node] == 0:
            return
        if self._is_leaf(node):
            block = self._global_block(node)
            plan[block] = plan.get(block, 0) + self._valid[node]
            self._valid[node] = 0
            return
        self._flush(2 * node + 1, plan)
        self._flush(2 * node + 2, plan)
        self._valid[node] = 0

    # --- helpers -----------------------------------------------------------------
    def _floor_unit(self, value: int) -> int:
        """Floor to basic-block granularity, falling back to pages.

        The split targets prefer whole 64 KB blocks (prefetch and eviction
        act on basic blocks); when values are not block-aligned (partial
        blocks created by 4 KB-granularity eviction) page granularity is
        used instead.
        """
        block_floor = (value // self.block_size) * self.block_size
        if block_floor:
            return block_floor
        return (value // self.page_size) * self.page_size
