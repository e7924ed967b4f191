"""Tree-based neighborhood (TBNe) pre-eviction (Section 5.2).

The mirror image of TBNp on the same full binary trees: the LRU victim's
64 KB basic block is evicted; then, walking the tree upward, any node whose
valid size drops *strictly below* 50% of its capacity lowers its larger
child to its smaller child's size, recursively — Figure 8's cascade.
Contiguous cascade blocks are grouped into a single write-back transfer
("As these blocks are contiguous GMMU groups them together into a single
transfer").  Eviction granularity thus adapts between 64 KB and ~1 MB.
"""

from __future__ import annotations

from ...memory.addressing import contiguous_runs
from ...memory.lru import HierarchicalLRU
from ..context import UvmContext
from .base import BlockLruEviction, register_eviction


@register_eviction
class TreeBasedNeighborhoodPreEviction(BlockLruEviction):
    """Adaptive block-granular pre-eviction driven by tree balance."""

    name = "tbn"
    #: Whether the tree cascade follows the victim block (a subclass may
    #: throttle it per instance).
    cascading = True

    def _evict_next(self, lru: HierarchicalLRU,
                    ctx: UvmContext) -> list[list[int]]:
        evicted = self._evict_with_cascade(
            self._lru_victim_block(lru, ctx), lru, ctx
        )
        # Group contiguous evicted blocks into single write-back units.
        units: list[list[int]] = []
        for start, count in contiguous_runs(sorted(evicted)):
            pages: list[int] = []
            for block in range(start, start + count):
                pages.extend(evicted[block])
            pages.sort()
            units.append(pages)
        return units

    def _evict_with_cascade(
        self, victim_block: int, lru: HierarchicalLRU, ctx: UvmContext
    ) -> dict[int, list[int]]:
        """Evict the victim block, apply the tree cascade while
        :attr:`cascading`, and return ``{block: pages_removed}`` for
        everything chosen."""
        page_size = ctx.config.page_size
        tree = ctx.tree_for_block(victim_block)
        pages = lru.remove_block(victim_block)
        evicted = {victim_block: pages}
        ctx.adjust_trees_for_pages(pages, -1)
        if not self.cascading:
            return evicted
        cascade = tree.balance_after_evict(victim_block)
        for block, nbytes in cascade.items():
            wanted = nbytes // page_size
            block_pages = lru.remove_block(block)
            taken = block_pages[:wanted]
            # Pages beyond `wanted` (partial-block decisions) stay resident.
            for page in block_pages[len(taken):]:
                lru.insert(page)
            if taken:
                evicted[block] = taken
            # Reconcile the tree with what was actually removable: the tree
            # counts in-flight (MIGRATING) bytes the LRU does not hold.
            shortfall = wanted - len(taken)
            if shortfall > 0:
                tree.adjust_block(block, shortfall * page_size)
        return evicted
