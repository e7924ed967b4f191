"""Sequential-local (SLe) pre-eviction (Section 5.1).

"Sequential-local eviction consults the LRU page list to select an eviction
candidate.  GMMU then determines the 64KB basic block to which the current
eviction candidate belongs and then schedules the whole basic block for
eviction and eventual write-back. ... All the 16 pages in the 64KB are
written back as a single unit irrespective of the pages within are clean or
dirty."

Per the Section 5.3 design choice, *all* valid pages live in the
(hierarchical) LRU list — prefetched-but-unaccessed pages included — so
evicting the block removes them too and frees contiguous virtual space for
further prefetching.
"""

from __future__ import annotations

from ...memory.lru import HierarchicalLRU
from ..context import UvmContext
from .base import BlockLruEviction, register_eviction


@register_eviction
class SequentialLocalPreEviction(BlockLruEviction):
    """Evicts the whole 64 KB basic block of the LRU victim."""

    name = "sequential-local"

    def _evict_next(self, lru: HierarchicalLRU,
                    ctx: UvmContext) -> list[list[int]]:
        return [sorted(lru.remove_block(self._lru_victim_block(lru, ctx)))]
