"""2 MB large-page LRU eviction (Section 7.5).

"Experiments on real hardware reveals that eviction granularity is indeed
2MB for NVIDIA GPUs."  Evicting a whole large page guarantees contiguous
invalid space for the prefetcher, but "like aggressive prefetching,
aggressive eviction is detrimental as it can cause serious page thrashing
upon evicting highly referenced pages in case of repetitive kernel launch."
"""

from __future__ import annotations

from ...memory.lru import HierarchicalLRU
from ..context import UvmContext
from .base import BlockLruEviction, register_eviction


@register_eviction
class Lru2MbEviction(BlockLruEviction):
    """Evicts the least-recently-used 2 MB large page in one unit."""

    name = "lru2mb"

    def _evict_next(self, lru: HierarchicalLRU,
                    ctx: UvmContext) -> list[list[int]]:
        chunk = self._lru_victim_block(lru, ctx) \
            // ctx.space.blocks_per_large_page
        pages: list[int] = []
        for block in ctx.space.blocks_in_large_page(chunk):
            pages.extend(lru.remove_block(block))
        pages.sort()
        return [pages]
