"""Adaptive pre-eviction — an extension beyond the paper.

The paper's Section 7 shows no single granularity wins everywhere: TBNe's
cascades are best when evicted regions stay cold, while nw-style sparse
reuse prefers SLe's single-block evictions.  This policy watches the
*thrash rate* — the fraction of recently evicted pages that were migrated
back — and degrades from TBNe-style cascading to SLe-style single-block
eviction when thrashing is high, returning to cascading when it subsides.

It reuses the same hierarchical LRU and buddy trees, so like the paper's
policies it adds no bookkeeping beyond what the prefetcher maintains, plus
one counter pair per epoch.
"""

from __future__ import annotations

from collections import OrderedDict

from ...memory.lru import HierarchicalLRU
from ..context import UvmContext
from .base import register_eviction
from .tbn import TreeBasedNeighborhoodPreEviction

_MISSING = object()


@register_eviction
class AdaptivePreEviction(TreeBasedNeighborhoodPreEviction):
    """TBNe-style cascades, throttled by an observed thrash rate.

    Only the thrash bookkeeping is its own.  The epoch note runs after
    every write-back unit, so :attr:`cascading` can flip between the
    victims of a single plan.
    """

    name = "adaptive"

    #: Evictions per adaptation epoch.
    EPOCH_EVICTIONS = 64
    #: Above this re-migration fraction, cascading is suspended.
    THRASH_HIGH = 0.30
    #: Below this fraction, cascading resumes.
    THRASH_LOW = 0.10
    #: Sliding window of recently evicted pages watched for returns.
    RECENT_WINDOW = 4096

    def reset(self) -> None:
        super().reset()
        self.cascading = True
        #: Recently evicted pages (FIFO, bounded); a page migrating back
        #: while still tracked counts as thrash.
        self._recent: OrderedDict[int, None] = OrderedDict()
        self._epoch_evictions = 0
        self._epoch_thrashed = 0

    def on_validated(self, page: int, ctx: UvmContext) -> None:
        if self._recent.pop(page, _MISSING) is not _MISSING:
            # A recently evicted page came back: thrash.
            self._epoch_thrashed += 1
        super().on_validated(page, ctx)

    def _evict_next(self, lru: HierarchicalLRU,
                    ctx: UvmContext) -> list[list[int]]:
        units = super()._evict_next(lru, ctx)
        for pages in units:
            self._note_evictions(pages)
        return units

    def _note_evictions(self, pages: list[int]) -> None:
        """Epoch note after one write-back unit."""
        for page in pages:
            self._recent[page] = None
        while len(self._recent) > self.RECENT_WINDOW:
            self._recent.popitem(last=False)
        self._epoch_evictions += len(pages)
        if self._epoch_evictions >= self.EPOCH_EVICTIONS:
            rate = self._epoch_thrashed / self._epoch_evictions
            if self.cascading and rate > self.THRASH_HIGH:
                self.cascading = False
            elif not self.cascading and rate < self.THRASH_LOW:
                self.cascading = True
            self._epoch_evictions = 0
            self._epoch_thrashed = 0
