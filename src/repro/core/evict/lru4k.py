"""LRU 4 KB page eviction (Section 4.2).

The traditional LRU list "only maintains pages with the access flags set"
(Section 5.3), so prefetched-but-never-accessed pages are invisible to it:
"These unused prefetched pages are never chosen for eviction by LRU"
(Section 5).  They are still resident, though, so when the accessed-page
list runs dry the policy falls back to reclaiming them in FIFO order rather
than deadlocking.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

from ...memory.lru import FlatLRU
from ..context import UvmContext
from ..plans import EvictionPlan, EvictionUnit
from .base import EvictionPolicy, clamped_skip, register_eviction


@register_eviction
class Lru4kEviction(EvictionPolicy):
    """One 4 KB page at a time, least-recently-*accessed* first."""

    name = "lru4k"

    #: Ablation knob: insert pages on validation instead of first access
    #: (making prefetched pages first-class eviction candidates).
    insert_on_validation = False

    def __init__(self) -> None:
        self._lru = FlatLRU()
        #: Valid pages that were never accessed (not in the LRU list).
        self._unaccessed: OrderedDict[int, None] = OrderedDict()

    def reset(self) -> None:
        self._lru = FlatLRU()
        self._unaccessed.clear()

    def on_validated(self, page: int, ctx: UvmContext) -> None:
        if self.insert_on_validation:
            self._lru.insert(page)
        else:
            self._unaccessed[page] = None

    def on_validated_many(self, pages, ctx: UvmContext) -> None:
        if self.insert_on_validation \
                or type(self).on_validated is not Lru4kEviction.on_validated:
            # The ablation, or a subclass extending the per-page hook.
            super().on_validated_many(pages, ctx)
        else:
            self._unaccessed.update(dict.fromkeys(pages))

    def on_accessed(self, page: int, ctx: UvmContext) -> None:
        self._unaccessed.pop(page, None)
        self._lru.insert(page)

    def access_hook(self, ctx: UvmContext) -> Callable[[int], None]:
        if type(self).on_accessed is not Lru4kEviction.on_accessed:
            # A subclass extends the per-page hook: keep calling it.
            return super().access_hook(ctx)
        unaccessed_pop = self._unaccessed.pop
        # FlatLRU.insert inlined: storing a present key keeps its place,
        # so the move puts every accessed page at the MRU end.
        lru_pages = self._lru._pages
        move_to_end = lru_pages.move_to_end

        def accessed(page: int) -> None:
            unaccessed_pop(page, None)
            lru_pages[page] = None
            move_to_end(page)

        return accessed

    def on_accessed_many(self, pages, ctx: UvmContext) -> None:
        # Inlined loop over the compressed window (hot path).
        unaccessed_pop = self._unaccessed.pop
        insert = self._lru.insert
        for page in pages:
            unaccessed_pop(page, None)
            insert(page)

    def on_invalidated_externally(self, page: int,
                                  ctx: UvmContext) -> None:
        self._unaccessed.pop(page, None)
        if page in self._lru:
            self._lru.remove(page)

    def evictable_pages(self) -> int:
        return len(self._lru) + len(self._unaccessed)

    def plan_eviction(self, n_pages: int, ctx: UvmContext) -> EvictionPlan:
        units: list[EvictionUnit] = []
        skip = ctx.reservation_skip
        for _ in range(n_pages):
            page = self._pop_victim(skip)
            if page is None:
                break
            units.append(EvictionUnit([page], unit_writeback=False))
        return EvictionPlan(units=units)

    def _pop_victim(self, skip: int) -> int | None:
        if self._lru:
            effective = clamped_skip(skip, len(self._lru), 1)
            page = self._lru.victim(effective)
            self._lru.remove(page)
            return page
        if self._unaccessed:
            page, _ = self._unaccessed.popitem(last=False)
            return page
        return None


@register_eviction
class Lru4kValidatedEviction(Lru4kEviction):
    """Ablation variant: pages join the LRU list on validation."""

    name = "lru4k-validated"
    insert_on_validation = True
