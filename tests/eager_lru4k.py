"""The eager LRU 4 KB evictor, kept as a test oracle.

:class:`repro.core.evict.lru4k.Lru4kEviction` logs accesses and settles
the log before any call that reads or changes its order.  This is the
policy it replaced: every access pops the page from the unaccessed set
and moves it to the MRU end at once, through ``on_accessed`` or the
closure ``access_hook`` returns.  It is not registered, so the registry
keeps the log-backed policy.  Tests drive both with the same operations
and compare victims, evictable counts and the final order.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

from repro.core.evict.base import EvictionPolicy, clamped_skip
from repro.core.plans import EvictionPlan, EvictionUnit
from repro.memory.lru import FlatLRU


class EagerLru4kEviction(EvictionPolicy):
    """One 4 KB page at a time, least-recently-*accessed* first."""

    name = "eager-lru4k"

    #: Insert pages on validation instead of first access.
    insert_on_validation = False

    def __init__(self, insert_on_validation: bool = False) -> None:
        self.insert_on_validation = insert_on_validation
        self._lru = FlatLRU()
        #: Valid pages that were never accessed (not in the LRU list).
        self._unaccessed: OrderedDict[int, None] = OrderedDict()

    def reset(self) -> None:
        self._lru = FlatLRU()
        self._unaccessed.clear()

    def on_validated(self, page: int, ctx) -> None:
        if self.insert_on_validation:
            self._lru.insert(page)
        else:
            self._unaccessed[page] = None

    def on_validated_many(self, pages, ctx) -> None:
        if self.insert_on_validation:
            super().on_validated_many(pages, ctx)
        else:
            self._unaccessed.update(dict.fromkeys(pages))

    def on_accessed(self, page: int, ctx) -> None:
        self._unaccessed.pop(page, None)
        self._lru.insert(page)

    def access_hook(self, ctx) -> Callable[[int], None]:
        unaccessed_pop = self._unaccessed.pop
        lru_pages = self._lru._pages
        move_to_end = lru_pages.move_to_end

        def accessed(page: int) -> None:
            unaccessed_pop(page, None)
            lru_pages[page] = None
            move_to_end(page)

        return accessed

    def on_invalidated_externally(self, page: int, ctx) -> None:
        self._unaccessed.pop(page, None)
        if page in self._lru:
            self._lru.remove(page)

    def evictable_pages(self) -> int:
        return len(self._lru) + len(self._unaccessed)

    def plan_eviction(self, n_pages: int, ctx) -> EvictionPlan:
        units: list[EvictionUnit] = []
        skip = ctx.reservation_skip
        for _ in range(n_pages):
            page = self._pop_victim(skip)
            if page is None:
                break
            units.append(EvictionUnit([page], unit_writeback=False))
        return EvictionPlan(units=units)

    def eviction_order(self) -> list[int]:
        """Accessed pages least recent first, then the never accessed
        ones in validation order."""
        return self._lru.pages_in_order() + list(self._unaccessed)

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
