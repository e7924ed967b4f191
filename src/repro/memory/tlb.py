"""Per-SM TLB.

The paper models a fully associative TLB with a single-cycle lookup
(Section 6.1, after Pichai et al.); misses trigger a 100-cycle page-table
walk by the GMMU.  Entries are invalidated (a shootdown) when the driver
evicts the page; the driver shoots down a whole eviction round at once.
"""

from __future__ import annotations

from collections import OrderedDict


class Tlb:
    """Fully associative, LRU-replacement TLB over 4 KB page translations."""

    def __init__(self, entries: int) -> None:
        if entries <= 0:
            raise ValueError("TLB must have at least one entry")
        self.capacity = entries
        self._entries: OrderedDict[int, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lookup(self, page: int) -> bool:
        """True on hit; refreshes LRU position."""
        if page in self._entries:
            self._entries.move_to_end(page)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, page: int) -> None:
        """Fill a translation, evicting the LRU entry when full."""
        if page in self._entries:
            self._entries.move_to_end(page)
            return
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
        self._entries[page] = None

    def invalidate_many(self, pages: set[int]) -> set[int]:
        """Shoot down every cached translation in ``pages``.

        Returns the pages that were cached; survivors keep their LRU
        order.
        """
        entries = self._entries
        hit = entries.keys() & pages
        for page in hit:
            del entries[page]
        return hit

    def flush(self) -> None:
        """Drop every cached translation."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, page: int) -> bool:
        return page in self._entries
