"""The plain sequential prefetcher of Zheng et al. [26].

"Zheng et al describe their sequential prefetcher as the process of
bringing a sequence of 4KB pages from the lowest to the highest order of
virtual address irrespective of page access pattern or far-faults"
(Section 3.2).  Implemented as a per-allocation cursor that advances a
fixed window of pages on every fault batch, regardless of where the faults
landed.  Included as an extra baseline beyond the paper's main four.
"""

from __future__ import annotations

from ..context import UvmContext
from ..plans import MigrationPlan, split_runs_at_faults
from .base import Prefetcher, register_prefetcher


@register_prefetcher
class ZhengSequentialPrefetcher(Prefetcher):
    """Low-to-high VA streaming, oblivious to the fault addresses."""

    name = "zheng-sequential"

    #: Pages advanced per fault batch (64 pages = 256KB of streaming).
    WINDOW_PAGES = 64

    def __init__(self) -> None:
        #: Allocation name -> next page offset the cursor will consider.
        self._cursors: dict[str, int] = {}

    def reset(self) -> None:
        self._cursors.clear()

    def plan(self, faulted_pages: list[int],
             ctx: UvmContext) -> MigrationPlan:
        fault_set = set(faulted_pages)
        planned: set[int] = set(fault_set)
        page_table = ctx.page_table
        touched_allocs = []
        seen = set()
        for page in faulted_pages:
            alloc = ctx.allocator.allocation_of_page(page)
            if alloc.name not in seen:
                seen.add(alloc.name)
                touched_allocs.append(alloc)
        for alloc in touched_allocs:
            first = alloc.page_range[0]
            cursor = self._cursors.get(alloc.name, 0)
            wanted = self.WINDOW_PAGES
            # The cursor passes every page it considers and stops just
            # past the window's last taken page.
            while wanted and cursor < alloc.num_pages:
                stop = min(cursor + self.WINDOW_PAGES, alloc.num_pages)
                fresh = [page for page in page_table.invalid_pages_in_range(
                    first + cursor, first + stop) if page not in planned]
                taken = fresh[:wanted]
                planned.update(taken)
                wanted -= len(taken)
                cursor = taken[-1] + 1 - first if not wanted else stop
            self._cursors[alloc.name] = cursor
        groups = split_runs_at_faults(sorted(planned), fault_set)
        return MigrationPlan(groups=groups)
