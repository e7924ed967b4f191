"""The locality-aware prefetcher of Zheng et al. [26].

"Their locality aware prefetcher migrates consecutive 128 4KB pages (or
total 512KB memory chunk) starting from the faulty-page" (Section 3.2).  The
paper contrasts SLp against this scheme; it is included as an additional
baseline beyond the paper's main four.
"""

from __future__ import annotations

from ..context import UvmContext
from ..plans import MigrationPlan, split_runs_at_faults
from .base import Prefetcher, register_prefetcher


@register_prefetcher
class ZhengLocalityPrefetcher(Prefetcher):
    """512 KB forward window from every faulted page."""

    name = "zheng512"

    #: 128 pages x 4 KB = 512 KB.
    WINDOW_PAGES = 128

    def plan(self, faulted_pages: list[int],
             ctx: UvmContext) -> MigrationPlan:
        fault_set = set(faulted_pages)
        planned: set[int] = set(fault_set)
        page_table = ctx.page_table
        for page in faulted_pages:
            alloc = ctx.allocator.allocation_of_page(page)
            last = alloc.page_range[-1]
            end = min(page + self.WINDOW_PAGES, last + 1)
            planned.update(page_table.invalid_pages_in_range(page, end))
        groups = split_runs_at_faults(sorted(planned), fault_set)
        return MigrationPlan(groups=groups)
