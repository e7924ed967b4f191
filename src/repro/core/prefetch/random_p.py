"""Random (Rp) prefetcher.

"A random prefetcher prefetches a random 4KB page along with the 4KB page
for which the far-fault occurred in the current cycle.  The prefetch
candidate is selected randomly from the 2MB large page boundary to which the
faulty page belongs" (Section 3.1).
"""

from __future__ import annotations

from ..context import UvmContext
from ..plans import MigrationPlan, split_runs_at_faults
from .base import Prefetcher, register_prefetcher


@register_prefetcher
class RandomPrefetcher(Prefetcher):
    """Faulted page + one random invalid page from the same 2 MB chunk."""

    name = "random"

    def plan(self, faulted_pages: list[int],
             ctx: UvmContext) -> MigrationPlan:
        fault_set = set(faulted_pages)
        planned: set[int] = set(fault_set)
        for page in faulted_pages:
            candidate = self._pick_candidate(page, planned, ctx)
            if candidate is not None:
                planned.add(candidate)
        groups = split_runs_at_faults(sorted(planned), fault_set)
        return MigrationPlan(groups=groups)

    @staticmethod
    def _pick_candidate(page: int, planned: set[int],
                        ctx: UvmContext) -> int | None:
        """A uniformly random INVALID page of the same 2 MB large page."""
        chunk = ctx.requested_pages_in_large_page(page)
        pool = [
            p for p in ctx.page_table.invalid_pages_in_range(
                chunk.start, chunk.stop)
            if p not in planned
        ]
        if not pool:
            return None
        return ctx.rng.choice(pool)
