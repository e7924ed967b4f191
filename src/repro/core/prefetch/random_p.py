"""Random (Rp) prefetcher.

"A random prefetcher prefetches a random 4KB page along with the 4KB page
for which the far-fault occurred in the current cycle.  The prefetch
candidate is selected randomly from the 2MB large page boundary to which the
faulty page belongs" (Section 3.1).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress, islice
from random import Random

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
        faults = sorted(fault_set)
        planned: set[int] = set(fault_set)
        pages_per_chunk = ctx.space.pages_per_large_page
        #: Per large page: its requested pages and, as a byte mask, those
        #: of them INVALID and not yet planned.
        free_by_chunk: dict[int, tuple[range, bytearray]] = {}
        for page in faulted_pages:
            entry = free_by_chunk.get(page // pages_per_chunk)
            if entry is None:
                chunk = ctx.requested_pages_in_large_page(page)
                free = ctx.page_table.invalid_mask(chunk.start, chunk.stop)
                for fault in faults[bisect_left(faults, chunk.start):
                                    bisect_left(faults, chunk.stop)]:
                    free[fault - chunk.start] = 0
                entry = free_by_chunk[page // pages_per_chunk] = \
                    (chunk, free)
            chunk, free = entry
            candidate = self._pick_candidate(chunk, free, ctx.rng)
            if candidate is not None:
                planned.add(candidate)
        groups = split_runs_at_faults(sorted(planned), fault_set)
        return MigrationPlan(groups=groups)

    @staticmethod
    def _pick_candidate(chunk: range, free: bytearray,
                        rng: Random) -> int | None:
        """A uniformly random page of ``chunk`` whose ``free`` byte is
        set, cleared before it is returned.

        ``rng.randrange(n)`` draws exactly as ``rng.choice`` over the
        list of the ``n`` free pages would: both take ``_randbelow(n)``.
        """
        n = free.count(1)
        if not n:
            return None
        index = next(islice(compress(range(len(free)), free),
                            rng.randrange(n), None))
        free[index] = 0
        return chunk.start + index
