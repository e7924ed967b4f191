"""Random (Re) 4 KB eviction.

"Unlike LRU, Re chooses a random page irrespective of when it is last
accessed" (Section 4.2).  The paper finds that, contrary to the popular
belief, Re *beats* LRU 4KB for iterative workloads because a random pick
from the whole address space rarely lands on the page about to be reused.
"""

from __future__ import annotations

import random
from typing import Callable

from ...memory.lru import RandomMembership
from ..context import UvmContext
from ..plans import EvictionPlan, EvictionUnit
from .base import EvictionPolicy, register_eviction


@register_eviction
class RandomEviction(EvictionPolicy):
    """Uniformly random resident page, one at a time."""

    name = "random"

    def __init__(self) -> None:
        self._members: RandomMembership | None = None

    def reset(self) -> None:
        # Dropping the membership also drops the bound ctx.rng, so the
        # next run re-binds its own context's stream.
        self._members = None

    def _membership(self, ctx: UvmContext) -> RandomMembership:
        if self._members is None:
            self._members = RandomMembership(ctx.rng)
        return self._members

    def on_validated(self, page: int, ctx: UvmContext) -> None:
        self._membership(ctx).insert(page)

    def on_accessed(self, page: int, ctx: UvmContext) -> None:
        self._membership(ctx).insert(page)  # membership only; no recency

    def access_hook(self, ctx: UvmContext) -> Callable[[int], None]:
        if type(self).on_accessed is not RandomEviction.on_accessed:
            # A subclass extends the per-page hook: keep calling it.
            return super().access_hook(ctx)
        return self._membership(ctx).insert

    def on_invalidated_externally(self, page: int,
                                  ctx: UvmContext) -> None:
        members = self._membership(ctx)
        if page in members:
            members.remove(page)

    def evictable_pages(self) -> int:
        return len(self._members) if self._members is not None else 0

    def plan_eviction(self, n_pages: int, ctx: UvmContext) -> EvictionPlan:
        members = self._membership(ctx)
        units: list[EvictionUnit] = []
        for _ in range(min(n_pages, len(members))):
            page = members.sample()
            members.remove(page)
            units.append(EvictionUnit([page], unit_writeback=False))
        return EvictionPlan(units=units)
