"""Eviction-policy interface and registry.

An eviction policy keeps its own recency bookkeeping, fed by the driver
through ``on_validated`` / ``on_accessed``, and turns a frame shortage into
an :class:`~repro.core.plans.EvictionPlan`.  The block-granular policies
(SLe, TBNe, 2 MB LRU and the ones built on them) share
:class:`BlockLruEviction`, which owns the hierarchical LRU and leaves
them only the choice of victims.

Contract:

* every planned page is VALID at planning time and appears exactly once;
* each unit's pages lie in one allocation;
* planned pages are removed from the policy's own bookkeeping before the
  plan is returned;
* pre-eviction policies may plan *more* pages than requested (that is the
  point: freeing locality-sized chunks ahead of demand).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

from ...errors import PolicyError
from ...memory.lru import HierarchicalLRU
from ...policy.base import Policy
from ...policy.registry import policy_class
from ..context import UvmContext
from ..plans import EvictionPlan, EvictionUnit


class EvictionPolicy(Policy, ABC):
    """Base class of all eviction policies.

    An eviction policy is a :class:`~repro.policy.base.Policy` whose
    recency-bookkeeping hooks are *mandatory* (abstract here) because
    the plans it emits depend on them; the remaining hooks
    (``on_fault_batch``, ``on_evicted``, ``reset``) stay optional
    no-ops from the shared base.
    """

    @abstractmethod
    def on_validated(self, page: int, ctx: UvmContext) -> None:
        """A page's valid flag was just set (migration completed)."""

    @abstractmethod
    def on_accessed(self, page: int, ctx: UvmContext) -> None:
        """A valid page was read or written."""

    def on_accessed_many(self, pages, ctx: UvmContext) -> None:
        """Batch form of :meth:`on_accessed` for the fast engine.

        ``pages`` is an access window compressed to one entry per
        distinct page, ordered by each page's *last* access.  For pure
        recency bookkeeping (every built-in policy) this is equivalent to
        replaying the full access sequence; a policy that counts repeated
        accesses would need to override this with its own expansion.  The
        ``fastpath-equiv`` differential harness gates that equivalence.
        """
        for page in pages:
            self.on_accessed(page, ctx)

    @abstractmethod
    def on_invalidated_externally(self, page: int,
                                  ctx: UvmContext) -> None:
        """A valid page was invalidated outside this policy's own plans
        (e.g. a host-side access migrated it back): drop any bookkeeping.

        Must be a no-op for pages the policy does not track.
        """

    @abstractmethod
    def plan_eviction(self, n_pages: int, ctx: UvmContext) -> EvictionPlan:
        """Free at least ``n_pages`` pages (best effort; may exceed)."""

    @abstractmethod
    def evictable_pages(self) -> int:
        """How many pages this policy could evict right now."""


class BlockLruEviction(EvictionPolicy):
    """Block-granular eviction on the hierarchical LRU (Section 5.3).

    The base owns LRU membership and recency: a page joins the list when
    its valid flag is set (prefetched-but-unaccessed pages included),
    every access stamps it, and an external invalidation drops it.
    ``plan_eviction`` removes victims until the shortage is covered;
    each subclass only says, in :meth:`_evict_next`, which pages the
    next victim takes with it and how they group into write-back units.

    The LRU keeps its recency in the page table's stamps when it is the
    first to claim them (:meth:`GpuPageTable.claim_stamps`).  Then
    :meth:`access_hook` returns None and the reference issue loop stamps
    each access inline; a subclass that overrides ``on_accessed`` keeps
    its hook, and so never mixes the two paths.

    ``reset`` runs from ``__init__``, so a subclass with state of its own
    extends ``reset`` (calling ``super().reset()``) and needs no
    ``__init__``.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        # The LRU binds a run's AddressSpace; drop it so the next run
        # rebuilds against its own context.
        self._lru: HierarchicalLRU | None = None

    def _structure(self, ctx: UvmContext) -> HierarchicalLRU:
        if self._lru is None:
            self._lru = HierarchicalLRU(
                ctx.space, ctx.page_table.claim_stamps(ctx.space))
        return self._lru

    def on_validated(self, page: int, ctx: UvmContext) -> None:
        # Section 5.3 design choice: LRU membership starts at validation.
        self._structure(ctx).insert(page)

    def on_validated_many(self, pages, ctx: UvmContext) -> None:
        if type(self).on_validated is not BlockLruEviction.on_validated:
            # A subclass extends the per-page hook: keep calling it.
            super().on_validated_many(pages, ctx)
            return
        self._structure(ctx).insert_run(pages[0], pages[0] + len(pages))

    def on_accessed(self, page: int, ctx: UvmContext) -> None:
        self._structure(ctx).touch(page)

    def access_hook(self, ctx: UvmContext) -> Callable[[int], None] | None:
        if type(self).on_accessed is not BlockLruEviction.on_accessed:
            # A subclass extends the per-page hook: keep calling it.
            return super().access_hook(ctx)
        lru = self._structure(ctx)
        stamps = lru.stamps
        if stamps is ctx.page_table.stamps and stamps.block_shift is not None:
            return None  # the issue loop stamps the page table inline
        return lru.touch

    def on_accessed_many(self, pages, ctx: UvmContext) -> None:
        self._structure(ctx).touch_many(pages)

    def on_invalidated_externally(self, page: int,
                                  ctx: UvmContext) -> None:
        lru = self._structure(ctx)
        if page in lru:
            lru.remove(page)

    def evictable_pages(self) -> int:
        return len(self._lru) if self._lru is not None else 0

    def plan_eviction(self, n_pages: int, ctx: UvmContext) -> EvictionPlan:
        lru = self._structure(ctx)
        units: list[EvictionUnit] = []
        freed = 0
        while freed < n_pages and len(lru):
            for pages in self._evict_next(lru, ctx):
                units.append(EvictionUnit(pages, unit_writeback=True))
                freed += len(pages)
        return EvictionPlan(units=units)

    @abstractmethod
    def _evict_next(self, lru: HierarchicalLRU,
                    ctx: UvmContext) -> list[list[int]]:
        """Remove the next victim's pages from ``lru`` and return them
        as sorted write-back units (each written back as one transfer)."""

    @staticmethod
    def _lru_victim_block(lru: HierarchicalLRU, ctx: UvmContext) -> int:
        """The LRU's oldest block past the reserved head."""
        return lru.victim_block(
            clamped_skip(ctx.reservation_skip, len(lru), 1)
        )


EVICTION_REGISTRY: dict[str, Callable[[], EvictionPolicy]] = {}


def register_eviction(cls: type[EvictionPolicy]) -> type[EvictionPolicy]:
    """Class decorator adding an eviction policy to the registry."""
    EVICTION_REGISTRY[cls.name] = cls
    return cls


def make_eviction_policy(name: str) -> EvictionPolicy:
    """Instantiate an eviction policy by registry name."""
    return policy_class(name, "evict")()


def clamped_skip(requested_skip: int, population: int, needed: int) -> int:
    """Reservation skip that still leaves room to make progress.

    Protecting the LRU head must never deadlock an eviction: if the
    protected fraction would leave fewer than ``needed`` candidates, the
    protection shrinks accordingly.
    """
    if population <= 0:
        raise PolicyError("cannot evict from an empty population")
    return max(0, min(requested_skip, population - max(needed, 1)))
