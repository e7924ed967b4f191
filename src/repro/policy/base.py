"""The unified policy protocol.

Every prefetcher and eviction policy — hand-built or learned — is a
:class:`Policy`: an object that *observes* the fault/access/eviction
event stream through a fixed set of hooks and *emits* decisions through
its role-specific planning method (``plan`` for prefetchers,
``plan_eviction`` for eviction policies).  The driver and engine call
the hooks at well-defined points:

``on_fault_batch(pages, ctx)``
    One deduplicated far-fault batch is about to be planned.  Called on
    the configured prefetcher *and* eviction policy (once, if they are
    the same object) for every batch — including batches the prefetch
    gate routes to the on-demand fallback, so learned policies keep
    observing the fault stream while disabled.

``on_validated(page, ctx)`` / ``on_validated_many(pages, ctx)``
    A page's valid flag was just set (its migration completed); the
    batch form receives one transfer group's pages: a contiguous,
    ascending run.

``on_accessed(page, ctx)`` / ``on_accessed_many(pages, ctx)``
    A valid page was read or written; the batch form receives an access
    window compressed to one entry per distinct page in last-access
    order (the fast engine's deferred flush).

``access_hook(ctx)``
    Not an event: the reference engine asks for it once per SM step and
    calls the returned one-argument callable with each page the step
    retires, in place of ``on_accessed(page, ctx)``.  The default wraps
    ``on_accessed``, so overriding ``on_accessed`` is enough; LRU4K and
    Re return their structure's own method or a closure, so an access
    costs one call.  A hook must not outlive the step it was made for.

    A policy may instead return None: its recency *is* the page table's
    stamps (:meth:`~repro.memory.page_table.GpuPageTable.claim_stamps`),
    and the step stamps each retired page, its 64 KB block and its 2 MB
    chunk inline from the stamps' clock, then writes the clock back once
    per step.  The block evictors (``BlockLruEviction``) do so when
    their LRU owns the table's stamps; a subclass that overrides ``on_accessed`` keeps a callable hook and is
    never stamped inline, so the two paths never share a step.

``on_invalidated_externally(page, ctx)``
    A valid page was invalidated outside the policy's own plans (e.g. a
    host access migrated it back).  Must be a no-op for untracked pages.

``on_evicted(pages, ctx)``
    An eviction plan was just executed; ``pages`` is everything it
    invalidated.  Called on both configured policies.

``reset()``
    Drop all cross-run state.  The engine resets both policies when it
    adopts them, so an instance reused across back-to-back runs behaves
    exactly like a fresh one.

Every hook has a no-op default: hand-built policies override only what
they need, and the driver may call any hook on any policy without
caring about its role.  Class attributes declare capabilities:

``supports_fastpath``
    ``False`` opts the policy out of the batched engine
    (``SimulatorConfig(engine="fast")``); the combination is rejected at
    config-validation time so learned policies run on the reference
    engine explicitly instead of corrupting deferred-flush state.

``learned``
    Marks online-trained policies; used by ``repro list``, the tuner's
    ``--include-learned`` axis, and the documentation.
"""

from __future__ import annotations

from functools import partial
from typing import Callable


class Policy:
    """Base class of every prefetch/eviction policy (see module docs)."""

    #: Registry key and display name.
    name: str = "abstract"
    #: Whether the batched fast engine may run this policy.
    supports_fastpath: bool = True
    #: Whether the policy trains online from the event stream.
    learned: bool = False

    # --- observation hooks (all optional) ---------------------------------
    def on_fault_batch(self, pages, ctx) -> None:
        """A deduplicated far-fault batch is about to be planned."""

    def on_validated(self, page: int, ctx) -> None:
        """A page's valid flag was just set (migration completed)."""

    def on_validated_many(self, pages, ctx) -> None:
        """Batch form of :meth:`on_validated`: one transfer group's pages,
        a contiguous ascending run."""
        for page in pages:
            self.on_validated(page, ctx)

    def on_accessed(self, page: int, ctx) -> None:
        """A valid page was read or written."""

    def access_hook(self, ctx) -> Callable[[int], None] | None:
        """A one-argument callable equivalent to ``on_accessed(page, ctx)``
        for the accesses of one SM step, or None when the step is to stamp
        the page table's recency stamps inline (see the module docs)."""
        return partial(self.on_accessed, ctx=ctx)

    def on_accessed_many(self, pages, ctx) -> None:
        """Batch form of :meth:`on_accessed` (fast-engine flush).

        ``pages`` is an access window compressed to one entry per
        distinct page, ordered by each page's *last* access.  For pure
        recency bookkeeping this is equivalent to replaying the full
        sequence; a policy that counts repeated accesses must override
        this with its own expansion (or declare
        ``supports_fastpath = False``).
        """
        for page in pages:
            self.on_accessed(page, ctx)

    def on_invalidated_externally(self, page: int, ctx) -> None:
        """A valid page was invalidated outside this policy's own plans.

        Must be a no-op for pages the policy does not track.
        """

    def on_evicted(self, pages, ctx) -> None:
        """An eviction plan was executed; ``pages`` were invalidated."""

    # --- lifecycle --------------------------------------------------------
    def reset(self) -> None:
        """Drop all cross-run state (bookkeeping, learned weights, RNG).

        The engine resets adopted policies at construction, making
        instance reuse across runs equivalent to fresh instances.
        """

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
