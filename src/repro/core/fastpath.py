"""Deferred-recency fast engine.

:class:`FastSimulator` is a drop-in replacement for
:class:`~repro.core.engine.Simulator` selected with
``SimulatorConfig(engine="fast")``.  It keeps every component of the
reference engine and runs the same per-access issue loop
(:meth:`~repro.core.engine.Simulator._issue_quantum`).  The one
difference is the loop's tail: instead of marking the page table and
touching the eviction policy once per access, it appends the warp's own
``(page, is_write)`` access tuple to the engine's access log.  Repeated
touches of a page between two observation points then cost one list
append each, and the page table and policy see each page once.

Since the block evictors keep recency as last-access stamps, the
reference engine's tail for them is three inline list stores (see
:meth:`~repro.policy.base.Policy.access_hook`), so the log pays only
where a page is touched many times between flushes.  The fast engine
never stamps inline: its flush hands the compressed order to
``on_accessed_many``, which for the block evictors is
:meth:`~repro.memory.lru.HierarchicalLRU.touch_many`, one stamp per
distinct page in last-access order.

Flush
=====

:meth:`FastSimulator._flush_pending` compresses the log to one entry per
distinct page in last-access order, checks each page is VALID and sets
the dirty bit of every page the log wrote
(:meth:`~repro.memory.page_table.GpuPageTable.mark_access`), then hands
the compressed order to the eviction policy's ``on_accessed_many``.  For
pure recency bookkeeping — every built-in eviction policy and the page
table's dirty bits — this is equivalent to replaying every access:
only each page's final state is observable, and it depends only on the
page's last touch (dirty bits OR across the log).  Policies whose hooks
are not pure recency declare ``supports_fastpath = False`` and are
rejected here.

Deferral is sound because the log is invisible until *observed*, and
every observation point flushes first:
:meth:`~repro.core.engine.Simulator._flush_pending` runs before any
non-SM-step event callback (all driver/link/migration events), on
``synchronize``, before ``prefetch_async`` / ``cpu_access`` driver
entries, before watchdog ticks and before invariant checks.  Nothing the
issue loop does in between reads what the log holds: the GMMU reads
only page validity, which no access changes, and a new far fault only
queues a driver event.  The log deliberately survives kernel-launch
boundaries — iterative workloads re-touch the same pages every kernel,
and the cross-kernel span is where last-touch compression pays.

Everything else stays eager, in the shared loop: TLB hit refreshes,
misses, page walks, fault registration, TLB fills, L2 accesses and
access-trace samples run the same code in both engines, so the fast
engine has no mode it declines.  ``FastSimulator.deferral_counts``
reports how much the log compressed.

Equivalence is enforced, not assumed: the ``fastpath-equiv`` validation
claim and ``repro bench`` assert byte-identical
``SimStats.to_json()`` between both engines across a seed × workload ×
pairing × oversubscription matrix (see :mod:`repro.bench`).
"""

from __future__ import annotations

from operator import itemgetter

from ..config import SimulatorConfig
from ..errors import SimulationError
from .engine import Simulator
from .evict.base import EvictionPolicy
from .prefetch.base import Prefetcher

#: Counters of :attr:`FastSimulator.deferral_counts`: accesses appended
#: to the log, flushes that applied a non-empty log, and distinct pages
#: those flushes replayed.  Accesses over pages is the compression.
DEFERRAL_COUNTERS = ("accesses_deferred", "flushes", "pages_replayed")

#: Field getters of a logged ``(page, is_write)`` access, built once: a
#: flush on a fault-bound run often holds only a few accesses.
_page = itemgetter(0)
_is_write = itemgetter(1)


class FastSimulator(Simulator):
    """Deferred-recency engine; results byte-identical to
    :class:`Simulator`."""

    def __init__(self, config: SimulatorConfig, *,
                 prefetcher: Prefetcher | None = None,
                 eviction: EvictionPolicy | None = None) -> None:
        super().__init__(config, prefetcher=prefetcher, eviction=eviction)
        # Defense in depth behind config.validate(): last-touch
        # compression only preserves byte-identity for policies that
        # declared it, so an unsupported policy must never reach this
        # engine (an injected instance bypasses the config-time check).
        for policy in (self.driver.prefetcher, self.driver.eviction):
            if not policy.supports_fastpath:
                raise SimulationError(
                    f"policy {policy.name!r} does not support the fast "
                    f"engine (supports_fastpath=False); use "
                    f"engine='reference'"
                )
        self._access_log = []
        #: Counter -> total (see ``DEFERRAL_COUNTERS``).  Kept out of
        #: ``SimStats`` so no digest sees them.
        self.deferral_counts = dict.fromkeys(DEFERRAL_COUNTERS, 0)

    def _flush_pending(self) -> None:
        """Apply the access log (see the module docstring).

        Compresses the log to one touch per distinct page in last-access
        order before walking the python structures, so a long span costs
        O(accesses) C-level work plus O(working set) python calls.
        """
        log = self._access_log
        if not log:
            return
        touched = list(dict.fromkeys(map(_page, reversed(log))))
        touched.reverse()
        written = set(map(_page, filter(_is_write, log)))
        accesses = len(log)
        # Cleared in place: each quantum's issue loop binds ``append``.
        log.clear()
        mark_access = self.page_table.mark_access
        for page in touched:
            mark_access(page, page in written)
        self.driver.eviction.on_accessed_many(touched, self.ctx)
        counts = self.deferral_counts
        counts["accesses_deferred"] += accesses
        counts["flushes"] += 1
        counts["pages_replayed"] += len(touched)
