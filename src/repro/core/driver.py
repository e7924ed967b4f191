"""The host-resident UVM driver.

Far-faults "are resolved by the software runtime resident to the host
processor" (Section 1).  This class models that runtime:

* faults are serviced in **batches** (the replayable-fault model of Zheng et
  al.): a batch pays the 45 us handling latency once, and faults arriving
  while a batch is being handled queue up for the next one — so total
  handling time still scales with the number of far-faults;
* the active **prefetcher** expands each batch into transfer groups; once
  device memory first fills, the prefetcher is disabled if the configuration
  says so (Section 4.2 behaviour — pre-eviction combos keep it on);
* frame shortage invokes the **eviction policy**; write-backs ride the PCI-e
  write channel and frames only free when they complete, so migrations that
  must wait for frames stall — the over-subscription penalty;
* an optional **free-page buffer** (Section 4.2) pre-evicts above an
  occupancy threshold and disables the prefetcher early, reproducing the
  paper's negative result for memory-threshold pre-eviction.

Resilience: with a fault-injection profile attached, migrations whose
transfer fails retry with capped exponential backoff in simulated time;
after ``degrade_after_failures`` consecutive failures the driver
*degrades* — it abandons the active prefetcher for on-demand paging (less
wire pressure, smallest possible re-sends) and records the event in
``SimStats``.  Lost far-fault notifications are redelivered after a
profile-defined delay.  All of this is dormant (``injector is None``)
unless the configuration carries a ``fault_profile``.
"""

from __future__ import annotations

from functools import partial

from ..errors import RetryExhaustedError, SimulationError
from ..interconnect.pcie import PcieLink
from ..memory.mshr import FarFaultMSHR
from ..memory.page import PageState
from ..obs.tracer import (
    CAT_INJECT,
    NULL_TRACER,
    PID_DRIVER,
    PID_GPU,
    PID_INJECT,
    TID_EVICTION,
    TID_INJECT,
    TID_SERVICE,
    TID_SM_BASE,
)
from .context import UvmContext
from .evict.base import EvictionPolicy
from .plans import MigrationPlan, TransferGroup
from .prefetch.base import Prefetcher
from .prefetch.none import OnDemandPrefetcher


class UvmDriver:
    """Fault servicing, migration, prefetch gating, and eviction."""

    def __init__(self, ctx: UvmContext, link: PcieLink, mshr: FarFaultMSHR,
                 prefetcher: Prefetcher, eviction: EvictionPolicy,
                 injector=None, tracer=NULL_TRACER) -> None:
        self.ctx = ctx
        self.link = link
        self.mshr = mshr
        self.prefetcher = prefetcher
        self.eviction = eviction
        self.injector = injector
        self.tracer = tracer
        #: Set by the engine right after construction.
        self.engine = None
        self._fallback = OnDemandPrefetcher()
        self._pending: list[int] = []
        self._busy = False
        self.prefetch_enabled = True
        # Registry instruments, resolved once: the per-batch path observes
        # them directly instead of re-looking names up every batch.
        metrics = ctx.stats.metrics
        self._latency_hist = \
            metrics.histogram("fault_batch.service_latency_ns")
        self._batch_size_hist = metrics.histogram("fault_batch.size_faults")
        self._migrated_hist = \
            metrics.histogram("fault_batch.migrated_pages")
        self._resident_gauge = metrics.gauge("memory.resident_pages")
        self._frames_gauge = metrics.gauge("memory.frames_used")
        #: Consecutive failed migration transfers (resets on any success);
        #: reaching the profile's threshold triggers degraded mode.
        self._consecutive_failures = 0
        #: True once the driver fell back to on-demand paging for good.
        self.degraded = False

    # ------------------------------------------------------------------ faults
    def on_new_fault(self, page: int, now_ns: float) -> None:
        """A new far-fault was registered in the MSHRs (Figure 1, step 3)."""
        self.ctx.stats.far_faults += 1
        self.ctx.allocation_stats_of_page(page).far_faults += 1
        self._pending.append(page)
        if not self._busy:
            self._busy = True
            delay = 0.0
            if self.injector is not None:
                delay = self.injector.service_delay_ns()
                if delay and self.tracer.enabled:
                    self.tracer.instant(
                        PID_INJECT, TID_INJECT, "injected:service_delay",
                        now_ns, args={"delay_ns": delay}, cat=CAT_INJECT,
                    )
            self.engine.schedule(now_ns + delay, self._service)

    def on_lost_fault(self, page: int, now_ns: float) -> None:
        """A far-fault fired but its host notification was injected away.

        The fault itself happened (it is counted) and the faulting warp is
        parked on the MSHR entry; the notification is redelivered after
        the profile's redelivery latency, mimicking a fault-buffer replay.
        """
        self.ctx.stats.far_faults += 1
        self.ctx.allocation_stats_of_page(page).far_faults += 1
        delay = self.injector.profile.fault_redelivery_ns
        if self.tracer.enabled:
            self.tracer.instant(
                PID_INJECT, TID_INJECT, "injected:lost_fault", now_ns,
                args={"page": page, "redelivery_ns": delay},
                cat=CAT_INJECT,
            )
        self.engine.schedule(now_ns + delay,
                             partial(self._redeliver_fault, page))

    def _redeliver_fault(self, page: int, now_ns: float) -> None:
        """Second delivery attempt for a lost far-fault notification."""
        if self.ctx.page_table.state_of(page) is not PageState.INVALID:
            # A prefetch or merged batch already covers the page.
            return
        self.ctx.stats.recovered_faults += 1
        if self.tracer.enabled:
            self.tracer.instant(PID_DRIVER, TID_SERVICE,
                                "fault_redelivered", now_ns,
                                args={"page": page})
        self._pending.append(page)
        if not self._busy:
            self._busy = True
            self.engine.schedule(now_ns, self._service)

    def _service(self, now_ns: float) -> None:
        """Drain the pending faults as one batch and handle it."""
        config = self.ctx.config
        stats = self.ctx.stats
        page_table = self.ctx.page_table
        limit = config.fault_batch_limit
        if limit and len(self._pending) > limit:
            # Finite fault buffer: drain at most `limit` faults; the rest
            # wait for the next service round.
            drained = self._pending[:limit]
            self._pending = self._pending[limit:]
        else:
            drained = self._pending
            self._pending = []
        # dict.fromkeys dedups while keeping arrival order: duplicate
        # deliveries (fault injection) must not migrate a page twice.
        batch = page_table.invalid_among(list(dict.fromkeys(drained)))
        if not batch:
            if self._pending:
                self._service(now_ns)
            else:
                self._busy = False
            return
        stats.fault_batches += 1
        if config.record_timeline:
            stats.timeline.append((now_ns, page_table.valid_count,
                                   self.ctx.frames.used,
                                   self.prefetch_enabled))
        if config.batch_fault_handling:
            handling_ns = config.fault_handling_latency_ns
        else:
            handling_ns = config.fault_handling_latency_ns * len(batch)
        stats.total_fault_handling_ns += handling_ns
        handled_at = now_ns + handling_ns
        # Batch-boundary instruments: per-batch service latency (what
        # total_fault_handling_ns cannot show) and residency samples.
        self._latency_hist.observe(handling_ns)
        self._batch_size_hist.observe(len(batch))
        self._resident_gauge.set(page_table.valid_count)
        self._frames_gauge.set(self.ctx.frames.used)

        # Observation hooks (no-ops for the built-ins): the frozen batch,
        # before planning, so learned policies train on what they will be
        # asked to plan.  Combined policies get the event exactly once.
        self.prefetcher.on_fault_batch(batch, self.ctx)
        if self.eviction is not self.prefetcher:
            self.eviction.on_fault_batch(batch, self.ctx)

        self._update_prefetch_gate(len(batch))
        active = self.prefetcher if self.prefetch_enabled else self._fallback
        plan = active.plan(batch, self.ctx)
        self._make_room_and_trim(plan, now_ns)
        self._migrated_hist.observe(plan.total_pages)
        tracer = self.tracer
        if tracer.enabled:
            # Batches are serialized by _handling_done, so these complete
            # spans tile the service track without overlapping.
            tracer.complete(
                PID_DRIVER, TID_SERVICE, "fault_batch", now_ns,
                handled_at,
                args={"batch": stats.fault_batches,
                      "faults": len(batch),
                      "migrated_pages": plan.total_pages,
                      "prefetch_enabled": self.prefetch_enabled},
            )
            tracer.counter(
                PID_DRIVER, TID_SERVICE, "residency", now_ns,
                {"resident_pages": page_table.valid_count,
                 "frames_used": self.ctx.frames.used},
            )
        self._execute_migration(plan, now_ns=now_ns,
                                batch_start_ns=now_ns,
                                batched_handling=config.batch_fault_handling)
        self.engine.schedule(handled_at, self._handling_done)

    def _handling_done(self, now_ns: float) -> None:
        """The batch's 45 us handling window closed; start the next batch."""
        self._maybe_threshold_preevict(now_ns)
        if self._pending:
            self._service(now_ns)
        else:
            self._busy = False

    # -------------------------------------------------------------- prefetch gate
    def _update_prefetch_gate(self, incoming_pages: int) -> None:
        """Disable the prefetcher per the over-subscription rules."""
        config = self.ctx.config
        frames = self.ctx.frames
        if not self.prefetch_enabled or frames.unbounded:
            return
        threshold = frames.capacity
        if config.free_page_buffer_fraction > 0.0:
            # Maintain the free-page buffer: the prefetcher is turned off
            # *before* reaching capacity (Section 4.2).
            threshold = int(
                frames.capacity * (1.0 - config.free_page_buffer_fraction)
            )
        elif not config.disable_prefetch_on_oversubscription:
            return
        if frames.used + incoming_pages >= threshold:
            self.prefetch_enabled = False

    # ------------------------------------------------------------------ migration
    def _make_room_and_trim(self, plan: MigrationPlan,
                            now_ns: float) -> None:
        """Evict to make room for the plan; drop what still cannot fit.

        The eviction policy is asked to free enough frames for the whole
        plan — "pre-evicting contiguous pages in bulk the way they were
        brought in by the prefetcher allows further prefetching under
        memory constraint" (Section 1).  If the policy cannot free enough
        (e.g. everything else is already in flight), prefetch-only groups
        are dropped; fault pages are always kept, and a configuration whose
        capacity cannot even hold one batch's faulted pages is rejected.
        """
        frames = self.ctx.frames
        if frames.unbounded:
            return
        demand = sum(len(g.pages) for g in plan.groups if g.has_fault)
        available = frames.free_now + frames.pending_release
        total = plan.total_pages
        if total > available:
            self._evict(total - available, now_ns)
            available = frames.free_now + frames.pending_release
        if demand > available:
            fault_pages = [p for g in plan.groups if g.has_fault
                           for p in g.pages]
            raise SimulationError(
                f"device memory cannot hold the {demand} faulted pages of "
                f"one batch (only {available} obtainable); batch pages "
                f"{sorted(fault_pages)[:8]}"
                f"{'...' if demand > 8 else ''}"
            )
        budget = available - demand
        kept: list[TransferGroup] = []
        for group in plan.ordered_groups():
            if group.has_fault:
                kept.append(group)
            elif len(group.pages) <= budget:
                kept.append(group)
                budget -= len(group.pages)
        plan.groups = kept

    def _execute_migration(self, plan: MigrationPlan, now_ns: float,
                           batch_start_ns: float, batched_handling: bool,
                           handling_latency_ns: float | None = None) -> None:
        """Mark pages in flight and schedule the transfers.

        Fault handling is pipelined with the transfers: with serialized
        handling (the default), the k-th faulted page's transfer may start
        only after k handling latencies have elapsed since the batch began;
        with batched handling every transfer waits for one latency.
        """
        ctx = self.ctx
        config = ctx.config
        page_size = config.page_size
        runs = [group.pages for group in plan.groups]
        ctx.page_table.begin_migration_runs(
            [(run.start, run.stop) for run in runs])
        # Faulted pages hold their entries already; the MSHR counts the
        # rest, in flight with no waiter.
        self.mshr.register_many(runs)
        ctx.drop_tree_views()  # the page table now holds the plan

        frames = ctx.frames
        latency = handling_latency_ns if handling_latency_ns is not None \
            else config.fault_handling_latency_ns
        faults_handled = 0
        tracing = self.tracer.enabled
        for group in plan.ordered_groups():
            if batched_handling or not group.has_fault:
                handled_at = batch_start_ns + latency
            else:
                faults_handled += len(group.pages)
                handled_at = batch_start_ns + latency * faults_handled
            frames_ready = frames.allocate(len(group.pages), now_ns)
            if frames_ready > handled_at:
                ctx.stats.eviction_stall_ns += frames_ready - handled_at
            start_floor = max(handled_at, frames_ready)
            note = None
            if tracing:
                note = {"pages": len(group.pages),
                        "prefetch": not group.has_fault}
                if frames_ready > handled_at:
                    note["eviction_stall_ns"] = frames_ready - handled_at
            transfer = self.link.migrate(
                len(group.pages) * page_size, start_floor, note
            )
            if transfer.failed:
                self._schedule_retry(group, transfer.end_ns, attempt=1)
            else:
                self.engine.schedule(
                    transfer.end_ns, partial(self._complete_group, group)
                )

    # ------------------------------------------------------------------ retries
    def _schedule_retry(self, group: TransferGroup, failed_at_ns: float,
                        attempt: int) -> None:
        """A group's transfer failed: back off, degrade, or give up.

        Pages stay MIGRATING and their frames stay claimed throughout —
        the retry re-sends the payload, not the bookkeeping — so the
        engine's invariants hold at every event boundary.
        """
        stats = self.ctx.stats
        profile = self.injector.profile
        self._note_migration_failure(failed_at_ns)
        if attempt > profile.max_retries:
            raise RetryExhaustedError(
                f"migration of {len(group.pages)} pages "
                f"{sorted(group.pages)[:8]}"
                f"{'...' if len(group.pages) > 8 else ''} still failing "
                f"after {profile.max_retries} retries at "
                f"t={failed_at_ns:.0f} ns"
            )
        backoff = profile.backoff_ns(attempt)
        stats.migration_retries += 1
        stats.retry_backoff_ns += backoff
        if self.tracer.enabled:
            self.tracer.instant(
                PID_DRIVER, TID_SERVICE, "retry_backoff", failed_at_ns,
                args={"attempt": attempt, "backoff_ns": backoff,
                      "pages": len(group.pages)},
            )
        self.engine.schedule(failed_at_ns + backoff,
                             partial(self._retry_group, group, attempt))

    def _retry_group(self, group: TransferGroup, attempt: int,
                     now_ns: float) -> None:
        """Re-send one group's payload after backoff."""
        note = {"pages": len(group.pages), "retry": attempt} \
            if self.tracer.enabled else None
        transfer = self.link.migrate(
            len(group.pages) * self.ctx.config.page_size, now_ns, note
        )
        if transfer.failed:
            self._schedule_retry(group, transfer.end_ns, attempt + 1)
        else:
            self.engine.schedule(
                transfer.end_ns, partial(self._complete_group, group)
            )

    def _note_migration_failure(self, now_ns: float) -> None:
        """Track consecutive failures; degrade to on-demand past K."""
        self._consecutive_failures += 1
        threshold = self.injector.profile.degrade_after_failures
        if threshold and self._consecutive_failures >= threshold \
                and self.prefetch_enabled:
            self.prefetch_enabled = False
            self.degraded = True
            stats = self.ctx.stats
            stats.degradation_events += 1
            stats.degradation_times_ns.append(now_ns)
            if self.tracer.enabled:
                self.tracer.instant(
                    PID_DRIVER, TID_SERVICE, "degraded_to_on_demand",
                    now_ns,
                    args={"consecutive_failures":
                          self._consecutive_failures},
                )

    def _complete_group(self, group: TransferGroup, now_ns: float) -> None:
        """A migration transfer arrived: validate pages and wake warps."""
        ctx = self.ctx
        stats = ctx.stats
        if self.injector is not None:
            self._consecutive_failures = 0
        pages = group.pages
        tracer = self.tracer
        if tracer.enabled:
            # Close the far-fault lifecycle span (fault raised → warp
            # wake) on the first faulting warp's SM track.  Emitted as an
            # async pair: one SM routinely has many faults in flight,
            # which complete events cannot nest.
            for page in pages:
                entry = self.mshr.entry(page)
                if entry is not None and entry.waiters:
                    sm = entry.waiters[0].sm
                    tracer.async_span(
                        PID_GPU, TID_SM_BASE + sm.sm_id, "far_fault",
                        tracer.new_id(), entry.first_fault_ns, now_ns,
                        args={"page": page,
                              "waiters": len(entry.waiters)},
                    )
        # A group is one run inside one allocation (see TransferGroup).
        thrashed = ctx.page_table.complete_migration_run(pages.start,
                                                         pages.stop)
        self.eviction.on_validated_many(pages, ctx)
        waiters = self.mshr.complete_many(pages)
        migrated = len(pages)
        prefetched = 0 if group.has_fault else migrated
        per = ctx.allocation_stats_of_page(pages.start)
        per.pages_migrated += migrated
        per.pages_thrashed += thrashed
        per.pages_prefetched += prefetched
        stats.pages_migrated += migrated
        stats.pages_thrashed += thrashed
        stats.pages_prefetched += prefetched
        if waiters:
            self.engine.wake_warps(waiters, now_ns)

    # ------------------------------------------------------------------ eviction
    def _evict(self, n_pages: int, now_ns: float) -> int:
        """Invoke the eviction policy and execute its plan.

        Returns the number of pages actually freed (pre-eviction policies
        routinely free more than asked).
        """
        ctx = self.ctx
        stats = ctx.stats
        page_size = ctx.config.page_size
        plan = self.eviction.plan_eviction(n_pages, ctx)
        if not plan.units:
            return 0
        stats.eviction_events += 1
        evicted_pages = plan.all_pages()
        # Nothing below reads a TLB, so one shootdown for the whole round
        # is exact.  Dirty flags reset on invalidation: read them first.
        self.engine.tlb_shootdown(evicted_pages)
        dirty = set(ctx.page_table.dirty_pages(evicted_pages))
        ctx.page_table.invalidate_pages(evicted_pages)
        tracing = self.tracer.enabled
        # A unit lies in one allocation (a block, a 2 MB chunk or one
        # page), whose record its migration created.
        alloc_stats = ctx.allocation_stats_of_page
        freed = 0
        written_back = 0
        dropped_clean = 0
        for unit in plan.units:
            alloc_stats(unit.pages[0]).pages_evicted += len(unit.pages)
            freed += len(unit.pages)
            if unit.unit_writeback:
                # SLe/TBNe/2MB: the whole unit goes back as one transfer,
                # clean or dirty (Section 5.1).
                note = {"pages": len(unit.pages), "eviction": True} \
                    if tracing else None
                transfer = self.link.write_back(
                    len(unit.pages) * page_size, now_ns, note
                )
                ctx.frames.release(len(unit.pages), transfer.end_ns)
                stats.pages_written_back += len(unit.pages)
                written_back += len(unit.pages)
            else:
                if len(unit.pages) == 1:  # a 4 KB policy's usual unit
                    unit_dirty = unit.pages if unit.pages[0] in dirty \
                        else ()
                else:
                    unit_dirty = sorted(dirty.intersection(unit.pages))
                dropped_clean += len(unit.pages) - len(unit_dirty)
                note = {"pages": 1, "eviction": True} if tracing else None
                for page in unit_dirty:
                    transfer = self.link.write_back(page_size, now_ns,
                                                    note)
                    ctx.frames.release(1, transfer.end_ns)
                stats.pages_written_back += len(unit_dirty)
                written_back += len(unit_dirty)
        if dropped_clean:
            # Clean 4 KB pages free at once: one release for the round.
            ctx.frames.release(dropped_clean, now_ns)
            stats.pages_dropped_clean += dropped_clean
        ctx.drop_tree_views()
        stats.pages_evicted += freed
        # Observation hooks (no-ops for the built-ins): the fully applied
        # plan, pages now invalid.  Combined policies get the event once.
        self.eviction.on_evicted(evicted_pages, ctx)
        if self.prefetcher is not self.eviction:
            self.prefetcher.on_evicted(evicted_pages, ctx)
        if tracing:
            # Victim selection is instantaneous in simulated time; the
            # write-back wire time shows on the D2H track, so the round
            # itself is an instant with the what/why attached.
            self.tracer.instant(
                PID_DRIVER, TID_EVICTION, "eviction", now_ns,
                args={"requested_pages": n_pages, "freed_pages": freed,
                      "written_back": written_back,
                      "dropped_clean": dropped_clean,
                      "units": len(plan.units)},
            )
        return freed

    def _maybe_threshold_preevict(self, now_ns: float) -> None:
        """Keep the configured free-page buffer stocked (Section 4.2)."""
        config = self.ctx.config
        frames = self.ctx.frames
        if config.free_page_buffer_fraction <= 0.0 or frames.unbounded:
            return
        target_free = int(frames.capacity * config.free_page_buffer_fraction)
        shortfall = target_free - (frames.free_now + frames.pending_release)
        if shortfall > 0:
            self._evict(shortfall, now_ns)

    # ------------------------------------------------------------ host accesses
    def host_access_range(self, pages: list[int], now_ns: float,
                          is_write: bool) -> None:
        """The CPU touched managed pages (UVM is bidirectional).

        Device-resident pages migrate back to the host: dirty data is
        written back over the PCI-e write channel (contiguous runs grouped
        into single transfers), the PTEs are invalidated, and the GPU's
        TLBs are shot down.  Pages with migrations in flight are left to
        complete first (the next host access would then migrate them; for
        the timing model it is enough to skip them here).

        Host writes additionally mean the next GPU access must re-migrate
        fresh data — which it does anyway via the far-fault path, so no
        extra state is needed beyond the invalidation.
        """
        from ..memory.addressing import contiguous_runs

        ctx = self.ctx
        page_size = ctx.config.page_size
        stats = ctx.stats
        resident = ctx.page_table.valid_among(pages)
        if not resident:
            return
        dirty = set(ctx.page_table.dirty_pages(resident))
        self.engine.tlb_shootdown(resident)
        ctx.page_table.invalidate_pages(resident)
        for page in resident:
            self.eviction.on_invalidated_externally(page, ctx)
        for name, count in ctx.allocation_page_counts(resident).items():
            stats.allocation(name).pages_evicted += count
        stats.pages_evicted += len(resident)
        # Dirty data rides the write channel in contiguous runs (frames
        # free when the transfer lands); clean pages drop immediately (the
        # host copy is current).
        tracing = self.tracer.enabled
        if tracing:
            self.tracer.instant(
                PID_DRIVER, TID_EVICTION, "host_access_invalidate",
                now_ns,
                args={"pages": len(resident), "dirty": len(dirty),
                      "is_write": is_write},
            )
        for start, count in contiguous_runs(sorted(dirty)):
            note = {"pages": count, "host_access": True} \
                if tracing else None
            transfer = self.link.write_back(count * page_size, now_ns,
                                            note)
            ctx.frames.release(count, transfer.end_ns)
            stats.pages_written_back += count
        clean = len(resident) - len(dirty)
        if clean:
            stats.pages_dropped_clean += clean
            ctx.frames.release(clean, now_ns)

    # -------------------------------------------------------------- user prefetch
    def prefetch_range(self, pages: list[int], now_ns: float) -> None:
        """``cudaMemPrefetchAsync``: migrate a user-specified range.

        Pages already valid or in flight are skipped; the rest move in
        large-page-sized contiguous transfers with no fault handling
        latency.  Under memory pressure the eviction policy makes room, as
        for any other migration; whatever still cannot fit is skipped.
        """
        from .plans import split_runs_at_faults

        todo = self.ctx.page_table.invalid_among(pages)
        if not todo:
            return
        groups: list[TransferGroup] = []
        pages_per_lp = self.ctx.space.pages_per_large_page
        for group in split_runs_at_faults(todo, set()):
            # Cap single transfers at one large page.
            run = group.pages
            for i in range(0, len(run), pages_per_lp):
                groups.append(TransferGroup(run[i:i + pages_per_lp]))
        plan = MigrationPlan(groups=groups)
        self._make_room_and_trim(plan, now_ns)
        self._execute_migration(plan, now_ns=now_ns, batch_start_ns=now_ns,
                                batched_handling=True,
                                handling_latency_ns=0.0)
