"""The discrete-event UVM simulator.

:class:`Simulator` wires the GPU model (SMs, warps, TLBs), the GMMU, the
host driver, the PCI-e link, and the policies together, and exposes the
runtime-facing operations: ``malloc_managed``, ``prefetch_async``,
``launch_kernel``, ``synchronize``.

Execution model: each SM issues coalesced accesses from its READY warps
round-robin, one per ``cycles_per_access`` core cycles.  TLB hits cost one
lookup; misses add the 100-cycle page-table walk; far-faults block the warp
until the driver migrates the page, while sibling warps keep issuing (TLP
latency hiding).  Warps re-execute the faulted access on wake-up (the
replayable-fault model).
"""

from __future__ import annotations

from .. import config as config_mod
from .. import constants
from ..config import SimulatorConfig
from ..errors import PolicyError, SimulationError
from ..faultinject.injector import FaultInjector
from ..faultinject.watchdog import Watchdog
from ..gpu.kernel import KernelSpec
from ..gpu.sm import StreamingMultiprocessor
from ..gpu.tb_scheduler import ThreadBlockScheduler
from ..gpu.warp import WarpState
from ..interconnect.bandwidth import BandwidthModel
from ..interconnect.pcie import PcieLink
from ..memory.addressing import AddressSpace
from ..memory.allocation import ManagedAllocation
from ..memory.allocator import ManagedAllocator
from ..memory.frames import FramePool
from ..memory.mshr import FarFaultMSHR
from ..memory.page_table import GpuPageTable
from ..memory.radix_walker import make_walker
from ..obs.tracer import (
    NULL_TRACER,
    PID_GPU,
    TID_KERNELS,
    SpanTracer,
    standard_layout,
)
from ..stats import SimStats
from .context import UvmContext
from .driver import UvmDriver
from .events import EventQueue
from .evict.base import EvictionPolicy, make_eviction_policy
from .gmmu import Gmmu
from .prefetch.base import Prefetcher, make_prefetcher


class Simulator:
    """One simulated GPU + host runtime instance."""

    #: Accesses an SM may retire per step event (keeps the event heap small
    #: without reordering anything that matters: the window is tens of ns
    #: against 45 us fault latencies).
    SM_QUANTUM = 64

    def __init__(self, config: SimulatorConfig, *,
                 prefetcher: Prefetcher | None = None,
                 eviction: EvictionPolicy | None = None) -> None:
        self.config = config
        self.space = AddressSpace(config.page_size, config.basic_block_size,
                                  config.large_page_size)
        self.stats = SimStats()
        self.allocator = ManagedAllocator(self.space)
        self.page_table = GpuPageTable()
        self.frames = FramePool(config.device_memory_pages)
        self.ctx = UvmContext(config, self.space, self.allocator,
                              self.page_table, self.frames, self.stats)
        #: One injector shared by every hook point; None disables them all.
        self.injector = None
        if config.fault_profile is not None:
            self.injector = FaultInjector(config.fault_profile, self.stats)
        #: One span tracer shared by every component; the disabled path is
        #: the shared no-op singleton behind a single attribute check.
        self.tracer = SpanTracer(config.trace_max_events) if config.trace \
            else NULL_TRACER
        standard_layout(self.tracer, config.num_sms)
        self.link = PcieLink(BandwidthModel(),
                             self.stats.h2d, self.stats.d2h,
                             injector=self.injector, tracer=self.tracer)
        self.mshr = FarFaultMSHR(config.mshr_entries,
                                 injector=self.injector)
        # Policy adoption: injected instances (tests, subclassed knob
        # variants) or fresh ones from the registries.  A combined
        # name selecting one class for both roles shares a single
        # instance, so its hooks fire once per event.  reset() clears any
        # state a reused instance carried from a previous run.
        if prefetcher is None and eviction is None:
            from ..policy.registry import make_policy_pair
            prefetcher, eviction = make_policy_pair(config.prefetcher,
                                                    config.eviction)
        else:
            if prefetcher is None:
                prefetcher = make_prefetcher(config.prefetcher)
            if eviction is None:
                eviction = make_eviction_policy(config.eviction)
        prefetcher.reset()
        if eviction is not prefetcher:
            eviction.reset()
        self.driver = UvmDriver(self.ctx, self.link, self.mshr,
                                prefetcher, eviction,
                                injector=self.injector,
                                tracer=self.tracer)
        self.driver.engine = self
        self.gmmu = Gmmu(self.ctx, self.mshr, self.driver)
        self.walker = make_walker(config.page_walk_model,
                                  config.page_table_walk_cycles)
        self.sms = [StreamingMultiprocessor(i, config.tlb_entries)
                    for i in range(config.num_sms)]
        self.scheduler = ThreadBlockScheduler(
            self.sms, config.max_thread_blocks_per_sm
        )
        self.watchdog = Watchdog(
            config.watchdog_interval_events,
            config.watchdog_no_progress_ticks,
            config.watchdog_sim_time_budget_ns,
            config.invariant_check_ticks,
        ) if config.watchdog_enabled else None
        if config.check_invariants_on_completion is None:
            self._check_on_completion = config_mod.AUTO_CHECK_INVARIANTS
        else:
            self._check_on_completion = config.check_invariants_on_completion
        self.events = EventQueue()
        self.now = 0.0
        self.current_iteration = 0
        #: Accesses seen by the access-trace sampler (stride bookkeeping).
        self._access_seq = 0
        self._ns_per_cycle = constants.NS_PER_CYCLE
        self._kernel_done = True
        self._kernel_end = 0.0
        #: Each SM's step-event callback, built on its first schedule.
        self._sm_steps: dict = {}

    # ------------------------------------------------------------- runtime API
    def malloc_managed(self, name: str, size_bytes: int) -> ManagedAllocation:
        """``cudaMallocManaged``: reserve unified VA; no physical memory."""
        return self.allocator.malloc_managed(name, size_bytes)

    def _resolve_page_range(self, alloc: ManagedAllocation, first_page: int,
                            num_pages: int | None, op: str) -> list[int]:
        """Global page indices for ``[first_page, first_page+num_pages)``.

        Rejects ranges that fall outside the allocation: a negative
        ``first_page`` or an oversized ``num_pages`` would silently build
        global page indices belonging to a *different* allocation (or to
        unreserved VA) and corrupt its residency.
        """
        if num_pages is None:
            num_pages = alloc.num_pages - first_page
        if first_page < 0 or num_pages < 0 \
                or first_page + num_pages > alloc.num_pages:
            raise SimulationError(
                f"{op} range [first_page={first_page}, "
                f"num_pages={num_pages}] outside allocation "
                f"{alloc.name!r} with {alloc.num_pages} pages"
            )
        base = alloc.page_range[0] + first_page
        return list(range(base, base + num_pages))

    def prefetch_async(self, name: str, first_page: int = 0,
                       num_pages: int | None = None) -> None:
        """``cudaMemPrefetchAsync`` over a page range of an allocation."""
        alloc = self.allocator.get(name)
        pages = self._resolve_page_range(alloc, first_page, num_pages,
                                         "prefetch_async")
        self.driver.prefetch_range(pages, self.now)

    def cpu_access(self, name: str, first_page: int = 0,
                   num_pages: int | None = None,
                   is_write: bool = False) -> None:
        """A host-side access to a managed range (UVM is bidirectional).

        Device-resident pages of the range migrate back to the host —
        write-back + invalidation — so the next GPU touch far-faults
        again.  This is what happens when host code reads results between
        kernel launches through a managed pointer.
        """
        alloc = self.allocator.get(name)
        pages = self._resolve_page_range(alloc, first_page, num_pages,
                                         "cpu_access")
        self.driver.host_access_range(pages, self.now, is_write)

    def launch_kernel(self, kernel: KernelSpec) -> float:
        """Run one kernel to completion; returns its duration in ns."""
        if not self._kernel_done:
            raise SimulationError("previous kernel still in flight")
        self.current_iteration = kernel.iteration
        kernel_start = self.now
        for sm in self.sms:
            sm.time_ns = max(sm.time_ns, kernel_start)
        self._kernel_done = False
        self._kernel_end = kernel_start
        for sm in self.scheduler.launch(kernel):
            self._schedule_sm(sm, sm.time_ns)
        watchdog = self.watchdog
        if watchdog is not None:
            watchdog.start_kernel(kernel.name, kernel_start)
        tick_budget = interval = \
            watchdog.interval_events if watchdog is not None else 0
        while not self._kernel_done:
            if not self.events:
                raise SimulationError(
                    f"kernel {kernel.name!r} deadlocked: no events pending "
                    f"but thread blocks remain (blocked pages: "
                    f"{sorted(self.mshr.pages())[:8]})"
                )
            self.now, callback = self.events.pop()
            callback(self.now)
            if watchdog is not None:
                tick_budget -= 1
                if tick_budget <= 0:
                    tick_budget = interval
                    watchdog.note_events(interval)
                    watchdog.tick(self)
        self.now = max(self.now, self._kernel_end)
        duration = self._kernel_end - kernel_start
        self.stats.kernel_times_ns.append(duration)
        if self.tracer.enabled:
            self.tracer.complete(
                PID_GPU, TID_KERNELS, f"kernel:{kernel.name}",
                kernel_start, self._kernel_end,
                args={"iteration": kernel.iteration,
                      "launch": len(self.stats.kernel_times_ns)},
            )
        if self._check_on_completion:
            self.check_invariants()
        return duration

    def synchronize(self) -> None:
        """``cudaDeviceSynchronize``: drain every in-flight event."""
        while self.events:
            self.now, callback = self.events.pop()
            callback(self.now)
        self.frames.settle(self.now)

    # ------------------------------------------------------------ driver hooks
    def schedule(self, time_ns: float, callback) -> None:
        """Queue a driver event."""
        self.events.push(time_ns, callback)

    def wake_warps(self, waiters: list, now_ns: float) -> None:
        """Unblock warps whose page arrived and kick their SMs.

        The dedup must preserve waiter order: a set of SM objects iterates
        in id()-hash order, which varies across processes and made
        same-timestamp wakeups (and thus whole runs) nondeterministic.
        """
        kicked: dict[StreamingMultiprocessor, None] = {}
        for warp in waiters:
            warp.wake()
            kicked[warp.sm] = None
        for sm in kicked:
            sm.time_ns = max(sm.time_ns, now_ns)
            self._schedule_sm(sm, sm.time_ns)

    def tlb_shootdown(self, pages: list[int]) -> None:
        """Invalidate the pages' translations on all SMs.

        The driver calls this once per eviction round with the round's
        whole page list, so each SM intersects its entries with the set
        once instead of taking one call per page.
        """
        page_set = set(pages)
        for sm in self.sms:
            sm.tlb.invalidate_many(page_set)

    # ---------------------------------------------------------------- SM engine
    def _schedule_sm(self, sm: StreamingMultiprocessor,
                     time_ns: float) -> None:
        if sm.scheduled:
            return
        sm.scheduled = True
        callback = self._sm_steps.get(sm)
        if callback is None:
            callback = lambda now, sm=sm: self._sm_step(sm, now)  # noqa: E731
            self._sm_steps[sm] = callback
        self.events.push(time_ns, callback)

    def _sm_step(self, sm: StreamingMultiprocessor, now_ns: float) -> None:
        """Issue up to SM_QUANTUM accesses from this SM's ready warps."""
        sm.scheduled = False
        sm.time_ns = max(sm.time_ns, now_ns)
        self._issue_quantum(sm, self.SM_QUANTUM)
        # A block can only have finished if a warp retired (or a block
        # was placed already done) since the last reap.
        finished = sm.reap_finished_blocks() if sm.reap_pending else None
        if finished:
            self._kernel_end = max(self._kernel_end, sm.time_ns)
            self.scheduler.on_blocks_finished(sm, finished)
            if self.scheduler.kernel_done:
                self._kernel_done = True
        # next_ready_warp() runs first, always: its rotation advance is
        # part of the schedule every digest records.  A refill that placed
        # only finished blocks leaves no ready warp but must be reaped.
        if sm.next_ready_warp() is not None or sm.reap_pending:
            self._schedule_sm(sm, sm.time_ns)

    def _issue_quantum(self, sm: StreamingMultiprocessor,
                       budget: int) -> None:
        """The per-access issue loop of one SM step event.

        Retires up to ``budget`` accesses from the SM's READY warps in
        round-robin order.  Each retired access sets the page's dirty bit
        through the page table's
        :meth:`~repro.memory.page_table.GpuPageTable.access_view` (a page
        outside it or not VALID goes through ``mark_access``, which
        raises) and hands the page to the one-argument
        :meth:`~repro.policy.base.Policy.access_hook` the eviction policy
        bound for this quantum (LRU 4 KB's hook appends it to the
        policy's access log).  A hook of None means the policy's recency is the page
        table's stamps: the access then stamps the page, its block and
        its chunk from a local copy of the stamps' clock (one index
        serves the dirty bit and the stamps), raising ``PolicyError``
        for a page the LRU does not hold, and the clock is written back
        once per quantum.

        The loop runs on locals: it inlines the round-robin scan of
        :meth:`StreamingMultiprocessor.next_ready_warp`, the hit path of
        :meth:`Tlb.lookup`, the cursor bump of :meth:`Warp.advance`, and
        the VALID branch of :meth:`Gmmu.handle_tlb_miss`: a miss whose
        page the view shows VALID counts a walk and fills the TLB as
        :meth:`Tlb.insert` does (the LRU entry goes at capacity), and only
        a page that is not VALID calls the GMMU.  It writes the SM clock,
        the rotation index and the hit, miss and walk counters back once
        per quantum; a warp that retires its last access sets the SM's
        ``reap_pending`` as :meth:`Warp.advance` does.  Nothing it calls
        reads them: the GMMU gets the clock as an argument, the driver
        only schedules events, and the watchdog and tracer read stats
        between events.  Every call that carries semantics (page walk,
        GMMU miss handling, warp blocking, dirty marks, the eviction
        hook or stamps, the access-trace sampler) keeps its order.
        """
        warps = sm.all_warps()
        n = len(warps)
        if not n:
            return
        config = self.config
        stats = self.stats
        trace = config.record_access_trace
        trace_stride = config.access_trace_stride
        trace_cap = config.access_trace_cap
        ns_per_cycle = self._ns_per_cycle
        access_ns = config.cycles_per_access * ns_per_cycle
        walker = self.walker
        gmmu = self.gmmu
        # Both hold for this quantum only: the page table replaces its
        # arrays when a driver event grows it, and a policy replaces the
        # structures its hook binds on reset().
        page_table = self.page_table
        pt_base, pt_state, pt_dirty, pt_valid = page_table.access_view()
        pt_size = len(pt_state)
        mark_access = page_table.mark_access
        touch = self.driver.eviction.access_hook(self.ctx)
        if touch is None:
            # The policy's recency is the page table's stamps: an access
            # stamps page, block and chunk from one clock.
            stamps = page_table.stamps
            stamp = stamps.page
            block_stamp = stamps.block
            chunk_stamp = stamps.chunk
            block_shift = stamps.block_shift
            chunk_shift = stamps.chunk_shift
            seq = stamps.clock
        tlb = sm.tlb
        entries = tlb._entries
        refresh = entries.move_to_end
        tlb_capacity = tlb.capacity
        evict_lru = entries.popitem
        ready = WarpState.READY
        done = WarpState.DONE
        time = sm.time_ns
        rr = sm._rr_index
        hits = misses = fills = 0

        for _ in range(budget):
            # Round-robin from the rotation index, wrapping once.
            index = rr
            warp = warps[index]
            if warp.state is not ready:
                while True:
                    index += 1
                    if index == n:
                        index = 0
                    if index == rr:
                        warp = None
                        break
                    warp = warps[index]
                    if warp.state is ready:
                        break
                if warp is None:
                    break
            rr = index + 1
            if rr == n:
                rr = 0
            cursor = warp.cursor
            page, is_write = warp.accesses[cursor]
            if page in entries:
                refresh(page)
                hits += 1
                time += access_ns
            else:
                misses += 1
                walk_ns = walker.walk_cycles(page) * ns_per_cycle
                time += access_ns + walk_ns
                index = page - pt_base
                if 0 <= index < pt_size and pt_state[index] == pt_valid:
                    # The walk finds a valid PTE: fill the TLB (LRU).
                    fills += 1
                    if len(entries) >= tlb_capacity:
                        evict_lru(last=False)
                    entries[page] = None
                elif not gmmu.handle_tlb_miss(sm, warp, page, time):
                    warp.block_on(page)
                    continue
            index = page - pt_base
            if 0 <= index < pt_size and pt_state[index] == pt_valid:
                if is_write:
                    pt_dirty[index] = 1
            else:
                mark_access(page, is_write)
            if touch is None:
                if not stamp[index]:
                    raise PolicyError(
                        f"page {page} not in hierarchical LRU")
                seq += 1
                stamp[index] = block_stamp[index >> block_shift] = \
                    chunk_stamp[index >> chunk_shift] = seq
            else:
                touch(page)
            if trace:
                self._access_seq += 1
                if (self._access_seq - 1) % trace_stride == 0:
                    if trace_cap \
                            and len(stats.access_trace) >= trace_cap:
                        stats.access_trace_dropped += 1
                    else:
                        stats.access_trace.append(
                            (time, page, self.current_iteration)
                        )
            if warp.state is not ready:
                raise SimulationError(
                    f"warp {warp.warp_id} cannot advance while "
                    f"{warp.state}"
                )
            cursor += 1
            warp.cursor = cursor
            if cursor >= warp.num_accesses:
                warp.state = done
                sm.reap_pending = True

        sm.time_ns = time
        sm._rr_index = rr
        tlb.hits += hits
        stats.tlb_hits += hits
        tlb.misses += misses
        stats.tlb_misses += misses
        stats.page_table_walks += fills
        if touch is None:
            stamps.clock = seq

    # ---------------------------------------------------------------- inspection
    def residency_map(self, allocation_name: str) -> list:
        """Per-page :class:`~repro.memory.page.PageState` of an allocation.

        Ordered by page offset; useful to visualize what the prefetcher
        pulled in and what eviction removed (see
        ``repro.analysis.residency``).
        """
        alloc = self.allocator.get(allocation_name)
        return [self.page_table.state_of(page)
                for page in alloc.page_range]

    # ---------------------------------------------------------------- invariants
    def check_invariants(self) -> None:
        """Cross-component consistency (used by tests after runs)."""
        from ..memory.page import PageState

        valid = self.page_table.valid_count
        if not self.frames.unbounded:
            self.frames.check_conservation()
        # The page table is the in-flight record: a MIGRATING page holds
        # a frame, and the MSHR holds an entry for it if a warp waits on
        # it and counts it otherwise.
        in_flight = self.page_table.migrating_count()
        if self.frames.used != valid + in_flight:
            raise SimulationError(
                f"frames.used={self.frames.used} != valid pages {valid} + "
                f"in-flight {in_flight}"
            )
        waited = 0
        for page in self.mshr.pages():
            state = self.page_table.state_of(page)
            if state is PageState.MIGRATING:
                waited += 1
            elif state is not PageState.INVALID:
                # INVALID: a fault the driver has yet to service.
                raise SimulationError(
                    f"MSHR entry for page {page} in state {state}")
        if waited + self.mshr.unwaited != in_flight:
            raise SimulationError(
                f"MSHR tracks {waited} waited-on + {self.mshr.unwaited} "
                f"prefetched in-flight pages, but {in_flight} pages are "
                f"MIGRATING"
            )
        self.page_table.check_valid_count()
        for sm in self.sms:
            for page in sm.tlb._entries:
                state = self.page_table.state_of(page)
                if state is not PageState.VALID:
                    raise SimulationError(
                        f"SM {sm.sm_id} TLB maps page {page} in state "
                        f"{state}"
                    )
        # Buddy trees are views of the page table that last for one driver
        # step; one still alive between events would plan from stale state.
        leaked = self.ctx.all_trees()
        if leaked:
            raise SimulationError(
                f"{len(leaked)} buddy-tree view(s) outlived their driver "
                f"step (first at block {leaked[0].first_block})"
            )


def make_simulator(config: SimulatorConfig, *,
                   prefetcher: Prefetcher | None = None,
                   eviction: EvictionPolicy | None = None) -> Simulator:
    """Build the simulator of ``config``.

    There is one engine: every ``config.engine`` label builds the
    :class:`Simulator` above.  Explicit ``prefetcher`` / ``eviction``
    instances bypass the registries (tests, subclassed knob variants);
    they are reset() before adoption, so a reused instance behaves like
    a fresh one.
    """
    return Simulator(config, prefetcher=prefetcher, eviction=eviction)
