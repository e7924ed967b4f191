"""GPU Memory Management Unit.

The GMMU sits behind the per-SM TLBs (Figure 1): a TLB miss is relayed here,
the page table is walked, and if the page has no valid PTE a far-fault is
registered in the MSHRs and forwarded to the host driver.  Concurrent faults
to the same page merge into its MSHR entry.  An access to a page whose
migration is already in flight (MIGRATING) is a merge too: the page table
is the in-flight record, and the warp joins the page's entry, which the
MSHR creates for the first warp to wait on a prefetched page.

The issue loop fills a TLB inline on a miss to a VALID page and calls
:meth:`Gmmu.handle_tlb_miss` only for the other pages; the method's own
VALID branch does the same fill for any other caller.
"""

from __future__ import annotations

from ..gpu.warp import Warp
from ..memory.mshr import FarFaultMSHR
from ..memory.page import PageState
from ..obs.tracer import CAT_INJECT, PID_INJECT, TID_INJECT
from .context import UvmContext


class Gmmu:
    """Translation and far-fault registration."""

    def __init__(self, ctx: UvmContext, mshr: FarFaultMSHR,
                 driver: "UvmDriver") -> None:
        self.ctx = ctx
        self.mshr = mshr
        self.driver = driver

    def handle_tlb_miss(self, sm, warp: Warp, page: int,
                        now_ns: float) -> bool:
        """Walk the page table for a missed translation.

        Returns True when the page is valid (the SM's TLB is filled and the
        access proceeds); False when a far-fault blocks the warp — the
        access will be replayed after the MSHR notification (Figure 1,
        step 6).
        """
        stats = self.ctx.stats
        stats.page_table_walks += 1
        state = self.ctx.page_table.state_of(page)
        if state is PageState.VALID:
            sm.tlb.insert(page)
            return True
        if state is PageState.MIGRATING:
            # The transfer is in flight: wait for it (no driver work).
            self.mshr.merge_in_flight(page, warp, now_ns)
            stats.mshr_merges += 1
            return False
        outcome = self.mshr.register_fault(page, warp, now_ns)
        if outcome == "new":
            # A genuine new far-fault: no valid PTE and no transfer in
            # flight for this page.
            self.driver.on_new_fault(page, now_ns)
            injector = self.mshr.injector
            if injector is not None and injector.duplicate_fault():
                # The fault packet was delivered twice; the driver's batch
                # dedup absorbs the repeat.
                tracer = self.driver.tracer
                if tracer.enabled:
                    tracer.instant(PID_INJECT, TID_INJECT,
                                   "injected:duplicate_fault", now_ns,
                                   args={"page": page}, cat=CAT_INJECT)
                self.driver.on_new_fault(page, now_ns)
        elif outcome == "merged":
            stats.mshr_merges += 1
        else:
            # Notification lost (dropped or fault-buffer overflow): the
            # warp stays parked on the MSHR entry until redelivery.
            self.driver.on_lost_fault(page, now_ns)
        return False
