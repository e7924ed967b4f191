"""Streaming multiprocessor state.

Each SM holds the warps of its resident thread blocks, a private TLB
(Figure 1: "Every load/store unit has its own TLB"), and a local clock.  The
engine drives the SM; this class provides round-robin warp selection and
residency bookkeeping.
"""

from __future__ import annotations

from ..memory.tlb import Tlb
from .kernel import ThreadBlockSpec
from .warp import Warp, WarpState


class _ResidentBlock:
    """A thread block currently executing on the SM."""

    __slots__ = ("tb_id", "warps")

    def __init__(self, tb_id: int, spec: ThreadBlockSpec,
                 first_warp_id: int) -> None:
        self.tb_id = tb_id
        self.warps = [Warp(first_warp_id + i, w)
                      for i, w in enumerate(spec.warps)]

    @property
    def done(self) -> bool:
        return all(w.done for w in self.warps)


class StreamingMultiprocessor:
    """Warp pool + TLB + local time of one SM."""

    def __init__(self, sm_id: int, tlb_entries: int) -> None:
        self.sm_id = sm_id
        self.tlb = Tlb(tlb_entries)
        self.time_ns = 0.0
        #: True when a step event is queued or executing for this SM.
        self.scheduled = False
        self._blocks: list[_ResidentBlock] = []
        #: Warps of the resident blocks, in block order; rebuilt only when
        #: the resident set changes.
        self._warps: list[Warp] = []
        self._rr_index = 0
        #: True when a resident block may have finished since the last
        #: :meth:`reap_finished_blocks`: set when a warp retires its last
        #: access and when a block is placed already done.
        self.reap_pending = False

    # --- residency ---------------------------------------------------------
    def add_thread_block(self, tb_id: int, spec: ThreadBlockSpec,
                         first_warp_id: int) -> None:
        """Place a thread block on this SM."""
        block = _ResidentBlock(tb_id, spec, first_warp_id)
        for warp in block.warps:
            warp.sm = self
        self._blocks.append(block)
        self._warps = self._warps + block.warps
        if block.done:
            self.reap_pending = True

    def reap_finished_blocks(self) -> list[int]:
        """Remove completed thread blocks; returns their ids."""
        self.reap_pending = False
        finished = [b.tb_id for b in self._blocks if b.done]
        if finished:
            self._blocks = [b for b in self._blocks if not b.done]
            self._warps = [w for b in self._blocks for w in b.warps]
            self._rr_index = 0
        return finished

    @property
    def resident_blocks(self) -> int:
        return len(self._blocks)

    @property
    def idle(self) -> bool:
        """True when no warp can issue (all blocked or done).

        Side-effect free: unlike :meth:`next_ready_warp`, asking does
        not advance the rotation index.
        """
        ready = WarpState.READY
        return not any(warp.state is ready for warp in self._warps)

    # --- scheduling ----------------------------------------------------------
    def all_warps(self) -> list[Warp]:
        """Resident warps in block order (shared list: do not mutate)."""
        return self._warps

    def next_ready_warp(self) -> Warp | None:
        """Round-robin over READY warps across resident blocks."""
        warps = self._warps
        n = len(warps)
        rr = self._rr_index
        ready = WarpState.READY
        # From the rotation index to the end, then wrap around to it.
        for index in range(rr, n):
            if warps[index].state is ready:
                self._rr_index = index + 1 if index + 1 < n else 0
                return warps[index]
        for index in range(rr):
            if warps[index].state is ready:
                self._rr_index = index + 1
                return warps[index]
        return None
