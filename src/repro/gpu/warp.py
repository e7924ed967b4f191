"""Runtime warp state.

A warp walks its coalesced access stream; a far-fault blocks it until the
GMMU notifies it to replay the access (Figure 1, step 6).  Blocking one warp
does not block the SM — sibling warps keep issuing, which is how GPUs hide
latency with thread-level parallelism.
"""

from __future__ import annotations

from enum import Enum

from ..errors import SimulationError
from .kernel import Access, WarpSpec


class WarpState(Enum):
    READY = "ready"
    BLOCKED = "blocked"
    DONE = "done"


class Warp:
    """One warp's execution cursor over its access stream."""

    __slots__ = ("warp_id", "accesses", "cursor", "state", "blocked_on",
                 "sm")

    def __init__(self, warp_id: int, spec: WarpSpec) -> None:
        self.warp_id = warp_id
        self.accesses = spec.accesses
        self.cursor = 0
        self.state = WarpState.READY if spec.accesses else WarpState.DONE
        #: Page index the warp is blocked on, when BLOCKED.
        self.blocked_on: int | None = None
        #: Back-reference to the hosting SM, set at thread-block placement.
        self.sm = None

    @property
    def done(self) -> bool:
        return self.state is WarpState.DONE

    @property
    def ready(self) -> bool:
        return self.state is WarpState.READY

    def current_access(self) -> Access:
        """The access at the cursor (the one being issued or replayed)."""
        if self.state is not WarpState.READY:
            raise SimulationError(
                f"warp {self.warp_id} has no current access in {self.state}"
            )
        return self.accesses[self.cursor]

    def advance(self) -> None:
        """Retire the current access; transitions to DONE at stream end."""
        if self.state is not WarpState.READY:
            raise SimulationError(
                f"warp {self.warp_id} cannot advance while {self.state}"
            )
        self.cursor += 1
        if self.cursor >= len(self.accesses):
            self.state = WarpState.DONE
            if self.sm is not None:
                self.sm.reap_pending = True

    def block_on(self, page: int) -> None:
        """Stall until ``page`` is migrated; the access will be replayed."""
        if self.state is not WarpState.READY:
            raise SimulationError(
                f"warp {self.warp_id} cannot block while {self.state}"
            )
        self.state = WarpState.BLOCKED
        self.blocked_on = page

    def wake(self) -> None:
        """Resume after the blocking page became valid."""
        if self.state is not WarpState.BLOCKED:
            raise SimulationError(
                f"warp {self.warp_id} woken while {self.state}"
            )
        self.state = WarpState.READY
        self.blocked_on = None

    @property
    def remaining(self) -> int:
        """Accesses left, including the current one."""
        return len(self.accesses) - self.cursor
