"""Device physical frame pool with future-dated releases.

Frames freed by an eviction only become usable once the victim's write-back
completes on the PCI-e write channel.  The pool therefore tracks, besides the
immediately free count, a time-ordered set of *pending releases*; a migration
that needs more frames than are free right now learns the earliest time its
demand can be met (this waiting is the over-subscription stall the paper
measures, Section 4.2).
"""

from __future__ import annotations

import heapq

from ..errors import DeviceMemoryError


class FramePool:
    """Counts free/used 4 KB frames; identities are not modelled."""

    __slots__ = ("capacity", "_free", "_used", "_pending")

    def __init__(self, capacity_pages: int | None) -> None:
        if capacity_pages is not None and capacity_pages <= 0:
            raise DeviceMemoryError("capacity must be positive or None")
        self.capacity = capacity_pages
        self._free = capacity_pages if capacity_pages is not None else 0
        self._used = 0
        #: Heap of (release_time_ns, n_frames) for in-flight write-backs.
        self._pending: list[tuple[float, int]] = []

    # --- inspection ---------------------------------------------------------
    @property
    def unbounded(self) -> bool:
        return self.capacity is None

    @property
    def used(self) -> int:
        """Frames currently holding valid or migrating pages."""
        return self._used

    @property
    def free_now(self) -> int:
        """Frames allocatable immediately (ignores pending releases)."""
        if self.unbounded:
            return 1 << 62
        return self._free

    @property
    def pending_release(self) -> int:
        """Frames that will free once in-flight write-backs finish."""
        return sum(count for _, count in self._pending)

    def occupancy(self) -> float:
        """Used fraction of capacity (0 when unbounded)."""
        if self.unbounded or self.capacity == 0:
            return 0.0
        return self._used / self.capacity

    # --- mutation -----------------------------------------------------------
    def allocate(self, n_frames: int, now_ns: float) -> float:
        """Claim ``n_frames`` frames; return when they are all available.

        Free frames are consumed first; any shortfall is covered by the
        earliest pending releases, and the returned time is the completion
        time of the last release consumed (>= ``now_ns``).  Raises if the
        demand exceeds free + pending frames.
        """
        if n_frames < 0:
            raise DeviceMemoryError("cannot allocate a negative frame count")
        self._used += n_frames
        if self.unbounded:
            return now_ns
        available_at = now_ns
        shortfall = n_frames - self._free
        if shortfall <= 0:
            self._free -= n_frames
            return available_at
        self._free = 0
        while shortfall > 0:
            if not self._pending:
                raise DeviceMemoryError(
                    f"demand for {n_frames} frames exceeds capacity: "
                    f"{shortfall} frames short with no pending releases"
                )
            release_time, count = heapq.heappop(self._pending)
            available_at = max(available_at, release_time)
            if count > shortfall:
                heapq.heappush(
                    self._pending, (release_time, count - shortfall)
                )
                shortfall = 0
            else:
                shortfall -= count
        return available_at

    def release(self, n_frames: int, at_ns: float) -> None:
        """Schedule ``n_frames`` to become free at time ``at_ns``."""
        if n_frames <= 0:
            raise DeviceMemoryError("must release a positive frame count")
        if self._used < n_frames:
            raise DeviceMemoryError(
                f"releasing {n_frames} frames but only {self._used} in use"
            )
        self._used -= n_frames
        if self.unbounded:
            return
        heapq.heappush(self._pending, (at_ns, n_frames))

    def settle(self, now_ns: float) -> None:
        """Move pending releases whose time has passed into the free pool."""
        if self.unbounded:
            return
        while self._pending and self._pending[0][0] <= now_ns:
            _, count = heapq.heappop(self._pending)
            self._free += count

    def check_conservation(self) -> None:
        """Assert used + free + pending == capacity (bounded pools only)."""
        if self.unbounded:
            return
        total = self._used + self._free + self.pending_release
        if total != self.capacity:
            raise DeviceMemoryError(
                f"frame conservation violated: used={self._used} "
                f"free={self._free} pending={self.pending_release} "
                f"capacity={self.capacity}"
            )
