"""Far-fault Miss Status Handling Registers.

Concurrent faults from different warps to the same page merge into one MSHR
entry (Figure 1, step 3): only the first fault triggers driver work, and all
blocked warps are notified together when the migration completes (step 6).

Fault injection: a new fault's *notification* to the host driver can be
lost — either dropped on the wire or squeezed out by a transient fault-
buffer overflow.  The entry (and its blocked warps) is still created, so
the fault can be redelivered later; :meth:`FarFaultMSHR.register_fault`
reports the outcome to the GMMU, which arranges redelivery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, filterfalse, repeat
from operator import attrgetter

from ..errors import SimulationError


@dataclass(slots=True)
class MshrEntry:
    """Outstanding far-fault for one page and the warps blocked on it."""

    page: int
    first_fault_ns: float
    waiters: list[object] = field(default_factory=list)


_WAITERS = attrgetter("waiters")


class FarFaultMSHR:
    """Fixed-capacity file of outstanding far-faults, keyed by page."""

    def __init__(self, entries: int, injector=None) -> None:
        if entries <= 0:
            raise ValueError("MSHR file needs at least one entry")
        self.capacity = entries
        self.injector = injector
        self._entries: dict[int, MshrEntry] = {}
        self.merges = 0
        self.peak_occupancy = 0

    def _insert(self, page: int, waiter: object, now_ns: float) -> None:
        """Create the entry for a page with no outstanding fault."""
        if len(self._entries) >= self.capacity:
            raise SimulationError(
                f"MSHR overflow registering page {page}: {self.capacity} "
                f"far-faults already outstanding (oldest pages: "
                f"{list(self._entries)[:4]})"
            )
        entry = MshrEntry(page, now_ns)
        if waiter is not None:
            entry.waiters.append(waiter)
        self._entries[page] = entry
        self.peak_occupancy = max(self.peak_occupancy, len(self._entries))

    def register(self, page: int, waiter: object, now_ns: float) -> bool:
        """Record a fault; returns True when this is a *new* fault.

        A ``waiter`` (typically a warp) is appended either way so it gets
        woken on completion.  ``waiter`` may be None for prefetch-initiated
        migrations that no warp is blocked on.
        """
        entry = self._entries.get(page)
        if entry is not None:
            if waiter is not None:
                entry.waiters.append(waiter)
            self.merges += 1
            return False
        self._insert(page, waiter, now_ns)
        return True

    def register_many(self, pages: list[int], now_ns: float) -> None:
        """Waiter-less entries for the ``pages`` that have none: the
        prefetched pages of one migration plan.

        Equivalent to :meth:`register` ``(page, None, now_ns)`` for each
        page without an outstanding entry, with one capacity check; an
        overflow raises at the same page, with the same entries before
        it, as the per-page calls would.
        """
        entries = self._entries
        new = list(filterfalse(entries.__contains__, pages))
        if len(entries) + len(new) > self.capacity:
            # Page by page, so the overflow raises where it would have.
            for page in new:
                if page not in entries:
                    self._insert(page, None, now_ns)
            return
        entries.update(zip(new, map(MshrEntry, new, repeat(now_ns))))
        self.peak_occupancy = max(self.peak_occupancy, len(entries))

    def register_fault(self, page: int, waiter: object,
                       now_ns: float) -> str:
        """Fault-path registration with injection; the GMMU entry point.

        Returns ``"merged"`` (outstanding entry absorbed the fault),
        ``"new"`` (driver must be notified), or ``"lost-overflow"`` /
        ``"lost-drop"`` (entry created — the warp waits — but the host
        notification was injected away and must be redelivered).
        """
        entry = self._entries.get(page)
        if entry is not None:
            if waiter is not None:
                entry.waiters.append(waiter)
            self.merges += 1
            return "merged"
        self._insert(page, waiter, now_ns)
        if self.injector is not None:
            if self.injector.mshr_overflow():
                return "lost-overflow"
            if self.injector.drop_fault():
                return "lost-drop"
        return "new"

    def outstanding(self, page: int) -> bool:
        """True when a fault/migration for ``page`` is in flight."""
        return page in self._entries

    def entry(self, page: int) -> MshrEntry | None:
        """The live entry for ``page`` (observability: first-fault time
        and blocked warps), or None when nothing is outstanding."""
        return self._entries.get(page)

    def complete(self, page: int) -> list[object]:
        """Retire the entry for ``page``; returns the waiters to wake."""
        entry = self._entries.pop(page, None)
        if entry is None:
            raise SimulationError(
                f"completing page {page} with no MSHR entry "
                f"({len(self._entries)} entries outstanding)"
            )
        return entry.waiters

    def complete_many(self, pages: list[int]) -> list[object]:
        """:meth:`complete` for each of ``pages``; returns their waiters
        in page order."""
        pop = self._entries.pop
        if len(pages) == 1:
            entry = pop(pages[0], None)
            if entry is not None:
                return entry.waiters
        try:
            done = list(map(pop, pages))
        except KeyError as missing:
            # The pages before it are retired, as per-page calls would.
            self.complete(missing.args[0])  # no entry: raises
            raise
        return list(chain.from_iterable(map(_WAITERS, done)))

    def __len__(self) -> int:
        return len(self._entries)

    def pages(self) -> list[int]:
        """Pages with outstanding entries (diagnostics)."""
        return list(self._entries)
