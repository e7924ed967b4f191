"""Far-fault Miss Status Handling Registers.

Concurrent faults from different warps to the same page merge into one MSHR
entry (Figure 1, step 3): only the first fault triggers driver work, and all
blocked warps are notified together when the migration completes (step 6).

The file holds entries only for pages a warp waits on.  A page's
in-flight record is its MIGRATING state in the page table, as GPGPU-Sim's
page manager marks a page ``PENDING_MIGRATION`` in its own entry: a
prefetched page gets no entry, only a place in the
:attr:`FarFaultMSHR.unwaited` count, which keeps the file's capacity
exact.  A fault on such a page turns its count into an entry holding the
warp (:meth:`FarFaultMSHR.merge_in_flight`), a merge like any other.
Occupancy is the entries plus that count, so an overflow raises at the
same page, and ``peak_occupancy`` reads the same, as with one entry per
in-flight page.

Fault injection: a new fault's *notification* to the host driver can be
lost — either dropped on the wire or squeezed out by a transient fault-
buffer overflow.  The entry (and its blocked warps) is still created, so
the fault can be redelivered later; :meth:`FarFaultMSHR.register_fault`
reports the outcome to the GMMU, which arranges redelivery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import NoReturn

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
        #: In-flight pages no warp waits on: counted, with no entry.
        self.unwaited = 0
        self.merges = 0
        self.peak_occupancy = 0

    def _overflow(self, page: int) -> SimulationError:
        return SimulationError(
            f"MSHR overflow registering page {page}: {self.capacity} "
            f"far-faults already outstanding ({self.unwaited} prefetched, "
            f"oldest waited-on pages: {list(self._entries)[:4]})"
        )

    def _insert(self, page: int, waiter: object, now_ns: float) -> None:
        """Create the entry for a page with no outstanding fault."""
        entries = self._entries
        occupancy = len(entries) + self.unwaited
        if occupancy >= self.capacity:
            raise self._overflow(page)
        entry = MshrEntry(page, now_ns)
        if waiter is not None:
            entry.waiters.append(waiter)
        entries[page] = entry
        if occupancy >= self.peak_occupancy:
            self.peak_occupancy = occupancy + 1

    def register_fault(self, page: int, waiter: object,
                       now_ns: float) -> str:
        """Fault-path registration with injection, for a page that is
        not in flight (INVALID); the GMMU entry point.

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

    def merge_in_flight(self, page: int, waiter: object,
                        now_ns: float) -> None:
        """A fault on a page whose migration is in flight (MIGRATING):
        the warp waits for the transfer, and the fault is a merge.

        The first waiter on a prefetched page moves the page from the
        :attr:`unwaited` count to an entry, so occupancy is unchanged.
        """
        entry = self._entries.get(page)
        if entry is None:
            entry = self._entries[page] = MshrEntry(page, now_ns)
            self.unwaited -= 1
        entry.waiters.append(waiter)
        self.merges += 1

    def register_many(self, runs: list[range]) -> None:
        """Count the pages of a migration plan's ``runs`` that have no
        entry: the prefetched pages, now in flight with no waiter.

        One capacity check for the plan; an overflow raises at the page
        a page-by-page registration of the plan's pages in order would
        raise at, with the pages before it counted.
        """
        entries = self._entries
        new = 0
        for run in runs:
            # Count from the smaller side: a run is a range, so a page
            # tests membership in O(1) either way.
            if len(entries) < len(run):
                new += len(run) - sum(map(run.__contains__, entries))
            else:
                new += len(run) - sum(map(entries.__contains__, run))
        occupancy = len(entries) + self.unwaited + new
        if occupancy > self.capacity:
            self._raise_in(runs)
        self.unwaited += new
        if occupancy > self.peak_occupancy:
            self.peak_occupancy = occupancy

    def _raise_in(self, runs: list[range]) -> NoReturn:
        """Count the plan's pages one by one up to capacity and raise at
        the first that does not fit."""
        entries = self._entries
        for run in runs:
            for page in run:
                if page not in entries:
                    if len(entries) + self.unwaited >= self.capacity:
                        self.peak_occupancy = max(self.peak_occupancy,
                                                  self.capacity)
                        raise self._overflow(page)
                    self.unwaited += 1
        raise AssertionError("plan fits the MSHR file")

    def entry(self, page: int) -> MshrEntry | None:
        """The live entry for ``page`` (observability: first-fault time
        and blocked warps), or None when no warp waits on it."""
        return self._entries.get(page)

    def complete_many(self, run: range) -> list[object]:
        """Retire the in-flight pages of ``run`` (one transfer group);
        returns the waiters to wake, in page order."""
        entries = self._entries
        if len(run) == 1:
            entry = entries.pop(run.start, None)
            if entry is not None:
                return entry.waiters
            held = ()
        elif len(entries) < len(run):
            held = sorted(filter(run.__contains__, entries))
        else:
            held = list(filter(entries.__contains__, run))
        unwaited = self.unwaited - (len(run) - len(held))
        if unwaited < 0:
            raise SimulationError(
                f"completing pages [{run.start}, {run.stop}) with "
                f"{len(run) - len(held)} pages without an entry, but only "
                f"{self.unwaited} prefetched pages are outstanding"
            )
        self.unwaited = unwaited
        if not held:
            return []
        return list(chain.from_iterable(map(_WAITERS,
                                            map(entries.pop, held))))

    def __len__(self) -> int:
        """Occupancy: entries plus in-flight pages no warp waits on."""
        return len(self._entries) + self.unwaited

    def pages(self) -> list[int]:
        """Pages with entries: those warps wait on (diagnostics)."""
        return list(self._entries)
