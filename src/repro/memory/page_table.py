"""The GPU page table.

PTEs are created lazily on first fault (the paper: "new page table entries
are created in the GPU's page table and upon completion of migration, these
entries are validated").  The table also exposes the valid-page queries that
the prefetch/eviction policies need, and models the 100-cycle multi-threaded
page-table walk of Table 2 as a constant latency.
"""

from __future__ import annotations

import numpy as np

from .. import constants
from ..errors import PageTableError
from .addressing import AddressSpace, DEFAULT_ADDRESS_SPACE
from .page import PageFlagStore, PageState, PageTableEntry


class GpuPageTable:
    """Page-index keyed PTE store with state-transition checking.

    The mutable per-page mark fields (valid/accessed/dirty bits and the
    last-access timestamp) live in the table's :class:`PageFlagStore`
    numpy arrays; :class:`PageTableEntry` objects carry the state machine
    and proxy the mark fields, which lets the fast engine commit whole
    access spans with vectorized scatters (:meth:`mark_access_span`).
    """

    def __init__(self, space: AddressSpace | None = None,
                 walk_cycles: int = constants.PAGE_TABLE_WALK_CYCLES) -> None:
        self.space = space or DEFAULT_ADDRESS_SPACE
        self.walk_cycles = walk_cycles
        self._entries: dict[int, PageTableEntry] = {}
        self._store = PageFlagStore()
        self._valid_count = 0

    # --- lookup -------------------------------------------------------------
    def entry(self, page: int) -> PageTableEntry:
        """The PTE for ``page``, creating an INVALID one if absent."""
        pte = self._entries.get(page)
        if pte is None:
            pte = PageTableEntry(page, self._store)
            self._entries[page] = pte
        return pte

    def peek(self, page: int) -> PageTableEntry | None:
        """The PTE for ``page`` or None; never creates an entry."""
        return self._entries.get(page)

    def state_of(self, page: int) -> PageState:
        """Current state of ``page`` (INVALID when no PTE exists)."""
        pte = self._entries.get(page)
        return pte.state if pte is not None else PageState.INVALID

    def is_valid(self, page: int) -> bool:
        """True when ``page`` has its valid flag set."""
        pte = self._entries.get(page)
        return pte is not None and pte.state is PageState.VALID

    @property
    def valid_count(self) -> int:
        """Number of VALID pages (device-resident, excluding in-flight)."""
        return self._valid_count

    # --- state transitions ----------------------------------------------------
    def begin_migration(self, page: int) -> PageTableEntry:
        """INVALID -> MIGRATING when a transfer for the page is scheduled."""
        pte = self.entry(page)
        if pte.state is not PageState.INVALID:
            raise PageTableError(
                f"page {page} cannot start migrating from {pte.state}"
            )
        pte.state = PageState.MIGRATING
        store = self._store
        store.occupied[page - store.base] = True
        return pte

    def complete_migration(self, page: int, time_ns: float) -> PageTableEntry:
        """MIGRATING -> VALID when the PCI-e transfer completes."""
        pte = self.entry(page)
        if pte.state is not PageState.MIGRATING:
            raise PageTableError(
                f"page {page} finished migration while {pte.state}"
            )
        pte.state = PageState.VALID
        store = self._store
        index = page - store.base
        store.valid[index] = True
        store.dirty[index] = False
        store.accessed[index] = False
        store.last_access[index] = time_ns
        pte.migration_count += 1
        self._valid_count += 1
        return pte

    def invalidate(self, page: int) -> PageTableEntry:
        """VALID -> INVALID when the page is evicted."""
        pte = self._entries.get(page)
        if pte is None or pte.state is not PageState.VALID:
            state = pte.state if pte is not None else PageState.INVALID
            raise PageTableError(f"cannot evict page {page} in state {state}")
        pte.reset_on_eviction()
        self._valid_count -= 1
        return pte

    def mark_access(self, page: int, time_ns: float, is_write: bool) -> None:
        """Set accessed (and dirty on writes) flags of a VALID page."""
        pte = self._entries.get(page)
        if pte is None or pte.state is not PageState.VALID:
            raise PageTableError(f"access to non-valid page {page}")
        store = self._store
        index = page - store.base
        store.accessed[index] = True
        store.last_access[index] = time_ns
        if is_write:
            store.dirty[index] = True

    def mark_access_span(self, pages, sel, times, writes) -> list[int]:
        """Vectorized :meth:`mark_access` fold over a deferred access span.

        ``pages``/``times`` are execution-order arrays; ``sel`` selects
        the last occurrence of each distinct page (ascending); ``writes``
        is a boolean mask over ``pages`` marking written accesses, or
        None when the span has no writes.
        Returns the distinct pages (``pages[sel]``) as a list
        for the eviction-policy batch touch.  All span pages must be
        VALID — the fast engine flushes before anything can invalidate.
        """
        store = self._store
        index = pages - store.base
        if (index.size and (index.min() < 0 or index.max() >= store.size)) \
                or not store.valid[index].all():
            # A page escaped the residency guarantee; redo the checks
            # scalar-wise to name the culprit like mark_access would.
            entries = self._entries
            for page in pages.tolist():
                pte = entries.get(page)
                if pte is None or pte.state is not PageState.VALID:
                    raise PageTableError(f"access to non-valid page {page}")
            raise PageTableError("valid-bit store out of sync with PTE states")
        dsel = index[sel]
        store.accessed[dsel] = True
        store.last_access[dsel] = times[sel]
        if writes is not None:
            store.dirty[index[writes]] = True
        return pages[sel].tolist()

    # --- policy queries -------------------------------------------------------
    def valid_pages_in_block(self, block: int) -> list[int]:
        """VALID page indices inside basic block ``block``."""
        return [p for p in self.space.pages_in_block(block)
                if self.is_valid(p)]

    def invalid_pages_in_block(self, block: int) -> list[int]:
        """Pages of ``block`` with no valid flag and no transfer in flight."""
        pages = self.space.pages_in_block(block)
        return self.invalid_pages_in_range(pages.start, pages.stop)

    def invalid_pages_in_range(self, first: int, stop: int) -> list[int]:
        """INVALID pages of ``[first, stop)`` in ascending order.

        Reads the store's occupancy bits; pages outside the store window
        have no PTE and so count as INVALID.
        """
        store = self._store
        base = store.base
        lo = max(first, base)
        hi = min(stop, base + store.size)
        if lo >= hi:
            return list(range(first, stop))
        free = np.flatnonzero(~store.occupied[lo - base:hi - base]) + lo
        return [*range(first, lo), *free.tolist(), *range(hi, stop)]

    def dirty_pages(self, pages: list[int]) -> list[int]:
        """Subset of ``pages`` whose dirty flag is set."""
        store = self._store
        base = store.base
        size = store.size
        dirty = store.dirty
        out = []
        for page in pages:
            index = page - base
            if 0 <= index < size and dirty[index]:
                out.append(page)
        return out

    def valid_pages(self) -> list[int]:
        """All VALID page indices (test/diagnostic helper)."""
        return [p for p, pte in self._entries.items()
                if pte.state is PageState.VALID]

    def check_flag_store(self) -> None:
        """Raise unless the store's valid/occupied bits match every PTE.

        Pages without a PTE must have both bits clear; the valid count
        must equal the number of set valid bits.
        """
        store = self._store
        base = store.base
        valid = np.zeros(store.size, dtype=bool)
        occupied = np.zeros(store.size, dtype=bool)
        for page, pte in self._entries.items():
            if pte.state is not PageState.INVALID:
                occupied[page - base] = True
                valid[page - base] = pte.state is PageState.VALID
        for name, expected in (("valid", valid), ("occupied", occupied)):
            wrong = np.flatnonzero(getattr(store, name) != expected)
            if wrong.size:
                page = int(wrong[0]) + base
                raise PageTableError(
                    f"{name} bit of page {page} disagrees with PTE state "
                    f"{self.state_of(page)}"
                )
        if int(valid.sum()) != self._valid_count:
            raise PageTableError(
                f"valid_count={self._valid_count} but {int(valid.sum())} "
                f"PTEs are VALID"
            )
