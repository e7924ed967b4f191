"""The GPU page table.

A page's entry comes into play on its first fault (the paper: "new page
table entries are created in the GPU's page table and upon completion of
migration, these entries are validated").  The table also answers the
page-state queries that the prefetch/eviction policies need.  Walk
latency belongs to the page walker (:mod:`repro.memory.radix_walker`).
"""

from __future__ import annotations

from array import array
from itertools import compress

from ..errors import PageTableError
from .page import PageState, grown_window

#: State codes stored per page; ``_STATES[code]`` is the public state.
_INVALID, _MIGRATING, _VALID = 0, 1, 2
_STATES = (PageState.INVALID, PageState.MIGRATING, PageState.VALID)
#: ``bytes.translate`` table mapping an INVALID code to 1, any other to 0.
_INVALID_MASK = bytes([1]) + bytes(255)


class GpuPageTable:
    """Per-page state with transition checking.

    Three flat arrays indexed by ``page - base`` hold everything a page
    needs: its state code, its dirty bit, and how many migrations it has
    completed.  They are a ``bytearray`` / ``array("q")`` so the scalar
    per-access path indexes them at plain-Python speed and the range
    queries run as C-level ``bytearray`` scans.  Growth replaces the
    arrays, so an index must never be held across a growth.  Pages
    outside the window are INVALID and were never migrated.
    """

    def __init__(self) -> None:
        self._base = 0
        self._state = bytearray()
        #: 1 once the page is written while VALID; cleared on eviction.
        self._dirty = bytearray()
        #: Completed migrations per page; more than one means thrashing.
        self._migrations = array("q")
        self._valid_count = 0

    def _index(self, page: int) -> int:
        """Index of ``page``, growing the window to cover it."""
        index = page - self._base
        size = len(self._state)
        if 0 <= index < size:
            return index
        base, new_size, offset = grown_window(self._base, size, page)
        stop = offset + size
        state = bytearray(new_size)
        state[offset:stop] = self._state
        dirty = bytearray(new_size)
        dirty[offset:stop] = self._dirty
        migrations = array("q", [0]) * new_size
        migrations[offset:stop] = self._migrations
        self._state, self._dirty, self._migrations = state, dirty, migrations
        self._base = base
        return page - base

    def _code(self, page: int) -> int:
        index = page - self._base
        if 0 <= index < len(self._state):
            return self._state[index]
        return _INVALID

    # --- lookup -------------------------------------------------------------
    def state_of(self, page: int) -> PageState:
        """Current state of ``page``."""
        state = self._state
        index = page - self._base
        if 0 <= index < len(state):
            return _STATES[state[index]]
        return PageState.INVALID

    def is_valid(self, page: int) -> bool:
        """True when ``page`` has its valid flag set."""
        state = self._state
        index = page - self._base
        return 0 <= index < len(state) and state[index] == _VALID

    @property
    def valid_count(self) -> int:
        """Number of VALID pages (device-resident, excluding in-flight)."""
        return self._valid_count

    # --- state transitions ----------------------------------------------------
    def begin_migration(self, page: int) -> None:
        """INVALID -> MIGRATING when a transfer for the page is scheduled."""
        code = self._code(page)
        if code != _INVALID:
            raise PageTableError(
                f"page {page} cannot start migrating from {_STATES[code]}"
            )
        index = self._index(page)  # may replace the arrays: index first
        self._state[index] = _MIGRATING

    def complete_migration(self, page: int) -> int:
        """MIGRATING -> VALID when the PCI-e transfer completes.

        Returns the page's migration count, this one included.
        """
        code = self._code(page)
        if code != _MIGRATING:
            raise PageTableError(
                f"page {page} finished migration while {_STATES[code]}"
            )
        index = page - self._base
        self._state[index] = _VALID
        self._valid_count += 1
        count = self._migrations[index] + 1
        self._migrations[index] = count
        return count

    def invalidate(self, page: int) -> None:
        """VALID -> INVALID when the page is evicted."""
        code = self._code(page)
        if code != _VALID:
            raise PageTableError(
                f"cannot evict page {page} in state {_STATES[code]}"
            )
        index = page - self._base
        self._state[index] = _INVALID
        self._dirty[index] = 0
        self._valid_count -= 1

    def mark_access(self, page: int, is_write: bool) -> None:
        """Record an access to a VALID page (writes set its dirty bit)."""
        state = self._state
        index = page - self._base
        if not (0 <= index < len(state) and state[index] == _VALID):
            raise PageTableError(f"access to non-valid page {page}")
        if is_write:
            self._dirty[index] = 1

    # --- policy queries -------------------------------------------------------
    def invalid_pages_in_range(self, first: int, stop: int) -> list[int]:
        """INVALID pages of ``[first, stop)`` in ascending order."""
        base = self._base
        lo = max(first, base)
        hi = min(stop, base + len(self._state))
        if lo >= hi:
            return list(range(first, stop))
        free = self._state[lo - base:hi - base].translate(_INVALID_MASK)
        return [*range(first, lo), *compress(range(lo, hi), free),
                *range(hi, stop)]

    def resident_count(self, first: int, stop: int) -> int:
        """VALID or MIGRATING pages of ``[first, stop)``: the to-be-valid
        pages the buddy trees count."""
        base = self._base
        lo = max(first - base, 0)
        hi = min(stop - base, len(self._state))
        if lo >= hi:
            return 0
        return hi - lo - self._state.count(_INVALID, lo, hi)

    def dirty_pages(self, pages: list[int]) -> list[int]:
        """Subset of ``pages`` whose dirty flag is set."""
        base = self._base
        dirty = self._dirty
        size = len(dirty)
        return [page for page in pages
                if 0 <= page - base < size and dirty[page - base]]

    def check_valid_count(self) -> None:
        """Raise unless ``valid_count`` equals the number of VALID pages."""
        actual = self._state.count(_VALID)
        if actual != self._valid_count:
            raise PageTableError(
                f"valid_count={self._valid_count} but {actual} pages are "
                f"VALID"
            )
