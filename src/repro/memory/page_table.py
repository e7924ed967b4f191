"""The GPU page table.

A page's entry comes into play on its first fault (the paper: "new page
table entries are created in the GPU's page table and upon completion of
migration, these entries are validated").  The table also answers the
page-state queries that the prefetch/eviction policies need.  Walk
latency belongs to the page walker (:mod:`repro.memory.radix_walker`).
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable
from itertools import compress
from typing import NoReturn

from ..errors import PageTableError
from .addressing import AddressSpace
from .page import WINDOW_ALIGN, PageState, grown_window

#: State codes stored per page; ``_STATES[code]`` is the public state.
_INVALID, _MIGRATING, _VALID = 0, 1, 2
_STATES = (PageState.INVALID, PageState.MIGRATING, PageState.VALID)
_MIGRATING_CODE, _VALID_CODE = bytes([_MIGRATING]), bytes([_VALID])
#: A one-page :meth:`GpuPageTable.invalid_mask` of an INVALID page.
_MASK_ON = b"\x01"
_PLUS_ONE = (1).__add__
#: ``bytes.translate`` tables mapping one code to 1 and any other to 0.
_INVALID_MASK = bytes(code == _INVALID for code in range(256))
_VALID_MASK = bytes(code == _VALID for code in range(256))


class PageStamps:
    """Last-access stamps per page, basic block and large page.

    Three plain lists of int stamps, all drawn from one :attr:`clock`:
    ``page[p - base]`` for page ``p``, ``block[b - block_base]`` for
    block ``b`` and ``chunk[c - chunk_base]`` for large page ``c``.  A
    stamp is the clock value of the last insert or access; 0 means the
    page is not a member of the LRU that owns the stamps.  Stamps are
    unique, so they order pages, blocks and chunks exactly as a list
    kept in last-access order would (see
    :class:`~repro.memory.lru.HierarchicalLRU`).

    They are ``list`` s, not ``array("q")``: an item store into a list
    is the cheapest store the issue loop can make.  The window grows like
    the page table's and replaces the lists, so a list must never be
    held across a growth.  A store that belongs to a
    :class:`GpuPageTable` (:meth:`GpuPageTable.claim_stamps`) shares the
    table's window, so ``page`` indexes like the table's per-page
    arrays; a store of its own grows on demand.

    When both page ratios are powers of two that divide the window
    alignment (65,536 pages), the window base is large-page aligned, and
    ``block[i >> block_shift]`` and ``chunk[i >> chunk_shift]`` are the
    block and chunk of ``page[i]``; otherwise both shifts are None.
    """

    __slots__ = ("pages_per_block", "pages_per_large_page",
                 "block_shift", "chunk_shift", "base", "block_base",
                 "chunk_base", "page", "block", "chunk", "clock", "_cover")

    def __init__(self, space: AddressSpace, cover=None) -> None:
        self.pages_per_block = per_block = space.pages_per_block
        self.pages_per_large_page = per_chunk = space.pages_per_large_page
        self.block_shift = self.chunk_shift = None
        if not (per_block & (per_block - 1) or per_chunk & (per_chunk - 1)
                or WINDOW_ALIGN % per_chunk):
            self.block_shift = per_block.bit_length() - 1
            self.chunk_shift = per_chunk.bit_length() - 1
        self.base = self.block_base = self.chunk_base = 0
        self.page: list[int] = []
        self.block: list[int] = []
        self.chunk: list[int] = []
        self.clock = 0
        #: Grows the window to cover a page: the owning table's, or None.
        self._cover = cover

    def cover(self, page: int) -> None:
        """Grow the window so it covers ``page``."""
        if 0 <= page - self.base < len(self.page):
            return
        if self._cover is not None:
            self._cover(page)  # the table calls regrid()
        else:
            base, size, _ = grown_window(self.base, len(self.page), page)
            self.regrid(base, size)

    def regrid(self, base: int, size: int) -> None:
        """Move to the window ``[base, base + size)``, which contains the
        current one, keeping every stamp."""
        per_block = self.pages_per_block
        per_chunk = self.pages_per_large_page
        block_base = base // per_block
        chunk_base = base // per_chunk
        self.page = _moved(self.page, self.base - base, size)
        self.block = _moved(self.block, self.block_base - block_base,
                            -(-(base + size) // per_block) - block_base)
        self.chunk = _moved(self.chunk, self.chunk_base - chunk_base,
                            -(-(base + size) // per_chunk) - chunk_base)
        self.base, self.block_base, self.chunk_base = \
            base, block_base, chunk_base


def _moved(old: list[int], offset: int, size: int) -> list[int]:
    """A zeroed list of ``size`` holding ``old`` from ``offset`` on."""
    new = [0] * size
    if old:
        new[offset:offset + len(old)] = old
    return new


class GpuPageTable:
    """Per-page state with transition checking.

    Three flat arrays indexed by ``page - base`` hold everything a page
    needs: its state code, its dirty bit, and how many migrations it has
    completed.  They are a ``bytearray`` / ``array("q")`` so the scalar
    per-access path indexes them at plain-Python speed and the range
    queries run as C-level ``bytearray`` scans.  Growth replaces the
    arrays, so an index must never be held across a growth.  Pages
    outside the window are INVALID and were never migrated.  The
    recency stamps of one LRU (:meth:`claim_stamps`) share the window
    and grow with it.

    Each transition has a scalar form (one page) and a run form (a
    driver step's pages at once).  The run forms check and apply with
    ``bytearray`` ``count`` and slice assignment; an illegal run is
    replayed through the scalar form, so it raises the same
    :class:`PageTableError` at the same page, with the legal pages before
    it already transitioned, as page-by-page calls would.
    """

    def __init__(self) -> None:
        self._base = 0
        self._state = bytearray()
        #: 1 once the page is written while VALID; cleared on eviction.
        self._dirty = bytearray()
        #: Completed migrations per page; more than one means thrashing.
        self._migrations = array("q")
        self._valid_count = 0
        #: The recency stamps of the one LRU that claimed them, or None.
        self.stamps: PageStamps | None = None

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
        if self.stamps is not None:
            self.stamps.regrid(base, new_size)
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

    def begin_migration_runs(self, runs: Iterable[tuple[int, int]]) -> None:
        """:meth:`begin_migration` for every page of each ``[first, stop)``
        run, in order: one call for a whole migration plan."""
        for first, stop in runs:
            lo = first - self._base
            hi = stop - self._base
            if lo < 0 or hi > len(self._state):
                self._index(stop - 1)
                lo = self._index(first)  # growth moves the base: index last
                hi = lo + stop - first
            state = self._state
            if hi - lo == 1:
                if state[lo] == _INVALID:
                    state[lo] = _MIGRATING
                    continue
            elif state.count(_INVALID, lo, hi) == hi - lo:
                state[lo:hi] = _MIGRATING_CODE * (hi - lo)
                continue
            self._replay(self.begin_migration, first, stop)

    def complete_migration_run(self, first: int, stop: int) -> int:
        """:meth:`complete_migration` for every page of ``[first, stop)``.

        Returns how many of the pages had migrated before: the run's
        thrashed pages.
        """
        state = self._state
        migrations = self._migrations
        lo = first - self._base
        hi = stop - self._base
        if hi - lo == 1:
            if 0 <= lo < len(state) and state[lo] == _MIGRATING:
                state[lo] = _VALID
                self._valid_count += 1
                count = migrations[lo]
                migrations[lo] = count + 1
                return 1 if count else 0
        elif 0 <= lo and hi <= len(state) \
                and state.count(_MIGRATING, lo, hi) == hi - lo:
            state[lo:hi] = _VALID_CODE * (hi - lo)
            self._valid_count += hi - lo
            before = migrations[lo:hi]
            migrations[lo:hi] = array("q", map(_PLUS_ONE, before))
            return hi - lo - before.count(0)
        self._replay(self.complete_migration, first, stop)

    def invalidate_pages(self, pages: list[int]) -> None:
        """:meth:`invalidate` for each of ``pages``, in order: one call
        for a whole eviction round."""
        state = self._state
        dirty = self._dirty
        base = self._base
        size = len(state)
        n = len(pages)
        if n > 1 and pages[-1] - pages[0] == n - 1:
            lo = pages[0] - base
            hi = lo + n
            if 0 <= lo and hi <= size and state.count(_VALID, lo, hi) == n \
                    and pages == list(range(pages[0], pages[0] + n)):
                state[lo:hi] = dirty[lo:hi] = bytes(n)
                self._valid_count -= n
                return
        for done, page in enumerate(pages):
            index = page - base
            if not (0 <= index < size and state[index] == _VALID):
                self._valid_count -= done
                self.invalidate(page)  # raises
            state[index] = _INVALID
            dirty[index] = 0
        self._valid_count -= n

    @staticmethod
    def _replay(transition, first: int, stop: int) -> NoReturn:
        """Apply a scalar ``transition`` page by page over an illegal run:
        the legal prefix transitions, then the offending page raises."""
        for page in range(first, stop):
            transition(page)
        raise AssertionError(f"run [{first}, {stop}) replayed legally")

    def mark_access(self, page: int, is_write: bool) -> None:
        """Record an access to a VALID page (writes set its dirty bit)."""
        state = self._state
        index = page - self._base
        if not (0 <= index < len(state) and state[index] == _VALID):
            raise PageTableError(f"access to non-valid page {page}")
        if is_write:
            self._dirty[index] = 1

    def access_view(self) -> tuple[int, bytearray, bytearray, int]:
        """``(base, state, dirty, valid_code)``: the arrays behind
        :meth:`mark_access`, for an issue loop that marks accesses inline.

        Page ``p`` is VALID when ``0 <= p - base < len(state)`` and
        ``state[p - base] == valid_code``; setting ``dirty[p - base] = 1``
        then does what ``mark_access(p, True)`` does.  Any other page
        must go through :meth:`mark_access`, which raises.  The arrays
        are replaced only when the window grows, and it grows only in
        :meth:`begin_migration` / :meth:`begin_migration_runs` (driver
        events), so a view fetched at the start of an SM step holds for
        that step and no longer.
        """
        return self._base, self._state, self._dirty, _VALID

    def claim_stamps(self, space: AddressSpace) -> PageStamps | None:
        """The table's :class:`PageStamps` for the first caller, None for
        any later one.

        One LRU owns the table's stamps, and the issue loop may stamp
        them inline next to the dirty bit (they share the window, so one
        index serves both).  A second LRU over the same table (the
        bandit's passive arm) keeps a store of its own.
        """
        if self.stamps is not None:
            return None
        stamps = PageStamps(space, cover=self._index)
        if self._state:
            stamps.regrid(self._base, len(self._state))
        self.stamps = stamps
        return stamps

    # --- policy queries -------------------------------------------------------
    def invalid_pages_in_range(self, first: int, stop: int) -> list[int]:
        """INVALID pages of ``[first, stop)`` in ascending order."""
        return list(compress(range(first, stop),
                             self.invalid_mask(first, stop)))

    def invalid_mask(self, first: int, stop: int) -> bytearray:
        """One byte per page of ``[first, stop)``: 1 when the page is
        INVALID, else 0 (a selector for ``itertools.compress``)."""
        base = self._base
        lo = min(max(first, base), stop)
        hi = max(min(stop, base + len(self._state)), lo)
        mask = bytearray(_MASK_ON * (lo - first))
        mask += self._state[lo - base:hi - base].translate(_INVALID_MASK)
        mask += _MASK_ON * (stop - hi)
        return mask

    def resident_count(self, first: int, stop: int) -> int:
        """VALID or MIGRATING pages of ``[first, stop)``: the to-be-valid
        pages the buddy trees count."""
        base = self._base
        lo = max(first - base, 0)
        hi = min(stop - base, len(self._state))
        if lo >= hi:
            return 0
        return hi - lo - self._state.count(_INVALID, lo, hi)

    def invalid_among(self, pages: list[int]) -> list[int]:
        """The INVALID pages of ``pages``, in order."""
        return list(compress(pages, self._codes(pages).translate(
            _INVALID_MASK)))

    def valid_among(self, pages: list[int]) -> list[int]:
        """The VALID pages of ``pages``, in order."""
        return list(compress(pages, self._codes(pages).translate(
            _VALID_MASK)))

    def _codes(self, pages: list[int]) -> bytes:
        """State codes of ``pages``, gathered at C level when the window
        covers them all."""
        base = self._base
        state = self._state
        if pages and base <= min(pages) and max(pages) < base + len(state):
            return bytes(map(state.__getitem__, map(base.__rsub__, pages)))
        return bytes(map(self._code, pages))

    def dirty_pages(self, pages: list[int]) -> list[int]:
        """Subset of ``pages`` whose dirty flag is set."""
        base = self._base
        dirty = self._dirty
        size = len(dirty)
        return [page for page in pages
                if 0 <= page - base < size and dirty[page - base]]

    def migrating_count(self) -> int:
        """Number of MIGRATING pages (in flight; a C-level scan)."""
        return self._state.count(_MIGRATING)

    def check_valid_count(self) -> None:
        """Raise unless ``valid_count`` equals the number of VALID pages."""
        actual = self._state.count(_VALID)
        if actual != self._valid_count:
            raise PageTableError(
                f"valid_count={self._valid_count} but {actual} pages are "
                f"VALID"
            )
