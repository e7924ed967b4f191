"""Per-page state tracked by the GPU page table."""

from __future__ import annotations

from enum import Enum

import numpy as np


class PageState(Enum):
    """Lifecycle of a 4 KB page from the GPU's point of view.

    INVALID    not resident; an access raises a far-fault.
    MIGRATING  a far-fault (or prefetch) scheduled a transfer; accesses merge
               into the existing MSHR entry instead of raising new faults.
    VALID      resident in device memory; valid flag set in the page table.
    """

    INVALID = "invalid"
    MIGRATING = "migrating"
    VALID = "valid"


#: The flag store grows in chunks of this many pages so neighbouring
#: allocations share one window.
_STORE_ALIGN = 1 << 16


class PageFlagStore:
    """Base-aligned numpy arrays holding the mutable per-page PTE fields.

    The per-access PTE state — valid/accessed/dirty bits and the
    last-access timestamp — lives in flat arrays indexed by
    ``page - base`` instead of python attributes, so the fast engine
    (:mod:`repro.core.fastpath`) can commit a whole deferred access span
    with a handful of vectorized scatters while scalar readers (the
    reference engine, policies, tests) go through
    :class:`PageTableEntry` properties and see ordinary attributes.
    The ``occupied`` bit (MIGRATING or VALID) mirrors the PTE state
    machine so range queries over INVALID pages take one slice instead
    of a per-page state lookup.

    Global page indices start near ``base_addr // page_size`` (~2^20 for
    the default 4 GiB VA base), so the store keeps its own base offset
    and grows geometrically in either direction on demand.  Growth
    reallocates the arrays; never cache an index across an ``ensure``.
    """

    __slots__ = ("base", "size", "valid", "occupied", "accessed", "dirty",
                 "last_access")

    def __init__(self) -> None:
        self.base = 0
        self.size = 0
        self.valid = np.zeros(0, dtype=bool)
        #: MIGRATING or VALID: the page is not a migration candidate.
        self.occupied = np.zeros(0, dtype=bool)
        self.accessed = np.zeros(0, dtype=bool)
        self.dirty = np.zeros(0, dtype=bool)
        self.last_access = np.zeros(0)

    def ensure(self, page: int) -> int:
        """Grow the window to cover ``page``; returns its current index."""
        size = self.size
        if size == 0:
            self.base = (page // _STORE_ALIGN) * _STORE_ALIGN
            self._alloc(_STORE_ALIGN, 0, 0)
            return page - self.base
        index = page - self.base
        if 0 <= index < size:
            return index
        grow_low = 0
        if index < 0:
            grow_low = max(size, -index)
            grow_low = ((grow_low + _STORE_ALIGN - 1) // _STORE_ALIGN) \
                * _STORE_ALIGN
        grow_high = 0
        if index >= size:
            grow_high = max(size, index - size + 1)
            grow_high = ((grow_high + _STORE_ALIGN - 1) // _STORE_ALIGN) \
                * _STORE_ALIGN
        self._alloc(grow_low + size + grow_high, grow_low, size)
        self.base -= grow_low
        return page - self.base

    def _alloc(self, new_size: int, offset: int, old_size: int) -> None:
        for name in ("valid", "occupied", "accessed", "dirty",
                     "last_access"):
            old = getattr(self, name)
            new = np.zeros(new_size, dtype=old.dtype)
            if old_size:
                new[offset:offset + old_size] = old
            setattr(self, name, new)
        self.size = new_size


class PageTableEntry:
    """One PTE of the GPU page table.

    ``accessed`` distinguishes demanded pages from prefetched-but-untouched
    pages; the SLe/TBNe design choice (Section 5.3) puts *all* valid pages in
    the LRU list, accessed or not.

    The mutable mark fields proxy into the owning table's
    :class:`PageFlagStore`, so scalar code keeps attribute semantics
    while batched code scatters into the arrays directly.
    """

    __slots__ = ("page", "state", "migration_count", "_store")

    def __init__(self, page: int, store: PageFlagStore) -> None:
        self.page = page
        self.state = PageState.INVALID
        #: How many times this page has been migrated; >1 means thrashing.
        self.migration_count = 0
        self._store = store
        store.ensure(page)

    @property
    def valid(self) -> bool:
        """True when the valid flag is set (page resident)."""
        return self.state is PageState.VALID

    @property
    def dirty(self) -> bool:
        return bool(self._store.dirty[self.page - self._store.base])

    @dirty.setter
    def dirty(self, value: bool) -> None:
        self._store.dirty[self.page - self._store.base] = value

    @property
    def accessed(self) -> bool:
        return bool(self._store.accessed[self.page - self._store.base])

    @accessed.setter
    def accessed(self, value: bool) -> None:
        self._store.accessed[self.page - self._store.base] = value

    @property
    def last_access_ns(self) -> float:
        """Simulated time (ns) of the most recent access (LRU bookkeeping)."""
        return float(self._store.last_access[self.page - self._store.base])

    @last_access_ns.setter
    def last_access_ns(self, value: float) -> None:
        self._store.last_access[self.page - self._store.base] = value

    def mark_access(self, time_ns: float, is_write: bool) -> None:
        """Record a read or write access to a valid page."""
        store = self._store
        index = self.page - store.base
        store.accessed[index] = True
        store.last_access[index] = time_ns
        if is_write:
            store.dirty[index] = True

    def reset_on_eviction(self) -> None:
        """Clear the flags when the page is evicted from device memory."""
        self.state = PageState.INVALID
        store = self._store
        index = self.page - store.base
        store.valid[index] = False
        store.occupied[index] = False
        store.dirty[index] = False
        store.accessed[index] = False

    def __repr__(self) -> str:
        return (f"PageTableEntry(page={self.page}, state={self.state}, "
                f"dirty={self.dirty}, accessed={self.accessed}, "
                f"last_access_ns={self.last_access_ns}, "
                f"migration_count={self.migration_count})")
