"""Per-page state tracked by the GPU page table."""

from __future__ import annotations

from enum import Enum


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


#: Per-page windows grow in chunks of this many pages so neighbouring
#: allocations share one window.
WINDOW_ALIGN = 1 << 16


def grown_window(base: int, size: int, page: int) -> tuple[int, int, int]:
    """The window a flat per-page array grows to so it covers ``page``.

    Global page indices start near ``base_addr // page_size`` (~2^20 for
    the default 4 GiB VA base), so per-page arrays index by
    ``page - base`` over a window of ``size`` pages.  An empty window
    starts at ``page`` rounded down to the alignment; otherwise the window
    at least doubles towards ``page``, in chunk multiples.  Returns
    ``(new_base, new_size, offset)``: the old contents belong at
    ``[offset, offset + size)`` of the new array.
    """
    if size == 0:
        return (page // WINDOW_ALIGN) * WINDOW_ALIGN, WINDOW_ALIGN, 0
    index = page - base
    grow_low = grow_high = 0
    if index < 0:
        grow_low = -(-max(size, -index) // WINDOW_ALIGN) * WINDOW_ALIGN
    elif index >= size:
        grow_high = -(-max(size, index - size + 1) // WINDOW_ALIGN) \
            * WINDOW_ALIGN
    return base - grow_low, grow_low + size + grow_high, grow_low
