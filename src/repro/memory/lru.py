"""LRU bookkeeping structures used by the eviction policies.

Three structures are provided:

* :class:`FlatLRU` — the classic 4 KB page LRU list (Section 4.2).
* :class:`HierarchicalLRU` — the Section 5.3 design choice for SLe/TBNe:
  pages are sorted first at 2 MB large-page level by the chunk's last access
  and then, within the chunk, by 64 KB basic-block last access.  All *valid*
  pages are present, including prefetched-but-never-accessed ones.
* :class:`RandomMembership` — O(1) uniform sampling with removal, for the
  random eviction baseline.

Both LRU structures support the Section 7.4 optimization of *reserving* a
number of pages at the head (least-recently-used end) of the list so they
are skipped when choosing eviction candidates.
"""

from __future__ import annotations

import itertools
import random
from collections import OrderedDict
from heapq import heapify, heappop

from ..errors import PolicyError
from .addressing import AddressSpace, DEFAULT_ADDRESS_SPACE
from .page_table import PageStamps

_MISSING = object()


class FlatLRU:
    """Ordered set of resident pages; head = least recently used."""

    def __init__(self) -> None:
        self._pages: OrderedDict[int, None] = OrderedDict()

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, page: int) -> bool:
        return page in self._pages

    def insert(self, page: int) -> None:
        """Add a page at the MRU end (also used on re-validation)."""
        if page in self._pages:
            self._pages.move_to_end(page)
        else:
            self._pages[page] = None

    def touch(self, page: int) -> None:
        """Move an already-present page to the MRU end."""
        try:
            self._pages.move_to_end(page)
        except KeyError:
            raise PolicyError(f"page {page} not in LRU list") from None

    def remove(self, page: int) -> None:
        """Drop a page (it was evicted or invalidated)."""
        if self._pages.pop(page, _MISSING) is _MISSING:
            raise PolicyError(f"page {page} not in LRU list")

    def victim(self, skip: int = 0) -> int:
        """The eviction candidate after skipping ``skip`` protected pages.

        ``skip`` implements the LRU-head reservation: the ``skip`` least
        recently used pages are never chosen.
        """
        if skip < 0:
            raise PolicyError("skip must be non-negative")
        if skip >= len(self._pages):
            raise PolicyError(
                f"cannot skip {skip} of {len(self._pages)} LRU pages"
            )
        return next(itertools.islice(self._pages, skip, None))

    def pages_in_order(self) -> list[int]:
        """LRU-to-MRU page list (test helper)."""
        return list(self._pages)


class HierarchicalLRU:
    """Two-level LRU: 2 MB chunks ordered globally, 64 KB blocks within.

    The eviction candidate is the LRU block of the LRU chunk; the reservation
    skip is counted in *pages* from the LRU end, matching the paper's
    "reserve a percentage of pages from the top of LRU list".

    Recency is kept as stamps (:class:`~repro.memory.page_table.PageStamps`):
    every insert or access stamps the page, its block and its chunk with
    the next value of one clock, so an access is three list stores.  The
    order is derived only when a victim is asked for: resident chunks
    sorted by chunk stamp, each chunk's blocks by block stamp, a block's
    pages by page stamp.  That is the order of a list kept by last access,
    as GPGPU-Sim's ``page_manager`` keeps it: a chunk or block moves to
    the MRU end whenever one of its pages is inserted or accessed, and
    removing pages moves nothing.  Block and chunk stamps are never
    cleared; a block or chunk that empties and comes back is stamped
    anew, past every live stamp.

    Membership is a dict of chunk -> block -> resident-page count; a page
    is a member exactly when its stamp is non-zero.  The stamps are the
    page table's when ``stamps`` is given (the issue loop may then stamp
    them inline, see :meth:`~repro.policy.base.Policy.access_hook`),
    else a store of this LRU's own.
    """

    def __init__(self, space: AddressSpace | None = None,
                 stamps: PageStamps | None = None) -> None:
        self.space = space or DEFAULT_ADDRESS_SPACE
        self.stamps = stamps if stamps is not None \
            else PageStamps(self.space)
        # Geometry as plain ints: insert/touch run once per access.
        self._pages_per_block = self.space.pages_per_block
        self._pages_per_large_page = self.space.pages_per_large_page
        self._blocks_per_large_page = self.space.blocks_per_large_page
        #: chunk -> block -> resident pages of the block.
        self._chunks: dict[int, dict[int, int]] = {}
        self._page_count = 0

    def __len__(self) -> int:
        return self._page_count

    def __contains__(self, page: int) -> bool:
        stamps = self.stamps
        index = page - stamps.base
        return 0 <= index < len(stamps.page) and stamps.page[index] != 0

    # --- mutation ---------------------------------------------------------
    def _join(self, chunk_id: int, block_id: int, count: int) -> None:
        """Count ``count`` new member pages in a block."""
        blocks = self._chunks.get(chunk_id)
        if blocks is None:
            self._chunks[chunk_id] = {block_id: count}
        else:
            blocks[block_id] = blocks.get(block_id, 0) + count
        self._page_count += count

    def insert(self, page: int) -> None:
        """Add a freshly validated page; refreshes chunk and block order."""
        stamps = self.stamps
        index = page - stamps.base
        if not 0 <= index < len(stamps.page):
            stamps.cover(page)
            index = page - stamps.base
        chunk_id = page // self._pages_per_large_page
        block_id = page // self._pages_per_block
        if not stamps.page[index]:
            self._join(chunk_id, block_id, 1)
        clock = stamps.clock = stamps.clock + 1
        stamps.page[index] = stamps.block[block_id - stamps.block_base] = \
            stamps.chunk[chunk_id - stamps.chunk_base] = clock

    def insert_run(self, first: int, stop: int) -> None:
        """:meth:`insert` for each page of ``[first, stop)``, ascending.

        The pages take consecutive stamps; the block and chunk of each
        block-sized piece take its last one, so the run costs a slice
        store per block it covers.
        """
        stamps = self.stamps
        if not (0 <= first - stamps.base
                and stop - stamps.base <= len(stamps.page)):
            stamps.cover(first)
            stamps.cover(stop - 1)
        per_block = self._pages_per_block
        per_chunk = self._pages_per_large_page
        page_stamps = stamps.page
        block_stamps = stamps.block
        chunk_stamps = stamps.chunk
        base = stamps.base
        block_base = stamps.block_base
        chunk_base = stamps.chunk_base
        clock = stamps.clock
        page = first
        while page < stop:
            block_id = page // per_block
            end = min(stop, block_id * per_block + per_block)
            lo = page - base
            hi = end - base
            new = page_stamps[lo:hi].count(0)
            if new:
                self._join(page // per_chunk, block_id, new)
            page_stamps[lo:hi] = range(clock + 1, clock + 1 + hi - lo)
            clock += hi - lo
            block_stamps[block_id - block_base] = \
                chunk_stamps[page // per_chunk - chunk_base] = clock
            page = end
        stamps.clock = clock

    def touch(self, page: int) -> None:
        """Refresh a resident page's position on access.

        Same order as :meth:`insert` of a present page; an absent page
        raises before anything is stamped.
        """
        stamps = self.stamps
        index = page - stamps.base
        if not (0 <= index < len(stamps.page) and stamps.page[index]):
            raise PolicyError(f"page {page} not in hierarchical LRU")
        clock = stamps.clock = stamps.clock + 1
        stamps.page[index] = \
            stamps.block[page // self._pages_per_block - stamps.block_base] \
            = stamps.chunk[page // self._pages_per_large_page
                           - stamps.chunk_base] = clock

    def touch_many(self, pages) -> None:
        """:meth:`touch` for each of ``pages``, in order: the fast
        engine's flush, in last-access order."""
        stamps = self.stamps
        page_stamps = stamps.page
        block_stamps = stamps.block
        chunk_stamps = stamps.chunk
        base = stamps.base
        size = len(page_stamps)
        block_base = stamps.block_base
        chunk_base = stamps.chunk_base
        per_block = self._pages_per_block
        per_chunk = self._pages_per_large_page
        clock = stamps.clock
        for page in pages:
            index = page - base
            if not (0 <= index < size and page_stamps[index]):
                stamps.clock = clock
                raise PolicyError(f"page {page} not in hierarchical LRU")
            clock += 1
            page_stamps[index] = block_stamps[page // per_block - block_base] \
                = chunk_stamps[page // per_chunk - chunk_base] = clock
        stamps.clock = clock

    def remove(self, page: int) -> None:
        """Drop one page, pruning empty blocks/chunks."""
        if page not in self:
            raise PolicyError(f"page {page} not in hierarchical LRU")
        stamps = self.stamps
        stamps.page[page - stamps.base] = 0
        chunk_id = page // self._pages_per_large_page
        block_id = page // self._pages_per_block
        blocks = self._chunks[chunk_id]
        left = blocks[block_id] - 1
        if left:
            blocks[block_id] = left
        else:
            del blocks[block_id]
            if not blocks:
                del self._chunks[chunk_id]
        self._page_count -= 1

    def remove_block(self, block_id: int) -> list[int]:
        """Drop every page of a basic block; returns the removed pages,
        least recently used first."""
        chunk_id = block_id // self._blocks_per_large_page
        blocks = self._chunks.get(chunk_id)
        if blocks is None or block_id not in blocks:
            return []
        self._page_count -= blocks.pop(block_id)
        if not blocks:
            del self._chunks[chunk_id]
        removed, lo, hi = self._block_pages(block_id)
        self.stamps.page[lo:hi] = [0] * (hi - lo)
        return removed

    def _block_pages(self, block_id: int) -> tuple[list[int], int, int]:
        """A member block's pages in stamp order, and the ``[lo, hi)``
        slice of the page stamps that holds the block."""
        stamps = self.stamps
        first = block_id * self._pages_per_block
        lo = max(first - stamps.base, 0)
        hi = min(first + self._pages_per_block - stamps.base,
                 len(stamps.page))
        by_stamp = dict(zip(stamps.page[lo:hi],
                            range(stamps.base + lo, stamps.base + hi)))
        by_stamp.pop(0, None)
        return [by_stamp[stamp] for stamp in sorted(by_stamp)], lo, hi

    # --- candidate selection -------------------------------------------------
    def _blocks_lru_first(self):
        """``(block, resident pages)`` from the LRU end: chunks by chunk
        stamp, each chunk's blocks by block stamp (stamps are unique).

        The chunks come off a heap, so the first victim costs one pass
        over the resident chunks, not a sort of them.
        """
        stamps = self.stamps
        chunk_stamps, chunk_base = stamps.chunk, stamps.chunk_base
        block_stamps, block_base = stamps.block, stamps.block_base
        chunks = [(chunk_stamps[chunk - chunk_base], blocks)
                  for chunk, blocks in self._chunks.items()]
        heapify(chunks)
        while chunks:
            blocks = heappop(chunks)[1]
            for _, block_id, count in sorted(
                    [(block_stamps[block - block_base], block, count)
                     for block, count in blocks.items()]):
                yield block_id, count

    def victim_block(self, skip_pages: int = 0) -> int:
        """LRU basic block after skipping ``skip_pages`` protected pages.

        Whole-block protection: because eviction removes *entire* basic
        blocks (``remove_block``), a block that contains any of the
        ``skip_pages`` least-recently-used pages is protected as a whole
        and the candidate is the first block past the reservation
        boundary.  (Returning the boundary block itself — the previous
        behaviour — let ``remove_block`` evict pages the Section 7.4
        reservation had promised to keep.)  When the reservation cuts
        into the last block so that no block is fully unprotected, the
        boundary block is returned anyway: partial protection of the
        MRU-most block is the only alternative to deadlocking the
        eviction path.
        """
        if skip_pages < 0:
            raise PolicyError("skip_pages must be non-negative")
        if skip_pages >= self._page_count:
            raise PolicyError(
                f"cannot skip {skip_pages} of {self._page_count} LRU pages"
            )
        remaining = skip_pages
        boundary: int | None = None
        for block_id, count in self._blocks_lru_first():
            if remaining <= 0:
                return block_id
            if boundary is None and remaining < count:
                boundary = block_id
            remaining -= count
        assert boundary is not None  # skip_pages < page_count guarantees it
        return boundary

    def victim_page(self, skip_pages: int = 0) -> int:
        """LRU page after skipping ``skip_pages`` protected pages."""
        if skip_pages < 0:
            raise PolicyError("skip_pages must be non-negative")
        remaining = skip_pages
        for block_id, count in self._blocks_lru_first():
            if remaining < count:
                return self._block_pages(block_id)[0][remaining]
            remaining -= count
        raise PolicyError(
            f"cannot skip {skip_pages} of {self._page_count} LRU pages"
        )

    def blocks_in_order(self) -> list[int]:
        """LRU-to-MRU block ids across all chunks (test helper)."""
        return [block_id for block_id, _ in self._blocks_lru_first()]

    def pages_in_order(self) -> list[int]:
        """LRU-to-MRU page list (test helper)."""
        return [page for block_id, _ in self._blocks_lru_first()
                for page in self._block_pages(block_id)[0]]


class RandomMembership:
    """Set with O(1) insert, remove, and uniform random sampling."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._items: list[int] = []
        self._positions: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: int) -> bool:
        return item in self._positions

    def insert(self, item: int) -> None:
        if item in self._positions:
            return
        self._positions[item] = len(self._items)
        self._items.append(item)

    def remove(self, item: int) -> None:
        pos = self._positions.pop(item, None)
        if pos is None:
            raise PolicyError(f"item {item} not present")
        last = self._items.pop()
        if last != item:
            self._items[pos] = last
            self._positions[last] = pos

    def sample(self) -> int:
        """Uniformly random member (without removal)."""
        if not self._items:
            raise PolicyError("cannot sample from an empty set")
        return self._rng.choice(self._items)
