"""The ``OrderedDict`` hierarchical LRU, kept as a test oracle.

:class:`repro.memory.lru.HierarchicalLRU` derives its order from
last-access stamps.  This is the structure it replaced: 2 MB chunks,
their 64 KB blocks and the blocks' pages as nested ``OrderedDict`` s,
each moved to the MRU end on insert or access.  Tests drive both with
the same operations and compare every order query.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict

from repro.errors import PolicyError
from repro.memory.addressing import AddressSpace, DEFAULT_ADDRESS_SPACE

_MISSING = object()


class _ChunkEntry:
    """Per-2MB-chunk ordering of basic blocks and their pages."""

    __slots__ = ("blocks",)

    def __init__(self) -> None:
        #: block index -> ordered set of resident pages in that block;
        #: OrderedDict order of *blocks* is LRU -> MRU.
        self.blocks: OrderedDict[int, OrderedDict[int, None]] = OrderedDict()

    @property
    def page_count(self) -> int:
        return sum(len(pages) for pages in self.blocks.values())


class OrderedHierarchicalLRU:
    """The hierarchical LRU as nested ``OrderedDict`` s: the oracle.

    The eviction candidate is the LRU block of the LRU chunk; the reservation
    skip is counted in *pages* from the LRU end, matching the paper's
    "reserve a percentage of pages from the top of LRU list".
    """

    def __init__(self, space: AddressSpace | None = None) -> None:
        self.space = space or DEFAULT_ADDRESS_SPACE
        # Geometry as plain ints: insert/touch run once per access.
        self._pages_per_block = self.space.pages_per_block
        self._pages_per_large_page = self.space.pages_per_large_page
        self._chunks: OrderedDict[int, _ChunkEntry] = OrderedDict()
        self._page_count = 0

    def __len__(self) -> int:
        return self._page_count

    def __contains__(self, page: int) -> bool:
        chunk = self._chunks.get(page // self._pages_per_large_page)
        if chunk is None:
            return False
        block_pages = chunk.blocks.get(page // self._pages_per_block)
        return block_pages is not None and page in block_pages

    # --- mutation ---------------------------------------------------------
    def insert(self, page: int) -> None:
        """Add a freshly validated page; refreshes chunk and block order."""
        chunk_id = page // self._pages_per_large_page
        block_id = page // self._pages_per_block
        chunk = self._chunks.get(chunk_id)
        if chunk is None:
            chunk = _ChunkEntry()
            self._chunks[chunk_id] = chunk
        else:
            self._chunks.move_to_end(chunk_id)
        block_pages = chunk.blocks.get(block_id)
        if block_pages is None:
            block_pages = OrderedDict()
            chunk.blocks[block_id] = block_pages
        else:
            chunk.blocks.move_to_end(block_id)
        if page in block_pages:
            block_pages.move_to_end(page)
        else:
            block_pages[page] = None
            self._page_count += 1

    def insert_run(self, first: int, stop: int) -> None:
        """:meth:`insert` for each page of ``[first, stop)``, ascending.

        Consecutive inserts into one block move its chunk and block to
        the MRU end once, so the run takes one chunk and block lookup per
        block it covers.
        """
        chunks = self._chunks
        per_block = self._pages_per_block
        page = first
        while page < stop:
            block_id = page // per_block
            end = min(stop, block_id * per_block + per_block)
            chunk_id = page // self._pages_per_large_page
            chunk = chunks.get(chunk_id)
            if chunk is None:
                chunk = chunks[chunk_id] = _ChunkEntry()
            else:
                chunks.move_to_end(chunk_id)
            block_pages = chunk.blocks.get(block_id)
            if block_pages is None:
                chunk.blocks[block_id] = OrderedDict.fromkeys(
                    range(page, end))
                self._page_count += end - page
            else:
                chunk.blocks.move_to_end(block_id)
                before = len(block_pages)
                block_pages.update(dict.fromkeys(range(page, end)))
                self._page_count += len(block_pages) - before
                if len(block_pages) - before != end - page:
                    # Some were present: they move to the MRU end too.
                    for present in range(page, end):
                        block_pages.move_to_end(present)
            page = end

    def touch(self, page: int) -> None:
        """Refresh a resident page's position on access.

        Same order as :meth:`insert` of a present page, in one lookup
        pass; an absent page raises before anything moves.  The page
        moves first: the three moves touch different dicts, and only the
        page's can fail once its chunk and block were found.
        """
        chunk_id = page // self._pages_per_large_page
        block_id = page // self._pages_per_block
        try:
            blocks = self._chunks[chunk_id].blocks
            blocks[block_id].move_to_end(page)
        except KeyError:
            raise PolicyError(
                f"page {page} not in hierarchical LRU") from None
        self._chunks.move_to_end(chunk_id)
        blocks.move_to_end(block_id)

    def remove(self, page: int) -> None:
        """Drop one page, pruning empty blocks/chunks."""
        chunk_id = page // self._pages_per_large_page
        block_id = page // self._pages_per_block
        chunk = self._chunks.get(chunk_id)
        if chunk is None:
            raise PolicyError(f"page {page} not in hierarchical LRU")
        block_pages = chunk.blocks.get(block_id)
        if block_pages is None or block_pages.pop(page, _MISSING) is _MISSING:
            raise PolicyError(f"page {page} not in hierarchical LRU")
        self._page_count -= 1
        if not block_pages:
            del chunk.blocks[block_id]
        if not chunk.blocks:
            del self._chunks[chunk_id]

    def remove_block(self, block_id: int) -> list[int]:
        """Drop every page of a basic block; returns the removed pages."""
        chunk_id = block_id // self.space.blocks_per_large_page
        chunk = self._chunks.get(chunk_id)
        if chunk is None:
            return []
        block_pages = chunk.blocks.pop(block_id, None)
        if block_pages is None:
            return []
        removed = list(block_pages)
        self._page_count -= len(removed)
        if not chunk.blocks:
            del self._chunks[chunk_id]
        return removed

    # --- candidate selection -------------------------------------------------
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
        for chunk in self._chunks.values():
            for block_id, block_pages in chunk.blocks.items():
                if remaining <= 0:
                    return block_id
                if boundary is None and remaining < len(block_pages):
                    boundary = block_id
                remaining -= len(block_pages)
        assert boundary is not None  # skip_pages < page_count guarantees it
        return boundary

    def victim_page(self, skip_pages: int = 0) -> int:
        """LRU page after skipping ``skip_pages`` protected pages."""
        if skip_pages < 0:
            raise PolicyError("skip_pages must be non-negative")
        remaining = skip_pages
        for chunk in self._chunks.values():
            for block_pages in chunk.blocks.values():
                if remaining < len(block_pages):
                    return next(
                        itertools.islice(block_pages, remaining, None)
                    )
                remaining -= len(block_pages)
        raise PolicyError(
            f"cannot skip {skip_pages} of {self._page_count} LRU pages"
        )

    def blocks_in_order(self) -> list[int]:
        """LRU-to-MRU block ids across all chunks (test helper)."""
        out: list[int] = []
        for chunk in self._chunks.values():
            out.extend(chunk.blocks)
        return out
