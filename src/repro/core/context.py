"""Shared state handed to prefetch and eviction policies.

The :class:`UvmContext` is the GMMU-side view of the world: page table,
allocations, frame pool, per-step buddy-tree views, configuration, RNG, and
statistics.  Policies read it (the tree-based ones balance the views); the
driver owns the transfer scheduling around it.
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Iterable

from ..config import SimulatorConfig
from ..errors import PolicyError
from ..memory.addressing import AddressSpace
from ..memory.allocator import ManagedAllocator
from ..memory.btree import BuddyTree
from ..memory.frames import FramePool
from ..memory.page_table import GpuPageTable
from ..stats import SimStats


class UvmContext:
    """Everything a policy may consult when planning."""

    def __init__(self, config: SimulatorConfig, space: AddressSpace,
                 allocator: ManagedAllocator, page_table: GpuPageTable,
                 frames: FramePool, stats: SimStats) -> None:
        self.config = config
        self.space = space
        self.allocator = allocator
        self.page_table = page_table
        self.frames = frames
        self.stats = stats
        self.rng = random.Random(config.seed)
        #: block index -> the tree view covering it, for one driver step.
        self._views: dict[int, BuddyTree] = {}
        #: 2MB chunk index -> allocation name (allocations are 2MB aligned
        #: with guard gaps, so a chunk belongs to at most one allocation).
        self._alloc_name_by_chunk: dict[int, str] = {}

    # --- buddy trees ---------------------------------------------------------
    def tree_for_block(self, block: int) -> BuddyTree:
        """The buddy-tree view covering basic block ``block``.

        A view of the page table's to-be-valid (VALID or MIGRATING) pages
        that lasts for one driver step: built on first use, changed only
        by the tree-based planners, dropped once the step's plan applies.
        """
        tree = self._views.get(block)
        if tree is not None:
            return tree
        addr = self.space.block_address(block)
        alloc = self.allocator.allocation_of_reserved(addr)
        tree = BuddyTree(alloc.tree_for(addr),
                         threshold=self.config.tbn_threshold,
                         page_size=self.config.page_size)
        blocks = range(tree.first_block, tree.first_block + tree.num_blocks)
        n = self.space.pages_per_block
        count = self.page_table.resident_count
        tree.fill([count(b * n, b * n + n) * self.config.page_size
                   for b in blocks])
        for covered in blocks:
            self._views[covered] = tree
        return tree

    def tree_for_page(self, page: int) -> BuddyTree:
        """The buddy-tree view covering 4 KB page ``page``."""
        return self.tree_for_block(self.space.block_of_page(page))

    def all_trees(self) -> list[BuddyTree]:
        """Every tree view alive in this step (diagnostics/tests)."""
        return list(dict.fromkeys(self._views.values()))

    def drop_tree_views(self) -> None:
        """Forget every view: the page table now holds the step's plan."""
        self._views.clear()

    def adjust_trees_for_pages(self, pages: list[int], sign: int) -> None:
        """Add (+1) or remove (-1) ``pages`` in their trees' views.

        The page-level writer the tree-based planners use for the
        blocks they chose: TBNp adds a faulted block, TBNe removes its
        victim.
        """
        if sign not in (1, -1):
            raise PolicyError("sign must be +1 or -1")
        per_block: dict[int, int] = {}
        for page in pages:
            block = self.space.block_of_page(page)
            per_block[block] = per_block.get(block, 0) + 1
        for block, count in per_block.items():
            tree = self.tree_for_block(block)
            tree.adjust_block(block, sign * count * self.config.page_size)

    # --- page helpers ----------------------------------------------------------
    def migratable_pages_in_block(self, block: int) -> list[int]:
        """INVALID pages of ``block`` within the allocation's requested
        extent — the pages a prefetcher may still pull in.

        Blocks lying wholly in an allocation's tree padding (rounded but
        never requested) yield an empty list.
        """
        requested = self.allocator.allocation_of_reserved(
            self.space.block_address(block)
        ).page_range
        pages = self.space.pages_in_block(block)
        return self.page_table.invalid_pages_in_range(
            max(pages.start, requested.start),
            min(pages.stop, requested.stop))

    def allocation_name_of_page(self, page: int) -> str:
        """Name of the allocation owning ``page`` (chunk-cached)."""
        chunk = self.space.large_page_of_page(page)
        name = self._alloc_name_by_chunk.get(chunk)
        if name is None:
            alloc = self.allocator.allocation_of_reserved(
                self.space.page_address(page)
            )
            name = alloc.name
            self._alloc_name_by_chunk[chunk] = name
        return name

    def allocation_page_counts(self, pages: Iterable[int]) -> Counter[str]:
        """Page counts per owning allocation, in first-seen page order."""
        return Counter(map(self.allocation_name_of_page, pages))

    def block_fully_invalid(self, block: int) -> bool:
        """True when no page of ``block`` is valid or in flight.

        SLp/TBNp "rely on contiguous invalid pages of 64KB basic block size"
        (Section 4.2): a block that 4 KB-granularity eviction left partially
        valid is not a prefetch candidate.
        """
        pages = self.space.pages_in_block(block)
        return not self.page_table.resident_count(pages.start, pages.stop)

    def requested_pages_in_large_page(self, page: int) -> range:
        """Pages of the allocation's requested extent that share ``page``'s
        2 MB large page (the random prefetcher's candidate pool)."""
        alloc = self.allocator.allocation_of_page(page)
        chunk = self.space.large_page_of_page(page)
        chunk_pages = self.space.pages_in_large_page(chunk)
        first = max(chunk_pages[0], alloc.page_range[0])
        last = min(chunk_pages[-1], alloc.page_range[-1])
        return range(first, last + 1)

    @property
    def reservation_skip(self) -> int:
        """Pages protected at the LRU head, from the configured fraction.

        Computed against the current resident page count so 10% always
        means 10% of what is evictable right now (Section 7.4).
        """
        frac = self.config.lru_reservation_fraction
        if frac <= 0.0:
            return 0
        return int(frac * self.page_table.valid_count)
