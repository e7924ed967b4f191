"""Virtual-address-space allocator for managed allocations.

Models the placement side of ``cudaMallocManaged``: every allocation is
2 MB aligned (so the prefetcher trees never straddle allocations) and the
reserved extent covers the tree-rounded size.
"""

from __future__ import annotations

from ..errors import AddressError, AllocationError
from .addressing import AddressSpace, DEFAULT_ADDRESS_SPACE
from .allocation import ManagedAllocation


class ManagedAllocator:
    """Hands out non-overlapping, 2 MB-aligned managed allocations."""

    #: Leave a large-page gap between allocations so an off-by-one access
    #: can never silently land in a neighbouring buffer.
    GUARD_LARGE_PAGES = 1

    def __init__(self, space: AddressSpace | None = None,
                 base_addr: int = 0x1_0000_0000) -> None:
        self.space = space or DEFAULT_ADDRESS_SPACE
        if base_addr % self.space.large_page_size:
            raise AllocationError("allocator base must be 2MB aligned")
        self._next_addr = base_addr
        self._allocations: dict[str, ManagedAllocation] = {}
        #: Allocations sorted by base address, for address lookups.
        self._ordered: list[ManagedAllocation] = []

    def malloc_managed(self, name: str, size_bytes: int) -> ManagedAllocation:
        """Create a managed allocation; names must be unique."""
        if name in self._allocations:
            raise AllocationError(f"allocation {name!r} already exists")
        alloc = ManagedAllocation(name, self._next_addr, size_bytes,
                                  self.space)
        self._allocations[name] = alloc
        self._ordered.append(alloc)
        guard = self.GUARD_LARGE_PAGES * self.space.large_page_size
        self._next_addr = self.space.align_up(
            alloc.end_addr + guard, self.space.large_page_size
        )
        return alloc

    def free(self, name: str) -> None:
        """Drop an allocation (its VA range is not recycled)."""
        alloc = self._allocations.pop(name, None)
        if alloc is None:
            raise AllocationError(f"no allocation named {name!r}")
        self._ordered.remove(alloc)

    def get(self, name: str) -> ManagedAllocation:
        """Look an allocation up by name."""
        try:
            return self._allocations[name]
        except KeyError:
            raise AllocationError(f"no allocation named {name!r}") from None

    def allocation_of(self, addr: int) -> ManagedAllocation:
        """The allocation whose requested extent contains ``addr``."""
        for alloc in self._ordered:
            if alloc.contains(addr):
                return alloc
        raise AddressError(f"address 0x{addr:x} is not managed")

    def allocation_of_reserved(self, addr: int) -> ManagedAllocation:
        """Like :meth:`allocation_of` but accepts tree-padding addresses.

        The prefetcher trees cover the *rounded* extent; balancing decisions
        can name basic blocks past the requested bytes, which still belong
        to the allocation's reserved range.
        """
        for alloc in self._ordered:
            if alloc.base_addr <= addr < alloc.end_addr:
                return alloc
        raise AddressError(f"address 0x{addr:x} is not reserved")

    def allocation_of_page(self, page: int) -> ManagedAllocation:
        """The allocation containing global page index ``page``."""
        return self.allocation_of(self.space.page_address(page))

    @property
    def allocations(self) -> list[ManagedAllocation]:
        """All live allocations in creation order."""
        return list(self._allocations.values())

    @property
    def total_pages(self) -> int:
        """Total 4 KB pages across requested extents."""
        return sum(a.num_pages for a in self._allocations.values())
