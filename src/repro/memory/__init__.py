"""Memory-system substrates: addressing, allocations, page table, TLB,
MSHRs, device frames, LRU lists, and the prefetcher's full binary trees."""

from .addressing import AddressSpace
from .allocation import AllocationSpec, ManagedAllocation, TreeRegion
from .allocator import ManagedAllocator
from .btree import BuddyTree
from .frames import FramePool
from .lru import FlatLRU, HierarchicalLRU
from .mshr import FarFaultMSHR
from .page import PageState
from .page_table import GpuPageTable
from .tlb import Tlb

__all__ = [
    "AddressSpace",
    "AllocationSpec",
    "ManagedAllocation",
    "TreeRegion",
    "ManagedAllocator",
    "BuddyTree",
    "FramePool",
    "FlatLRU",
    "HierarchicalLRU",
    "FarFaultMSHR",
    "PageState",
    "GpuPageTable",
    "Tlb",
]
