"""Fundamental size and timing constants of the simulated UVM system.

All sizes are in bytes and all times in nanoseconds unless a name says
otherwise.  The values mirror the configuration the paper reports for its
GPGPU-Sim/UVMSmart setup (Table 2) and the GeForce GTX 1080 Ti measurements
(Table 1).
"""

from __future__ import annotations

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

#: Small page size used by on-demand migration (NVIDIA UVM uses 4 KB pages).
PAGE_SIZE = 4 * KIB

#: Basic block: the prefetch/eviction unit of SLp/SLe/TBNp/TBNe.
BASIC_BLOCK_SIZE = 64 * KIB

#: Large page: the root granularity of the prefetcher's full binary trees.
LARGE_PAGE_SIZE = 2 * MIB

#: 4 KB pages per 64 KB basic block.
PAGES_PER_BLOCK = BASIC_BLOCK_SIZE // PAGE_SIZE

#: 64 KB basic blocks per 2 MB large page.
BLOCKS_PER_LARGE_PAGE = LARGE_PAGE_SIZE // BASIC_BLOCK_SIZE

#: 4 KB pages per 2 MB large page.
PAGES_PER_LARGE_PAGE = LARGE_PAGE_SIZE // PAGE_SIZE

#: GPU core clock of the simulated Pascal-class part (Table 2), in Hz.
CORE_CLOCK_HZ = 1_481_000_000

#: Nanoseconds per GPU core cycle.
NS_PER_CYCLE = 1e9 / CORE_CLOCK_HZ

#: Far-fault handling latency measured on GTX 1080 Ti (Section 6.1), ns.
FAULT_HANDLING_LATENCY_NS = 45_000.0

#: Page-table walk latency (Table 2), in core cycles.
PAGE_TABLE_WALK_CYCLES = 100

#: TLB lookup latency (Section 6.1: single-cycle fully associative TLB).
TLB_LOOKUP_CYCLES = 1

#: Paper Table 1 — measured PCI-e 3.0 x16 read bandwidth per transfer size.
#: Mapping of transfer size in bytes -> bandwidth in bytes/second.
PCIE_MEASURED_BANDWIDTH = {
    4 * KIB: 3.2219e9,
    16 * KIB: 6.4437e9,
    64 * KIB: 8.4771e9,
    256 * KIB: 10.508e9,
    1024 * KIB: 11.223e9,
}

#: Number of streaming multiprocessors (Table 2: 28 SMs).
DEFAULT_NUM_SMS = 28

#: CUDA cores per SM (Table 2: 128) — used only for documentation/presets.
CORES_PER_SM = 128

