"""Microbenchmarks of the core data structures.

Unlike the experiment benches (one-shot, shape-asserting), these use
pytest-benchmark's normal multi-round timing: they guard the hot paths the
whole-simulation runtime depends on — tree balancing, hierarchical LRU
maintenance, MSHR traffic, page-table run transitions, TLB lookups and
miss fills, the reference engine's per-access tail, the block evictors'
recency stamps and victim query, the PCI-e schedule and the bandwidth
model.
"""

import random

import pytest

from repro import constants
from repro.config import SimulatorConfig
from repro.core.engine import Simulator
from repro.interconnect.bandwidth import BandwidthModel
from repro.memory.addressing import AddressSpace
from repro.memory.allocation import TreeRegion
from repro.memory.btree import BuddyTree
from repro.memory.lru import FlatLRU, HierarchicalLRU
from repro.memory.mshr import FarFaultMSHR
from repro.memory.page_table import GpuPageTable
from repro.memory.tlb import Tlb

KB64 = constants.BASIC_BLOCK_SIZE
SPACE = AddressSpace()


def test_perf_tree_fill_and_balance(benchmark):
    """One full fill/evict cycle over a 2MB tree (32 blocks)."""

    def cycle():
        tree = BuddyTree(TreeRegion(0, 32, KB64))
        filled = set()
        for block in range(32):
            if block in filled:
                continue
            tree.adjust_block(block, KB64 - tree.leaf_valid_bytes(block))
            filled.add(block)
            filled.update(tree.balance_after_fill(block))
        for block in range(32):
            valid = tree.leaf_valid_bytes(block)
            if valid:
                tree.adjust_block(block, -valid)
                tree.balance_after_evict(block)
        return tree.root_valid_bytes

    assert benchmark(cycle) == 0


def test_perf_hierarchical_lru_churn(benchmark):
    """Insert/touch/evict traffic over 4K pages across 8 chunks."""
    pages = list(range(4096))
    rng = random.Random(0)
    sample = [rng.choice(pages) for _ in range(2000)]

    def churn():
        lru = HierarchicalLRU()
        for page in pages:
            lru.insert(page)
        for page in sample:
            lru.touch(page)
        removed = 0
        while len(lru) > 2048:
            block = lru.victim_block()
            removed += len(lru.remove_block(block))
        return removed

    assert benchmark(churn) == 2048


def test_perf_flat_lru_victim_scan(benchmark):
    """Victim selection with a reservation skip over 10K pages."""
    lru = FlatLRU()
    for page in range(10_000):
        lru.insert(page)

    def pick():
        return lru.victim(skip=1000)

    assert benchmark(pick) == 1000


def test_perf_mshr_register_complete(benchmark):
    """Register + merge + complete for 512 pages."""

    def traffic():
        mshr = FarFaultMSHR(1024)
        for page in range(512):
            mshr.register_fault(page, None, 0.0)
            mshr.register_fault(page, "warp", 0.0)  # merge
        woken = 0
        for page in range(512):
            woken += len(mshr.complete_many(range(page, page + 1)))
        return woken

    assert benchmark(traffic) == 512


def test_perf_mshr_bulk_register_complete(benchmark):
    """One 512-page plan: bulk register past 16 faulted entries, then
    complete it as 32 sixteen-page groups."""
    faulted = range(0, 512, 32)
    groups = [range(i, i + 16) for i in range(0, 512, 16)]

    def traffic():
        mshr = FarFaultMSHR(1024)
        for page in faulted:
            mshr.register_fault(page, "warp", 0.0)
        mshr.register_many(groups)
        woken = 0
        for group in groups:
            woken += len(mshr.complete_many(group))
        return woken

    assert benchmark(traffic) == 16


@pytest.mark.parametrize("file", ["counted", "per-page"])
def test_perf_mshr_prefetch_group(benchmark, file):
    """Register and complete one 512-page prefetch group with a warp
    waiting on its first page: ``counted`` is the MSHR file (entries for
    waited-on pages only), ``per-page`` the file it replaced (an entry
    per in-flight page), kept in ``tests/per_page_mshr.py``."""
    from tests.per_page_mshr import PerPageMSHR

    group = range(512)

    def counted():
        mshr = FarFaultMSHR(1024)
        mshr.register_fault(0, "warp", 0.0)
        mshr.register_many([group])
        return mshr.complete_many(group)

    def per_page():
        mshr = PerPageMSHR(1024)
        mshr.register(0, "warp", 0.0)
        mshr.register_many(list(group), 0.0)
        return mshr.complete_many(list(group))

    assert benchmark(counted if file == "counted" else per_page) == ["warp"]


@pytest.mark.parametrize("fill", ["inline", "gmmu"])
def test_perf_tlb_miss_fill(benchmark, fill):
    """2K TLB misses on VALID pages into a 16-entry TLB (every fill
    evicts): ``inline`` is the issue loop's view test and LRU fill,
    ``gmmu`` the ``Gmmu.handle_tlb_miss`` call it replaces."""
    sim = Simulator(SimulatorConfig(tlb_entries=16))
    table = sim.page_table
    table.begin_migration_runs([(0, 4096)])
    table.complete_migration_run(0, 4096)
    sm = sim.sms[0]
    rng = random.Random(5)
    misses = [rng.randrange(4096) for _ in range(2000)]

    def inline():
        entries = sm.tlb._entries
        entries.clear()
        capacity = sm.tlb.capacity
        base, state, _, valid = table.access_view()
        size = len(state)
        fills = 0
        for page in misses:
            index = page - base
            if 0 <= index < size and state[index] == valid:
                fills += 1
                if len(entries) >= capacity:
                    entries.popitem(last=False)
                entries[page] = None
        return fills

    def gmmu():
        sm.tlb.flush()
        handle = sim.gmmu.handle_tlb_miss
        return sum(handle(sm, None, page, 0.0) for page in misses)

    assert benchmark(inline if fill == "inline" else gmmu) == len(misses)
    assert len(sm.tlb) == 16


@pytest.mark.parametrize("run_pages", [1, 8, 512])
def test_perf_page_table_run_transitions(benchmark, run_pages):
    """Begin, complete and invalidate 512 pages as runs of ``run_pages``
    (1 is a one-page transfer group, the on-demand srad case)."""
    first = 1 << 20
    runs = [(page, page + run_pages)
            for page in range(first, first + 512, run_pages)]
    pt = GpuPageTable()

    def cycle():
        pt.begin_migration_runs(runs)
        thrashed = 0
        for start, stop in runs:
            thrashed += pt.complete_migration_run(start, stop)
        for start, stop in runs:
            pt.invalidate_pages(list(range(start, stop)))
        return thrashed

    benchmark(cycle)
    assert pt.valid_count == 0


def test_perf_tlb_lookup_storm(benchmark):
    """1K lookups against a 512-entry TLB with 60% locality."""
    tlb = Tlb(512)
    rng = random.Random(1)
    stream = [rng.randrange(800) for _ in range(1000)]

    def storm():
        hits = 0
        for page in stream:
            if tlb.lookup(page):
                hits += 1
            else:
                tlb.insert(page)
        return hits

    assert benchmark(storm) >= 0


@pytest.mark.parametrize("eviction", ["tbn", "lru4k"])
@pytest.mark.parametrize("tail", ["calls", "hook"])
def test_perf_access_tail(benchmark, eviction, tail):
    """What the reference engine does per retired access, 2K accesses
    (30% writes) over 4K valid pages: ``calls`` is ``mark_access`` plus
    ``on_accessed``; ``hook`` marks through the page table's access view
    and touches through the policy's ``access_hook``, or stamps inline
    where the hook opts into stamps.  ``tbn`` runs the hierarchical LRU
    (stamped inline), ``lru4k`` the flat one."""
    sim = Simulator(SimulatorConfig(eviction=eviction))
    ctx = sim.ctx
    table = sim.page_table
    policy = sim.driver.eviction
    pages = list(range(4096))
    table.begin_migration_runs([(0, 4096)])
    table.complete_migration_run(0, 4096)
    policy.on_validated_many(pages, ctx)
    rng = random.Random(2)
    stream = [(rng.choice(pages), rng.random() < 0.3) for _ in range(2000)]
    mark_access = table.mark_access

    def calls():
        on_accessed = policy.on_accessed
        for page, is_write in stream:
            mark_access(page, is_write)
            on_accessed(page, ctx)

    def hook():
        base, state, dirty, valid = table.access_view()
        size = len(state)
        touch = policy.access_hook(ctx)
        if touch is None:
            stamps = table.stamps
            stamp, block_stamp, chunk_stamp = \
                stamps.page, stamps.block, stamps.chunk
            block_shift, chunk_shift = stamps.block_shift, stamps.chunk_shift
            seq = stamps.clock
        for page, is_write in stream:
            index = page - base
            if 0 <= index < size and state[index] == valid:
                if is_write:
                    dirty[index] = 1
            else:
                mark_access(page, is_write)
            if touch is None:
                if not stamp[index]:
                    raise AssertionError(page)
                seq += 1
                stamp[index] = block_stamp[index >> block_shift] = \
                    chunk_stamp[index >> chunk_shift] = seq
            else:
                touch(page)
        if touch is None:
            stamps.clock = seq

    benchmark(calls if tail == "calls" else hook)
    assert policy.evictable_pages() == 4096


@pytest.mark.parametrize("tail", ["stamps", "touch"])
def test_perf_recency_tail(benchmark, tail):
    """The block evictors' recency per access, 2K accesses over 4K
    resident pages: ``stamps`` is the issue loop's three inline list
    stores, ``touch`` the checked ``HierarchicalLRU.touch`` call."""
    table = GpuPageTable()
    table.begin_migration_runs([(0, 4096)])
    table.complete_migration_run(0, 4096)
    lru = HierarchicalLRU(stamps=table.claim_stamps(SPACE))
    lru.insert_run(0, 4096)
    rng = random.Random(3)
    stream = [rng.randrange(4096) for _ in range(2000)]

    def stamps():
        base = table.access_view()[0]
        store = table.stamps
        stamp, block_stamp, chunk_stamp = \
            store.page, store.block, store.chunk
        block_shift, chunk_shift = store.block_shift, store.chunk_shift
        seq = store.clock
        for page in stream:
            index = page - base
            if not stamp[index]:
                raise AssertionError(page)
            seq += 1
            stamp[index] = block_stamp[index >> block_shift] = \
                chunk_stamp[index >> chunk_shift] = seq
        store.clock = seq

    def touch():
        touch = lru.touch
        for page in stream:
            touch(page)

    benchmark(stamps if tail == "stamps" else touch)
    assert len(lru) == 4096


def test_perf_victim_block_full_device(benchmark):
    """The LRU victim of a full device: every page of a 4 GB device
    (1M pages, 2,048 chunks) resident, recency spread by 20K accesses."""
    pages = (4 << 30) // constants.PAGE_SIZE
    lru = HierarchicalLRU()
    lru.insert_run(0, pages)
    rng = random.Random(4)
    for _ in range(20_000):
        lru.touch(rng.randrange(pages))

    victim = benchmark(lru.victim_block)
    assert victim == lru.blocks_in_order()[0]


#: PCI-e transfer sizes of the fig11 sweep at scale 0.4 (both
#: directions), weighted by count: every size seen 20 times or more,
#: 98% of the 25,195 transfers.
FIG11_SIZE_MIX = {4096: 22430, 61440: 1297, 65536: 428, 8192: 245,
                  57344: 122, 53248: 86, 28672: 84, 131072: 49,
                  16384: 43, 12288: 40, 32768: 35, 45056: 34, 40960: 32,
                  49152: 26, 262144: 26, 36864: 25, 24576: 23, 20480: 22}


@pytest.mark.parametrize("latency", ["schedule", "model"])
def test_perf_pcie_schedule(benchmark, latency):
    """1K transfers drawn from the fig11 size mix: ``schedule`` queues
    them on one channel (latency memoized per size, one ``Transfer``
    each), ``model`` only evaluates the bandwidth model per transfer,
    which the channel used to do on every schedule."""
    from repro.interconnect.pcie import PcieChannel
    from repro.stats import TransferLog

    rng = random.Random(6)
    sizes = rng.choices(list(FIG11_SIZE_MIX),
                        weights=list(FIG11_SIZE_MIX.values()), k=1000)
    model = BandwidthModel()

    def schedule():
        channel = PcieChannel(model, "h2d", TransferLog())
        for size in sizes:
            channel.schedule(size, 0.0)
        return channel.busy_until_ns

    def evaluate():
        return sum(map(model.latency_ns, sizes))

    assert benchmark(schedule if latency == "schedule" else evaluate) > 0


def test_perf_bandwidth_model(benchmark):
    """Latency evaluation across the transfer-size spectrum."""
    model = BandwidthModel()
    sizes = [4096 * (1 << (i % 9)) for i in range(256)]

    def evaluate():
        return sum(model.latency_ns(size) for size in sizes)

    assert benchmark(evaluate) > 0
