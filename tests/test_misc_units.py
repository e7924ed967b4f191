"""Smaller units: constants, errors, partial-block tree accounting, PCI-e
channel interplay, and engine details."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import constants
from repro.config import SimulatorConfig
from repro.core.engine import Simulator
from repro.errors import (
    AddressError,
    AllocationError,
    ConfigurationError,
    DeviceMemoryError,
    PageTableError,
    PolicyError,
    ReproError,
    SimulationError,
    WorkloadError,
)
from repro.gpu.kernel import KernelSpec, ThreadBlockSpec, WarpSpec
from repro.interconnect.bandwidth import BandwidthModel
from repro.interconnect.pcie import PcieLink
from repro.memory.allocation import TreeRegion
from repro.memory.btree import BuddyTree
from repro.stats import TransferLog

PAGE = constants.PAGE_SIZE
KB64 = constants.BASIC_BLOCK_SIZE


class TestConstants:
    def test_geometry(self):
        assert constants.PAGES_PER_BLOCK == 16
        assert constants.BLOCKS_PER_LARGE_PAGE == 32
        assert constants.PAGES_PER_LARGE_PAGE == 512

    def test_cycle_conversions_roundtrip(self):
        cycles = 123.0
        assert constants.ns_to_cycles(
            constants.cycles_to_ns(cycles)
        ) == pytest.approx(cycles)

    def test_ns_per_cycle(self):
        assert constants.NS_PER_CYCLE == pytest.approx(1e9 / 1_481e6)

    def test_table1_points(self):
        assert len(constants.PCIE_MEASURED_BANDWIDTH) == 5
        assert constants.PCIE_MEASURED_BANDWIDTH[4096] \
            == pytest.approx(3.2219e9)


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc", [
        AddressError, AllocationError, ConfigurationError,
        DeviceMemoryError, PageTableError, PolicyError, SimulationError,
        WorkloadError,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("x")


class TestPartialBlockTree:
    """Page-granularity validity (4 KB eviction debris) in the tree."""

    def make_tree(self):
        return BuddyTree(TreeRegion(0, 8, KB64))

    def test_page_granular_adjustments(self):
        tree = self.make_tree()
        tree.adjust_block(0, 3 * PAGE)
        assert tree.leaf_valid_bytes(0) == 3 * PAGE
        assert tree.root_valid_bytes == 3 * PAGE
        tree.adjust_block(0, -PAGE)
        assert tree.leaf_valid_bytes(0) == 2 * PAGE
        tree.check_consistency()

    def test_balance_with_partial_blocks_stays_consistent(self):
        tree = self.make_tree()
        # Blocks 0..3 fully valid, block 4 partially valid.
        for block in range(4):
            tree.adjust_block(block, KB64)
        tree.adjust_block(4, 5 * PAGE)
        plan = tree.balance_after_fill(4)
        tree.check_consistency()
        for block, nbytes in plan.items():
            assert nbytes % PAGE == 0
            assert tree.leaf_valid_bytes(block) <= KB64

    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(1, 16)),
                    min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_random_partial_fills_never_break_accounting(self, ops):
        tree = self.make_tree()
        valid_pages = [0] * 8
        for block, pages in ops:
            room = 16 - valid_pages[block]
            take = min(pages, room)
            if take == 0:
                continue
            tree.adjust_block(block, take * PAGE)
            valid_pages[block] += take
            plan = tree.balance_after_fill(block)
            for planned, nbytes in plan.items():
                valid_pages[planned] += nbytes // PAGE
                assert valid_pages[planned] <= 16
            tree.check_consistency()
        assert tree.root_valid_bytes == sum(valid_pages) * PAGE


class TestPcieChannelInterplay:
    def test_writes_do_not_delay_reads(self):
        model = BandwidthModel()
        link = PcieLink(model, TransferLog(), TransferLog())
        for _ in range(5):
            link.write_back(2 * constants.MIB, 0.0)
        read = link.migrate(4096, 0.0)
        assert read.start_ns == 0.0

    def test_channel_fifo_order(self):
        model = BandwidthModel()
        link = PcieLink(model, TransferLog(), TransferLog())
        first = link.migrate(64 * 1024, 100.0)
        second = link.migrate(4096, 0.0)  # requested earlier, queued later
        assert second.start_ns == first.end_ns


class TestEngineDetails:
    def test_tlb_shootdown_reaches_all_sms(self):
        sim = Simulator(SimulatorConfig(num_sms=3))
        for sm in sim.sms:
            sm.tlb.insert(42)
        sim.tlb_shootdown([42])
        assert all(42 not in sm.tlb for sm in sim.sms)

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_batched_shootdown_keeps_survivor_order(self, engine):
        from repro.core import make_simulator
        sim = make_simulator(SimulatorConfig(num_sms=3, engine=engine))
        base = 1 << 20
        cached = [base + i for i in range(8)]
        for sm in sim.sms:
            for page in cached:
                sm.tlb.insert(page)
            sm.tlb.lookup(base + 2)      # base + 2 becomes MRU
        evicted = [base + 1, base + 4, base, base + 9]   # +9: never cached
        sim.tlb_shootdown(evicted)
        survivors = [base + i for i in (3, 5, 6, 7, 2)]
        for sm in sim.sms:
            assert list(sm.tlb._entries) == survivors
            assert len(sm.tlb) == len(survivors)

    def test_walker_selected_from_config(self):
        from repro.memory.radix_walker import FixedWalker, RadixWalker
        fixed = Simulator(SimulatorConfig(page_walk_model="fixed"))
        radix = Simulator(SimulatorConfig(page_walk_model="radix"))
        assert isinstance(fixed.walker, FixedWalker)
        assert isinstance(radix.walker, RadixWalker)

    def test_back_to_back_kernels_share_time_axis(self):
        sim = Simulator(SimulatorConfig(num_sms=1, prefetcher="none"))
        alloc = sim.malloc_managed("a", constants.MIB)
        base = alloc.page_range[0]

        def kernel(name, pages):
            return KernelSpec(name, [ThreadBlockSpec([
                WarpSpec([(p, False) for p in pages])
            ])])

        sim.launch_kernel(kernel("k1", range(base, base + 8)))
        t_after_first = sim.now
        sim.launch_kernel(kernel("k2", range(base + 8, base + 16)))
        assert sim.now > t_after_first
        assert len(sim.stats.kernel_times_ns) == 2

    def test_access_trace_records_iteration(self):
        sim = Simulator(SimulatorConfig(num_sms=1, prefetcher="none",
                                        record_access_trace=True))
        alloc = sim.malloc_managed("a", constants.MIB)
        base = alloc.page_range[0]
        kernel = KernelSpec("k", [ThreadBlockSpec([
            WarpSpec([(base, False)])
        ])], iteration=7)
        sim.launch_kernel(kernel)
        sim.synchronize()
        assert sim.stats.access_trace
        assert all(it == 7 for _, _, it in sim.stats.access_trace)
