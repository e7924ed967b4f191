"""Tests for the GPU execution model: kernels, warps, SMs, scheduling."""

import pytest

from repro.errors import SimulationError, WorkloadError
from repro.gpu.coalescer import coalesce_addresses, coalesce_pages
from repro.gpu.kernel import KernelSpec, ThreadBlockSpec, WarpSpec
from repro.gpu.sm import StreamingMultiprocessor
from repro.gpu.tb_scheduler import ThreadBlockScheduler
from repro.gpu.warp import Warp, WarpState


def warp_spec(pages, write=False):
    return WarpSpec([(p, write) for p in pages])


class TestCoalescer:
    def test_coalesce_addresses_collapses_same_page(self):
        addrs = [0, 100, 4096, 4100, 8192]
        out = coalesce_addresses(addrs, is_write=False)
        assert out == [(0, False), (1, False), (2, False)]

    def test_coalesce_addresses_preserves_first_appearance_order(self):
        out = coalesce_addresses([8192, 0, 8200], is_write=True)
        assert out == [(2, True), (0, True)]

    def test_coalesce_pages_merges_adjacent_repeats(self):
        out = coalesce_pages([(1, False), (1, False), (2, False),
                              (1, False)])
        assert out == [(1, False), (2, False), (1, False)]

    def test_coalesce_pages_read_then_write_becomes_write(self):
        out = coalesce_pages([(1, False), (1, True)])
        assert out == [(1, True)]

    def test_coalesce_pages_write_then_read_stays_write(self):
        out = coalesce_pages([(1, True), (1, False)])
        assert out == [(1, True)]


class TestKernelSpec:
    def test_empty_kernel_rejected(self):
        with pytest.raises(WorkloadError):
            KernelSpec("k", [])

    def test_empty_thread_block_rejected(self):
        with pytest.raises(WorkloadError):
            ThreadBlockSpec([])

    def test_total_accesses_and_touched_pages(self):
        kernel = KernelSpec("k", [
            ThreadBlockSpec([warp_spec([1, 2]), warp_spec([2, 3])]),
        ])
        assert kernel.total_accesses == 4
        assert kernel.touched_pages() == {1, 2, 3}


class TestWarp:
    def test_lifecycle(self):
        warp = Warp(0, warp_spec([5, 6]))
        assert warp.ready
        assert warp.current_access() == (5, False)
        warp.advance()
        assert warp.remaining == 1
        warp.advance()
        assert warp.done

    def test_block_and_wake_replays_access(self):
        warp = Warp(0, warp_spec([5]))
        warp.block_on(5)
        assert warp.state is WarpState.BLOCKED
        assert warp.blocked_on == 5
        warp.wake()
        assert warp.current_access() == (5, False)  # replayed, not skipped

    def test_empty_stream_is_done(self):
        warp = Warp(0, warp_spec([]))
        assert warp.done

    def test_invalid_transitions_rejected(self):
        warp = Warp(0, warp_spec([5]))
        with pytest.raises(SimulationError):
            warp.wake()
        warp.block_on(5)
        with pytest.raises(SimulationError):
            warp.advance()
        with pytest.raises(SimulationError):
            warp.block_on(5)


class TestStreamingMultiprocessor:
    def make_sm(self):
        return StreamingMultiprocessor(0, tlb_entries=16)

    def test_round_robin_across_warps(self):
        sm = self.make_sm()
        sm.add_thread_block(0, ThreadBlockSpec(
            [warp_spec([1, 2]), warp_spec([3, 4])]), first_warp_id=0)
        first = sm.next_ready_warp()
        second = sm.next_ready_warp()
        assert first is not second
        assert sm.next_ready_warp() is first

    def test_blocked_warps_skipped(self):
        sm = self.make_sm()
        sm.add_thread_block(0, ThreadBlockSpec(
            [warp_spec([1]), warp_spec([2])]), first_warp_id=0)
        w0 = sm.next_ready_warp()
        w0.block_on(1)
        assert sm.next_ready_warp() is not w0

    def test_idle_when_all_blocked(self):
        sm = self.make_sm()
        sm.add_thread_block(0, ThreadBlockSpec([warp_spec([1])]),
                            first_warp_id=0)
        sm.next_ready_warp().block_on(1)
        assert sm.idle

    def test_idle_does_not_advance_rotation(self):
        sm = self.make_sm()
        sm.add_thread_block(0, ThreadBlockSpec(
            [warp_spec([1]), warp_spec([2]), warp_spec([3])]),
            first_warp_id=0)
        sm.next_ready_warp()
        assert sm._rr_index == 1
        assert not sm.idle
        assert sm._rr_index == 1
        assert sm.next_ready_warp() is sm.all_warps()[1]

    def test_warps_get_sm_backref(self):
        sm = self.make_sm()
        sm.add_thread_block(0, ThreadBlockSpec([warp_spec([1])]),
                            first_warp_id=0)
        assert sm.all_warps()[0].sm is sm

    def test_reap_finished_blocks(self):
        sm = self.make_sm()
        sm.add_thread_block(7, ThreadBlockSpec([warp_spec([1])]),
                            first_warp_id=0)
        warp = sm.next_ready_warp()
        warp.advance()
        assert sm.reap_finished_blocks() == [7]
        assert sm.resident_blocks == 0
        assert sm.reap_finished_blocks() == []


class TestThreadBlockScheduler:
    def make(self, num_sms=2, max_blocks=2):
        sms = [StreamingMultiprocessor(i, 16) for i in range(num_sms)]
        return sms, ThreadBlockScheduler(sms, max_blocks)

    def kernel(self, num_blocks):
        return KernelSpec("k", [
            ThreadBlockSpec([warp_spec([i])]) for i in range(num_blocks)
        ])

    def test_launch_fills_sms_up_to_limit(self):
        sms, sched = self.make(num_sms=2, max_blocks=2)
        touched = sched.launch(self.kernel(5))
        assert len(touched) == 2
        assert sms[0].resident_blocks == 2
        assert sms[1].resident_blocks == 2
        assert not sched.kernel_done

    def test_refill_on_completion(self):
        sms, sched = self.make(num_sms=1, max_blocks=1)
        sched.launch(self.kernel(2))
        warp = sms[0].next_ready_warp()
        warp.advance()
        finished = sms[0].reap_finished_blocks()
        assert sched.on_blocks_finished(sms[0], finished)
        assert sms[0].resident_blocks == 1
        assert not sched.kernel_done

    def test_kernel_done_after_all_blocks(self):
        sms, sched = self.make(num_sms=1, max_blocks=2)
        sched.launch(self.kernel(1))
        sms[0].next_ready_warp().advance()
        sched.on_blocks_finished(sms[0], sms[0].reap_finished_blocks())
        assert sched.kernel_done

    def test_double_launch_rejected(self):
        _, sched = self.make()
        sched.launch(self.kernel(1))
        with pytest.raises(SimulationError):
            sched.launch(self.kernel(1))

    def test_distinct_warp_ids_across_blocks(self):
        sms, sched = self.make(num_sms=2, max_blocks=2)
        sched.launch(self.kernel(4))
        ids = [w.warp_id for sm in sms for w in sm.all_warps()]
        assert len(ids) == len(set(ids))


class TestSmStepRotationSkip:
    """``Simulator._sm_step`` asks ``next_ready_warp()`` whether to
    reschedule after each quantum.  The call moves the rotation index
    past the warp it returns, so every quantum starts one ready warp
    later than plain round-robin would.  The recorded digests depend on
    that skip (docs/MODEL.md, "SM stepping"); this pins it."""

    def test_quantum_starts_one_warp_past_plain_round_robin(self):
        from repro.config import SimulatorConfig
        from repro.core.engine import Simulator

        sim = Simulator(SimulatorConfig(tlb_entries=16))
        alloc = sim.malloc_managed("a", 16 * sim.config.page_size)
        sim.prefetch_async("a")
        sim.synchronize()
        base = alloc.page_range[0]
        sm = sim.sms[0]
        sm.add_thread_block(0, ThreadBlockSpec(
            [warp_spec(range(base + 4 * w, base + 4 * w + 4))
             for w in range(3)]), first_warp_id=0)
        warps = sm.all_warps()
        sim.SM_QUANTUM = 5
        sim._sm_step(sm, sim.now)
        # Warps 0, 1, 2, 0, 1 issued; the reschedule check then
        # returned warp 2 and moved the rotation past it.
        assert [w.cursor for w in warps] == [2, 2, 1]
        assert sm._rr_index == 0
        sim._sm_step(sm, sim.now)
        # Plain round-robin would resume at warp 2: [4, 3, 3].
        assert [w.cursor for w in warps] == [4, 4, 2]


class TestEmptyBlocksRetire:
    """A thread block whose warps have empty access streams is done at
    placement.  The SM step reaps only after a warp retires or such a
    block is placed, so both cases must reach ``reap_finished_blocks``;
    a refill that places only finished blocks must still be reaped."""

    def test_placed_done_block_is_marked_for_reaping(self):
        sm = StreamingMultiprocessor(0, 16)
        assert not sm.reap_pending
        sm.add_thread_block(0, ThreadBlockSpec([warp_spec([1])]),
                            first_warp_id=0)
        assert not sm.reap_pending
        sm.add_thread_block(1, ThreadBlockSpec([warp_spec([])]),
                            first_warp_id=1)
        assert sm.reap_pending
        assert sm.reap_finished_blocks() == [1]
        assert not sm.reap_pending
        sm.next_ready_warp().advance()
        assert sm.reap_pending
        assert sm.reap_finished_blocks() == [0]

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_kernel_of_empty_blocks_completes(self, engine):
        from repro.config import SimulatorConfig
        from repro.core.engine import make_simulator

        sim = make_simulator(SimulatorConfig(
            engine=engine, num_sms=2, max_thread_blocks_per_sm=2))
        alloc = sim.malloc_managed("a", 8 * sim.config.page_size)
        base = alloc.page_range[0]
        empty = ThreadBlockSpec([warp_spec([]), warp_spec([])])
        sim.launch_kernel(KernelSpec("empty", [empty] * 9))
        # Empty blocks between, before and after blocks that fault.
        busy = ThreadBlockSpec([warp_spec(range(base, base + 8))])
        sim.launch_kernel(KernelSpec(
            "mixed", [empty, busy, empty, empty, busy, empty, empty]))
        sim.synchronize()
        sim.check_invariants()
        assert sim.scheduler.kernel_done
        assert all(sm.resident_blocks == 0 for sm in sim.sms)
        assert sim.stats.pages_migrated == 8
