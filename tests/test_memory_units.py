"""Tests for page table, TLB, MSHR, and frame pool."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    DeviceMemoryError,
    PageTableError,
    SimulationError,
)
from repro.memory.addressing import contiguous_runs
from repro.memory.frames import FramePool
from repro.memory.mshr import FarFaultMSHR
from repro.memory.page import PageState
from repro.memory.page_table import GpuPageTable
from repro.memory.tlb import Tlb
from tests.per_page_mshr import PerPageMSHR, overflow_page


class TestPageTable:
    def test_unknown_page_is_invalid(self):
        pt = GpuPageTable()
        assert pt.state_of(42) is PageState.INVALID
        assert not pt.is_valid(42)

    def test_migration_lifecycle(self):
        pt = GpuPageTable()
        pt.begin_migration(7)
        assert pt.state_of(7) is PageState.MIGRATING
        assert pt.complete_migration(7) == 1
        assert pt.is_valid(7)
        assert pt.valid_count == 1
        pt.invalidate(7)
        assert pt.state_of(7) is PageState.INVALID
        assert pt.valid_count == 0

    def test_double_migration_rejected(self):
        pt = GpuPageTable()
        pt.begin_migration(7)
        with pytest.raises(PageTableError):
            pt.begin_migration(7)

    def test_complete_without_begin_rejected(self):
        pt = GpuPageTable()
        with pytest.raises(PageTableError):
            pt.complete_migration(7)

    def test_invalidate_non_valid_rejected(self):
        pt = GpuPageTable()
        with pytest.raises(PageTableError):
            pt.invalidate(7)
        pt.begin_migration(7)
        with pytest.raises(PageTableError):
            pt.invalidate(7)

    def test_access_flags(self):
        pt = GpuPageTable()
        pt.begin_migration(7)
        pt.complete_migration(7)
        assert pt.dirty_pages([7]) == []
        pt.mark_access(7, is_write=False)
        assert pt.dirty_pages([7]) == []
        pt.mark_access(7, is_write=True)
        assert pt.dirty_pages([7]) == [7]

    def test_access_to_invalid_rejected(self):
        pt = GpuPageTable()
        with pytest.raises(PageTableError):
            pt.mark_access(7, is_write=False)

    def test_eviction_clears_flags_and_counts_migrations(self):
        pt = GpuPageTable()
        pt.begin_migration(7)
        assert pt.complete_migration(7) == 1
        pt.mark_access(7, is_write=True)
        pt.invalidate(7)
        pt.begin_migration(7)
        assert pt.complete_migration(7) == 2
        assert pt.dirty_pages([7]) == []

    def test_dirty_pages_query(self):
        pt = GpuPageTable()
        for page in (3, 4):
            pt.begin_migration(page)
            pt.complete_migration(page)
        pt.mark_access(3, is_write=True)
        assert pt.dirty_pages([3, 4, 9]) == [3]



class TestPageTableModel:
    """Seeded random op sequences, legal and illegal, against a dict model."""

    CENTER = 1 << 20
    SPREAD = 1 << 17
    #: Op -> the only state it is legal in.
    LEGAL = {"begin": PageState.INVALID, "complete": PageState.MIGRATING,
             "invalidate": PageState.VALID, "read": PageState.VALID,
             "write": PageState.VALID}

    @staticmethod
    def _apply(pt, op, page):
        if op == "begin":
            return pt.begin_migration(page)
        if op == "complete":
            return pt.complete_migration(page)
        if op == "invalidate":
            return pt.invalidate(page)
        return pt.mark_access(page, is_write=op == "write")

    @pytest.mark.parametrize("seed", range(8))
    def test_random_ops_match_dict_model(self, seed):
        draw = random.Random(seed)
        pt = GpuPageTable()
        state: dict[int, PageState] = {}
        dirty: set[int] = set()
        migrations: dict[int, int] = {}
        # Pages around 2^20 +- 2^17: the window grows below and above the
        # first page's chunk.
        pool = [self.CENTER + draw.randrange(-self.SPREAD, self.SPREAD)
                for _ in range(48)]
        for _ in range(500):
            page = draw.choice(pool)
            current = state.get(page, PageState.INVALID)
            if draw.random() < 0.75:
                op = draw.choice([op for op, legal in self.LEGAL.items()
                                  if legal is current])
            else:
                op = draw.choice(list(self.LEGAL))
            if self.LEGAL[op] is not current:
                with pytest.raises(PageTableError):
                    self._apply(pt, op, page)
            else:
                result = self._apply(pt, op, page)
                if op == "begin":
                    state[page] = PageState.MIGRATING
                elif op == "complete":
                    state[page] = PageState.VALID
                    migrations[page] = migrations.get(page, 0) + 1
                    assert result == migrations[page]
                elif op == "invalidate":
                    state[page] = PageState.INVALID
                    dirty.discard(page)
                elif op == "write":
                    dirty.add(page)
            for p in pool:
                expected = state.get(p, PageState.INVALID)
                assert pt.state_of(p) is expected
                assert pt.is_valid(p) == (expected is PageState.VALID)
            assert pt.valid_count == sum(
                s is PageState.VALID for s in state.values())
            assert pt.dirty_pages(pool) == [p for p in pool if p in dirty]
            # Anchor ranges on pool pages and the window edges so they
            # straddle both.
            anchor = draw.choice(
                [*pool, pt._base, pt._base + len(pt._state)])
            first = anchor - draw.randrange(2048)
            stop = first + draw.randrange(4096)
            assert pt.invalid_pages_in_range(first, stop) == [
                p for p in range(first, stop)
                if state.get(p, PageState.INVALID) is PageState.INVALID
            ]
            assert pt.resident_count(first, stop) == sum(
                state.get(p, PageState.INVALID) is not PageState.INVALID
                for p in range(first, stop))
        pt.check_valid_count()
        assert pt._base < self.CENTER - self.SPREAD // 2
        assert pt._base + len(pt._state) > self.CENTER + self.SPREAD // 2


#: Random page-state arrays cover pages ``[_CENTER, _CENTER + _SPAN)``.
_CENTER = 1 << 20
_SPAN = 96


class TestRunTransitions:
    """The run forms of the page-table transitions against the scalar
    forms applied page by page, on random page-state arrays."""

    @classmethod
    def _table(cls, rows):
        """A table whose page ``_CENTER + i`` has ``rows[i]``'s state,
        dirty bit and completed-migration count."""
        pt = GpuPageTable()
        for offset, (state, dirty, migrations) in enumerate(rows):
            page = _CENTER + offset
            for _ in range(migrations):
                pt.begin_migration(page)
                pt.complete_migration(page)
                pt.invalidate(page)
            if state is not PageState.INVALID:
                pt.begin_migration(page)
            if state is PageState.VALID:
                pt.complete_migration(page)
                pt.mark_access(page, is_write=dirty)
        return pt

    @classmethod
    def _snapshot(cls, pt):
        pages = range(_CENTER - 8, _CENTER + _SPAN + 8)
        counts = []
        for page in pages:
            index = page - pt._base
            inside = 0 <= index < len(pt._state)
            counts.append(pt._migrations[index] if inside else 0)
        return ([pt.state_of(p) for p in pages], pt.dirty_pages(list(pages)),
                counts, pt.valid_count)

    @staticmethod
    def _outcome(call):
        try:
            return "ok", call()
        except PageTableError as error:
            return "raised", str(error)

    # Stretches of pages sharing one state, so that whole runs are legal
    # as often as not.
    rows = st.lists(
        st.tuples(st.sampled_from(list(PageState)), st.booleans(),
                  st.integers(0, 2), st.integers(1, 16)),
        min_size=_SPAN // 4, max_size=_SPAN,
    ).map(lambda stretches: [
        (state, dirty and index % 3 != 0, migrations + index % 2)
        for state, dirty, migrations, length in stretches
        for index in range(length)][:_SPAN])
    run = st.tuples(st.integers(-4, _SPAN), st.integers(1, 24)).map(
        lambda r: (_CENTER + r[0], _CENTER + r[0] + r[1]))

    def _check(self, rows, by_run, by_page):
        run_pt, page_pt = self._table(rows), self._table(rows)
        assert self._outcome(lambda: by_run(run_pt)) \
            == self._outcome(lambda: by_page(page_pt))
        assert self._snapshot(run_pt) == self._snapshot(page_pt)
        run_pt.check_valid_count()

    @settings(max_examples=150, deadline=None)
    @given(rows=rows, runs=st.lists(run, min_size=1, max_size=4))
    def test_begin_runs_match_scalar(self, rows, runs):
        def by_page(pt):
            for first, stop in runs:
                for page in range(first, stop):
                    pt.begin_migration(page)

        self._check(rows, lambda pt: pt.begin_migration_runs(runs), by_page)

    @settings(max_examples=150, deadline=None)
    @given(rows=rows, run=run)
    def test_complete_run_matches_scalar(self, rows, run):
        def by_page(pt):
            return sum(pt.complete_migration(page) > 1
                       for page in range(*run))

        self._check(rows, lambda pt: pt.complete_migration_run(*run),
                    by_page)

    @settings(max_examples=150, deadline=None)
    @given(rows=rows, data=st.data())
    def test_invalidate_pages_matches_scalar(self, rows, data):
        valid = [_CENTER + i for i, row in enumerate(rows)
                 if row[0] is PageState.VALID]
        stretches = [list(range(first, first + count))
                     for first, count in contiguous_runs(valid)]
        # Mostly legal rounds (contiguous, shuffled or sparse), some with
        # illegal or repeated pages.
        pages = data.draw(st.one_of(
            st.sampled_from(stretches or [[]]),
            self.run.map(lambda r: list(range(*r))),
            st.permutations(valid).flatmap(
                lambda perm: st.integers(0, len(perm)).map(
                    lambda n: perm[:n])),
            st.lists(st.integers(_CENTER - 4, _CENTER + _SPAN),
                     max_size=12),
        ))

        def by_page(pt):
            for page in pages:
                pt.invalidate(page)

        self._check(rows, lambda pt: pt.invalidate_pages(pages), by_page)

    @settings(max_examples=100, deadline=None)
    @given(rows=rows, pages=st.lists(
        st.integers(_CENTER - (1 << 17), _CENTER + (1 << 17)), max_size=24))
    def test_state_filters_match_scalar(self, rows, pages):
        pt = self._table(rows)
        pages = pages + [_CENTER + i for i in range(0, _SPAN, 7)]
        assert pt.invalid_among(pages) == [
            p for p in pages if pt.state_of(p) is PageState.INVALID]
        assert pt.valid_among(pages) == [p for p in pages if pt.is_valid(p)]

    def test_illegal_run_raises_at_first_offender(self):
        pt = GpuPageTable()
        pt.begin_migration_runs([(10, 14)])
        assert pt.complete_migration_run(10, 12) == 0
        # 10, 11 VALID; 12, 13 MIGRATING.  Each illegal run applies its
        # legal prefix, then raises at the offending page.
        with pytest.raises(PageTableError, match="page 13 cannot start"):
            pt.begin_migration_runs([(5, 8), (13, 16)])
        assert pt.state_of(7) is PageState.MIGRATING
        assert pt.state_of(14) is PageState.INVALID
        with pytest.raises(PageTableError,
                           match="page 14 finished migration while"):
            pt.complete_migration_run(12, 16)
        assert pt.valid_count == 4
        with pytest.raises(PageTableError, match="cannot evict page 14"):
            pt.invalidate_pages([10, 11, 14])
        assert pt.state_of(11) is PageState.INVALID
        assert pt.valid_count == 2
        pt.check_valid_count()


class TestTlb:
    def test_hit_and_miss_counting(self):
        tlb = Tlb(4)
        assert not tlb.lookup(1)
        tlb.insert(1)
        assert tlb.lookup(1)
        assert tlb.hits == 1 and tlb.misses == 1

    def test_lru_replacement(self):
        tlb = Tlb(2)
        tlb.insert(1)
        tlb.insert(2)
        tlb.lookup(1)       # 2 becomes LRU
        tlb.insert(3)       # evicts 2
        assert 1 in tlb and 3 in tlb and 2 not in tlb

    def test_invalidate(self):
        tlb = Tlb(4)
        tlb.insert(1)
        tlb.insert(2)
        assert tlb.invalidate_many({1, 3}) == {1}
        assert tlb.invalidate_many({1}) == set()
        assert 1 not in tlb and 2 in tlb

    def test_flush(self):
        tlb = Tlb(4)
        for page in range(4):
            tlb.insert(page)
        tlb.flush()
        assert len(tlb) == 0

    def test_reinsert_refreshes(self):
        tlb = Tlb(2)
        tlb.insert(1)
        tlb.insert(2)
        tlb.insert(1)  # refresh, no growth
        assert len(tlb) == 2
        tlb.insert(3)  # evicts 2
        assert 2 not in tlb

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            Tlb(0)


class TestMshr:
    def test_first_fault_is_new(self):
        mshr = FarFaultMSHR(8)
        assert mshr.register_fault(1, "warp-a", 0.0) == "new"
        assert mshr.register_fault(1, "warp-b", 1.0) == "merged"
        assert mshr.merges == 1
        assert len(mshr) == 1

    def test_complete_returns_waiters(self):
        mshr = FarFaultMSHR(8)
        mshr.register_fault(1, "warp-a", 0.0)
        mshr.register_fault(1, "warp-b", 0.0)
        assert mshr.complete_many(range(1, 2)) == ["warp-a", "warp-b"]
        assert len(mshr) == 0

    def test_complete_unknown_rejected(self):
        mshr = FarFaultMSHR(8)
        with pytest.raises(SimulationError):
            mshr.complete_many(range(1, 2))

    def test_none_waiter_not_recorded(self):
        mshr = FarFaultMSHR(8)
        mshr.register_fault(1, None, 0.0)
        assert mshr.complete_many(range(1, 2)) == []

    def test_overflow(self):
        mshr = FarFaultMSHR(2)
        mshr.register_fault(1, None, 0.0)
        mshr.register_fault(2, None, 0.0)
        with pytest.raises(SimulationError):
            mshr.register_fault(3, None, 0.0)

    def test_peak_occupancy(self):
        mshr = FarFaultMSHR(8)
        mshr.register_fault(1, None, 0.0)
        mshr.register_fault(2, None, 0.0)
        mshr.complete_many(range(1, 2))
        mshr.register_fault(3, None, 0.0)
        assert mshr.peak_occupancy == 2

    @staticmethod
    def _state(mshr):
        """Waiters per waited-on page, occupancy, peak and merges: what
        the per-page file and this one must agree on."""
        return ({page: list(e.waiters)
                 for page, e in mshr._entries.items() if e.waiters},
                len(mshr), mshr.peak_occupancy, mshr.merges)

    @settings(max_examples=150, deadline=None)
    @given(capacity=st.integers(1, 24),
           faulted=st.lists(st.integers(0, 40), max_size=12, unique=True),
           cuts=st.lists(st.integers(0, 41), max_size=30))
    def test_register_many_matches_per_page(self, capacity, faulted, cuts):
        """Same overflow page, occupancy and peak as the per-page file's
        registration of the plan's pages without an entry."""
        bulk, single = FarFaultMSHR(capacity), PerPageMSHR(capacity)
        for mshr in (bulk, single):
            for page in faulted[:capacity]:
                mshr.register_fault(page, f"warp-{page}", 0.0)
            if faulted:
                # Peak above occupancy.
                mshr.complete_many(range(faulted[0], faulted[0] + 1))
        # Disjoint runs over pages 0..40, in a shuffled plan order.
        bounds = sorted(set(cuts) | {0, 41})
        runs = [range(a, b) for a, b in zip(bounds, bounds[1:])]
        runs = runs[1::2] + runs[::2]
        outcomes = []
        for call in (lambda: bulk.register_many(runs),
                     lambda: single.register_many(
                         [p for run in runs for p in run], 5.0)):
            try:
                call()
                outcomes.append(None)
            except SimulationError as error:
                outcomes.append(overflow_page(error))
        assert outcomes[0] == outcomes[1]
        assert self._state(bulk) == self._state(single)

    def test_register_many_overflows_at_capacity_edge(self):
        mshr = FarFaultMSHR(4)
        mshr.register_fault(1, "warp", 0.0)
        mshr.register_many([range(1, 5)])  # page 1 already outstanding
        assert mshr.peak_occupancy == 4 and len(mshr) == 4
        with pytest.raises(SimulationError, match="registering page 6"):
            FarFaultMSHR(4).register_many(
                [range(3, 6), range(2, 3), range(6, 8)])

    @settings(max_examples=100, deadline=None)
    @given(waits=st.lists(st.integers(0, 3), min_size=1, max_size=20),
           missing=st.booleans())
    def test_complete_many_matches_per_page(self, waits, missing):
        """Waiters in page order, with prefetched (waiter-less) pages
        between waited-on ones; a page that is not in flight raises."""
        bulk, single = FarFaultMSHR(64), PerPageMSHR(64)
        pages = range(len(waits))
        for mshr in (bulk, single):
            for page, count in enumerate(waits):
                for warp in range(count):
                    mshr.register_fault(page, (page, warp), 0.0)
        bulk.register_many([pages])
        single.register_many(list(pages), 0.0)
        if missing:
            pages = range(len(waits) + 1)
        outcomes = []
        for call in (lambda: bulk.complete_many(pages),
                     lambda: single.complete_many(list(pages))):
            try:
                outcomes.append(call())
            except SimulationError:
                outcomes.append("raised")
        assert outcomes[0] == outcomes[1]
        if not missing:
            assert self._state(bulk) == self._state(single)
            assert len(bulk) == 0


class TestFramePool:
    def test_unbounded_never_stalls(self):
        pool = FramePool(None)
        assert pool.allocate(10_000, 5.0) == 5.0
        assert pool.used == 10_000

    def test_allocate_from_free(self):
        pool = FramePool(10)
        assert pool.allocate(4, 0.0) == 0.0
        assert pool.free_now == 6
        assert pool.used == 4

    def test_allocate_waits_for_pending_release(self):
        pool = FramePool(4)
        pool.allocate(4, 0.0)
        pool.release(2, at_ns=100.0)
        # 2 frames needed, none free, 2 pending at t=100.
        assert pool.allocate(2, 10.0) == 100.0
        pool.check_conservation()

    def test_allocate_consumes_earliest_releases_first(self):
        pool = FramePool(4)
        pool.allocate(4, 0.0)
        pool.release(1, at_ns=300.0)
        pool.release(1, at_ns=100.0)
        assert pool.allocate(1, 0.0) == 100.0
        assert pool.allocate(1, 0.0) == 300.0

    def test_over_demand_raises(self):
        pool = FramePool(4)
        pool.allocate(4, 0.0)
        with pytest.raises(DeviceMemoryError):
            pool.allocate(1, 0.0)

    def test_release_more_than_used_raises(self):
        pool = FramePool(4)
        pool.allocate(2, 0.0)
        with pytest.raises(DeviceMemoryError):
            pool.release(3, 0.0)

    def test_settle_moves_past_releases_to_free(self):
        pool = FramePool(4)
        pool.allocate(4, 0.0)
        pool.release(2, at_ns=50.0)
        pool.settle(60.0)
        assert pool.free_now == 2
        pool.check_conservation()

    def test_occupancy(self):
        pool = FramePool(10)
        pool.allocate(5, 0.0)
        assert pool.occupancy() == pytest.approx(0.5)

    @given(st.lists(st.tuples(st.sampled_from(["alloc", "release"]),
                              st.integers(min_value=1, max_value=5)),
                    max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_conservation_under_random_traffic(self, ops):
        pool = FramePool(20)
        now = 0.0
        for op, count in ops:
            now += 10.0
            if op == "alloc":
                demand = min(count,
                             pool.free_now + pool.pending_release)
                if demand > 0:
                    pool.allocate(demand, now)
            else:
                give_back = min(count, pool.used)
                if give_back > 0:
                    pool.release(give_back, now + 100.0)
            pool.check_conservation()
