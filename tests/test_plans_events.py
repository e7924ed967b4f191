"""Tests for plan objects, transfer-group splitting, and the event queue."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.events import EventQueue
from repro.core.plans import (
    EvictionPlan,
    EvictionUnit,
    MigrationPlan,
    TransferGroup,
    split_runs_at_faults,
)
from repro.errors import PolicyError, SimulationError
from repro.memory.addressing import contiguous_runs


class TestTransferGroup:
    def test_rejects_empty(self):
        with pytest.raises(PolicyError):
            TransferGroup([])

    def test_rejects_non_contiguous(self):
        with pytest.raises(PolicyError):
            TransferGroup([1, 3])

    @pytest.mark.parametrize("fault_pages", [{0}, {4}, {1, 4}])
    def test_rejects_fault_pages_outside_pages(self, fault_pages):
        with pytest.raises(PolicyError, match="outside its pages"):
            TransferGroup([1, 2, 3], fault_pages=frozenset(fault_pages))

    def test_has_fault(self):
        assert TransferGroup([1], fault_pages=frozenset({1})).has_fault
        assert not TransferGroup([1]).has_fault

    def test_is_a_run(self):
        """A list of pages becomes the run it spells; fault pages are
        all of it or none of it."""
        group = TransferGroup([4, 5, 6], fault_pages=[6, 5, 4])
        assert group.pages == range(4, 7) and group.has_fault
        assert group.fault_pages == frozenset(range(4, 7))
        prefetch = TransferGroup(range(4, 7))
        assert prefetch.fault_pages == frozenset()
        assert prefetch != group
        assert group == TransferGroup(range(4, 7), range(4, 7))

    @pytest.mark.parametrize("fault_pages", [{1}, {2, 3}, [1, 1, 2]])
    def test_rejects_partial_fault_group(self, fault_pages):
        with pytest.raises(PolicyError, match="mixes"):
            TransferGroup([1, 2, 3], fault_pages=fault_pages)

    def test_rejects_empty_or_strided_range(self):
        for pages in (range(3, 3), range(0, 6, 2)):
            with pytest.raises(PolicyError):
                TransferGroup(pages)


class TestMigrationPlan:
    def test_ordered_groups_puts_faults_first(self):
        prefetch = TransferGroup([10, 11])
        fault = TransferGroup([1], fault_pages=frozenset({1}))
        plan = MigrationPlan(groups=[prefetch, fault])
        assert plan.ordered_groups() == [fault, prefetch]

    def test_totals(self):
        plan = MigrationPlan(groups=[TransferGroup([1, 2]),
                                     TransferGroup([9])])
        assert plan.total_pages == 3
        assert plan.all_pages() == [1, 2, 9]


class TestEvictionPlan:
    def test_unit_rejects_empty(self):
        with pytest.raises(PolicyError):
            EvictionUnit([], unit_writeback=True)

    def test_totals(self):
        plan = EvictionPlan(units=[
            EvictionUnit([1, 2], unit_writeback=True),
            EvictionUnit([5], unit_writeback=False),
        ])
        assert plan.total_pages == 3
        assert plan.all_pages() == [1, 2, 5]


class TestSplitRunsAtFaults:
    def test_slp_example_fault_at_block_start(self):
        """Section 3.2: first byte of a block faults -> 4KB fault group +
        60KB prefetch group."""
        pages = list(range(16))
        groups = split_runs_at_faults(pages, {0})
        assert [list(g.pages) for g in groups] == [[0], list(range(1, 16))]
        assert groups[0].has_fault and not groups[1].has_fault

    def test_fault_mid_block_splits_three_ways(self):
        groups = split_runs_at_faults(list(range(16)), {7})
        assert [list(g.pages) for g in groups] == [
            list(range(0, 7)), [7], list(range(8, 16))
        ]

    def test_contiguous_faults_grouped_together(self):
        groups = split_runs_at_faults(list(range(8)), {2, 3, 4})
        assert [list(g.pages) for g in groups] == \
            [[0, 1], [2, 3, 4], [5, 6, 7]]
        assert groups[1].fault_pages == frozenset({2, 3, 4})

    def test_non_contiguous_pages_split_at_gaps(self):
        groups = split_runs_at_faults([0, 1, 5, 6], {0, 5})
        assert [list(g.pages) for g in groups] == [[0], [1], [5], [6]]

    def test_tbnp_example_fault_first_plus_prefetch(self):
        """Figure 2(b): four contiguous blocks grouped, split 4KB+252KB."""
        pages = list(range(64))  # four contiguous 16-page blocks
        groups = split_runs_at_faults(pages, {0})
        assert [len(g.pages) for g in groups] == [1, 63]

    @given(st.sets(st.integers(min_value=0, max_value=200), min_size=1),
           st.sets(st.integers(min_value=0, max_value=200)))
    def test_partition_properties(self, pages, faults):
        pages = sorted(pages)
        groups = split_runs_at_faults(pages, faults)
        covered = [p for g in groups for p in g.pages]
        # Partition: every page exactly once, order preserved.
        assert covered == pages
        for group in groups:
            page_set = set(group.pages)
            # Groups are contiguous and homogeneous in faultiness.
            assert max(page_set) - min(page_set) == len(page_set) - 1
            in_faults = page_set & faults
            assert in_faults in (set(), page_set)
            assert group.fault_pages == frozenset(in_faults)
            assert type(group.pages) is range

    def test_prefetch_only_runs_pass_through(self, monkeypatch):
        """Only runs that hold faults are cut: a prefetch-only run
        becomes one group without a fault-run split."""
        import repro.core.plans as plans

        calls = []
        monkeypatch.setattr(plans, "contiguous_runs",
                            lambda pages: calls.append(list(pages))
                            or contiguous_runs(pages))
        pages = [*range(0, 16), *range(32, 48), *range(64, 70)]
        groups = plans.split_runs_at_faults(pages, {33, 34})
        assert [list(g.pages) for g in groups] == [
            list(range(0, 16)), [32], [33, 34], list(range(35, 48)),
            list(range(64, 70))]
        # The merge of the planned pages, then the one run with faults.
        assert calls == [pages, [33, 34]]

    @given(st.sets(st.integers(min_value=0, max_value=300)),
           st.sets(st.integers(min_value=-20, max_value=320)))
    def test_matches_per_page_walk(self, pages, faults):
        """The bisect-based split equals the per-page walk it replaced,
        fault pages outside the planned pages included."""
        pages = sorted(pages)
        assert split_runs_at_faults(pages, faults) == \
            _split_page_by_page(pages, faults)


def _split_page_by_page(pages, fault_pages):
    """The per-page reference: walk each run, cutting wherever a page's
    faultiness differs from its predecessor's."""
    groups = []
    for start, count in contiguous_runs(sorted(set(pages))):
        run = []
        run_is_fault = False
        for page in range(start, start + count):
            is_fault = page in fault_pages
            if run and is_fault != run_is_fault:
                groups.append(TransferGroup(
                    run, fault_pages=frozenset(run) if run_is_fault
                    else frozenset()))
                run = []
            run.append(page)
            run_is_fault = is_fault
        if run:
            groups.append(TransferGroup(
                run, fault_pages=frozenset(run) if run_is_fault
                else frozenset()))
    return groups


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        seen = []
        queue.push(5.0, lambda now: seen.append(("b", now)))
        queue.push(1.0, lambda now: seen.append(("a", now)))
        while queue:
            time, callback = queue.pop()
            callback(time)
        assert seen == [("a", 1.0), ("b", 5.0)]

    def test_ties_broken_by_insertion_order(self):
        queue = EventQueue()
        seen = []
        queue.push(1.0, lambda now: seen.append("first"))
        queue.push(1.0, lambda now: seen.append("second"))
        for _ in range(2):
            _, callback = queue.pop()
            callback(1.0)
        assert seen == ["first", "second"]

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().push(-1.0, lambda now: None)

    def test_next_time(self):
        queue = EventQueue()
        assert queue.next_time is None
        queue.push(3.0, lambda now: None)
        assert queue.next_time == 3.0


class TestEventQueueDiagnostics:
    """Negative-time errors must name the offending callback."""

    def test_negative_time_error_names_callback(self):
        def my_late_callback(now):
            pass

        with pytest.raises(SimulationError,
                           match="my_late_callback"):
            EventQueue().push(-5.0, my_late_callback)

    def test_negative_time_error_unwraps_partial(self):
        import functools

        def wrapped_handler(tag, now):
            pass

        bound = functools.partial(wrapped_handler, "tag")
        with pytest.raises(SimulationError, match="wrapped_handler"):
            EventQueue().push(-1.0, bound)

    def test_negative_time_error_includes_timestamp(self):
        with pytest.raises(SimulationError, match="-2.5"):
            EventQueue().push(-2.5, lambda now: None)

    def test_callback_annotation_is_float_to_none(self):
        from typing import Callable

        from repro.core.events import EventCallback

        # The public alias documents the contract: callback(now_ns).
        assert EventCallback == Callable[[float], None]
