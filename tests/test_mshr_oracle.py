"""The MSHR file against the per-page file it replaced.

:class:`repro.memory.mshr.FarFaultMSHR` holds entries only for pages a
warp waits on and counts the other in-flight pages;
:class:`tests.per_page_mshr.PerPageMSHR` holds one entry per outstanding
page.  Hypothesis drives both through the same sequences of fault
registrations, migration plans, group completions (fault and prefetch
groups, late waiters on prefetched pages included) and evictions, with
the page states the GMMU reads kept beside them, and compares after
every step: waiters in wake order, merges, occupancy, ``peak_occupancy``
and the page an overflow raises at.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.memory.mshr import FarFaultMSHR
from tests.per_page_mshr import PerPageMSHR, overflow_page

PAGES = 24
INVALID, MIGRATING, VALID = "I", "M", "V"


def _waited(mshr) -> dict:
    return {page: list(entry.waiters)
            for page, entry in mshr._entries.items() if entry.waiters}


def _assert_same(new: FarFaultMSHR, old: PerPageMSHR) -> None:
    assert _waited(new) == _waited(old)
    assert len(new) == len(old)
    assert new.peak_occupancy == old.peak_occupancy
    assert new.merges == old.merges


def _outcome(call):
    """The call's result, or the page its overflow raised at."""
    try:
        return call()
    except SimulationError as error:
        return ("overflow", overflow_page(error))


class TestMshrAgainstPerPageFile:
    @settings(max_examples=300, deadline=None)
    @given(capacity=st.integers(1, 30), data=st.data())
    def test_same_waiters_merges_peak_and_overflow(self, capacity, data):
        new, old = FarFaultMSHR(capacity), PerPageMSHR(capacity)
        state = [INVALID] * PAGES
        in_flight: list[range] = []
        warps = 0
        for step in range(data.draw(st.integers(1, 40), label="steps")):
            now = float(step)
            op = data.draw(st.sampled_from(
                ["fault", "fault", "plan", "complete", "evict"]))
            if op == "fault":
                page = data.draw(st.integers(0, PAGES - 1), label="page")
                if state[page] == VALID:
                    continue  # a TLB fill, no MSHR work
                warps += 1
                warp = f"w{warps}"
                if state[page] == MIGRATING:
                    new.merge_in_flight(page, warp, now)
                    assert old.register_fault(page, warp, now) == "merged"
                else:
                    got = _outcome(
                        lambda: new.register_fault(page, warp, now))
                    want = _outcome(
                        lambda: old.register_fault(page, warp, now))
                    assert got == want
                    if isinstance(got, tuple):
                        _assert_same(new, old)
                        return  # the run aborts on overflow
            elif op == "plan":
                starts = data.draw(st.lists(
                    st.tuples(st.integers(0, PAGES - 1), st.integers(1, 6)),
                    min_size=1, max_size=4), label="runs")
                runs: list[range] = []
                taken: set[int] = set()
                for start, length in starts:
                    run = range(start, min(start + length, PAGES))
                    if all(state[p] == INVALID and p not in taken
                           for p in run):
                        runs.append(run)
                        taken.update(run)
                if not runs:
                    continue
                for page in taken:
                    state[page] = MIGRATING
                got = _outcome(lambda: new.register_many(runs))
                want = _outcome(lambda: old.register_many(
                    [p for run in runs for p in run], now))
                assert got == want
                if got is not None:
                    _assert_same(new, old)
                    return
                in_flight.extend(runs)
            elif op == "complete":
                if not in_flight:
                    continue
                run = in_flight.pop(data.draw(
                    st.integers(0, len(in_flight) - 1), label="group"))
                assert new.complete_many(run) == old.complete_many(list(run))
                for page in run:
                    state[page] = VALID
            else:
                valid = [p for p in range(PAGES) if state[p] == VALID]
                if valid:
                    state[data.draw(st.sampled_from(valid))] = INVALID
            _assert_same(new, old)
        # Drain: every in-flight group lands, in plan order.
        for run in in_flight:
            assert new.complete_many(run) == old.complete_many(list(run))
        _assert_same(new, old)
        assert new.unwaited == 0
