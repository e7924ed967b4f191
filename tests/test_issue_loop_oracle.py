"""An independent oracle for the per-access issue loop.

``Simulator._issue_quantum`` runs on locals and inlines the TLB, warp
and policy calls it makes per access.  ``OracleSimulator`` keeps the loop
as it was written before it moved onto locals — one
``next_ready_warp``, ``Tlb.lookup``, ``current_access``, ``mark_access``,
``on_accessed`` and ``advance`` call per access — and every cell here
asserts byte-identical ``SimStats.to_json()`` plus the per-SM state the
loop writes back (clock, rotation index, TLB counters) and the eviction
policy's order.

The tier-1 matrix runs four workloads at a small scale under the four
fig11 pairings, unbounded and at 110%, with the default and a 16-entry
TLB, plus dedicated access-trace and fault-profile cells.  Policy
cells cover every other registered eviction policy, the learned
prefetcher, and a block-LRU evictor that extends ``on_accessed``: the
engine calls each through its ``access_hook`` where the oracle calls
``on_accessed``.  The same matrix at a larger scale and the remaining
workloads are ``slow``.
"""

import pytest

from repro.core.engine import Simulator
from repro.core.evict.lru4k import Lru4kEviction
from repro.core.evict.tbn import TreeBasedNeighborhoodPreEviction
from repro.experiments.common import COMBINATIONS, combo_config
from repro.faultinject.profile import FaultProfile
from repro.gpu.sm import StreamingMultiprocessor
from repro.workloads import make_workload
from repro.workloads.base import AddressResolver


class OracleSimulator(Simulator):
    """The engine with the method-call issue loop."""

    def _issue_quantum(self, sm: StreamingMultiprocessor,
                       budget: int) -> None:
        config = self.config
        stats = self.stats
        trace = config.record_access_trace
        trace_stride = config.access_trace_stride
        trace_cap = config.access_trace_cap
        access_ns = config.cycles_per_access * self._ns_per_cycle
        ns_per_cycle = self._ns_per_cycle
        walker = self.walker
        page_table = self.page_table
        eviction = self.driver.eviction

        for _ in range(budget):
            warp = sm.next_ready_warp()
            if warp is None:
                break
            page, is_write = warp.current_access()
            if sm.tlb.lookup(page):
                stats.tlb_hits += 1
                sm.time_ns += access_ns
            else:
                stats.tlb_misses += 1
                walk_ns = walker.walk_cycles(page) * ns_per_cycle
                sm.time_ns += access_ns + walk_ns
                if not self.gmmu.handle_tlb_miss(sm, warp, page, sm.time_ns):
                    warp.block_on(page)
                    continue
            page_table.mark_access(page, is_write)
            eviction.on_accessed(page, self.ctx)
            if trace:
                self._access_seq += 1
                if (self._access_seq - 1) % trace_stride == 0:
                    if trace_cap \
                            and len(stats.access_trace) >= trace_cap:
                        stats.access_trace_dropped += 1
                    else:
                        stats.access_trace.append(
                            (sm.time_ns, page, self.current_iteration)
                        )
            warp.advance()


#: Workloads of the tier-1 matrix and the extra ones of the slow matrix.
TIER1_WORKLOADS = ("hotspot", "srad", "bfs", "kmeans")
SLOW_WORKLOADS = ("backprop", "nw", "pathfinder", "gemm")
TIER1_SCALE = 0.1
SLOW_SCALE = 0.25
OVERSUBS = (None, 110.0)
#: None keeps the config default (512 entries).
TLB_SIZES = (None, 16)
#: Pairings for the eviction policies outside fig11 (and the learned
#: prefetcher), in COMBINATIONS' (label, prefetcher, eviction,
#: keep_prefetching) form.
POLICY_COMBOS = (
    ("lru2mb", "tbn", "lru2mb", True),
    ("lru4k-validated", "tbn", "lru4k-validated", False),
    ("adaptive", "tbn", "adaptive", True),
    ("logistic", "tbn", "logistic", True),
    ("ngram", "ngram", "lru4k", True),
    ("bandit", "bandit", "bandit", True),
)
POLICY_WORKLOADS = ("hotspot", "bfs")


class EveryOtherTouchTbne(TreeBasedNeighborhoodPreEviction):
    """TBNe that refreshes recency on every other access only: an
    ``on_accessed`` override whose effect shows in which blocks go."""

    def reset(self):
        super().reset()
        self.accesses = 0

    def on_accessed(self, page, ctx):
        self.accesses += 1
        if self.accesses % 2:
            super().on_accessed(page, ctx)


class EveryOtherTouchLru4k(Lru4kEviction):
    """LRU 4 KB with the same every-other-access ``on_accessed``."""

    def reset(self):
        super().reset()
        self.accesses = 0

    def on_accessed(self, page, ctx):
        self.accesses += 1
        if self.accesses % 2:
            super().on_accessed(page, ctx)


def _lru_order(sim) -> list[int] | None:
    """The eviction policy's LRU-to-MRU page order, when it keeps one.

    LRU4K's order is read through ``eviction_order``, which settles the
    policy's access log first.
    """
    policy = sim.driver.eviction
    if isinstance(policy, Lru4kEviction):
        return policy.eviction_order()
    lru = getattr(policy, "_lru", None)
    return None if lru is None else lru.pages_in_order()


def _simulate(cls, name: str, scale: float, **overrides):
    """The engine of class ``cls`` after one workload run."""
    workload = make_workload(name, scale=scale)
    combo = overrides.pop("combo", COMBINATIONS[-1])
    _, prefetcher, eviction, keep_prefetching = combo
    policy_class = overrides.pop("eviction_class", None)
    config = combo_config(workload, prefetcher, eviction,
                          overrides.pop("oversubscription", 110.0),
                          keep_prefetching, **overrides)
    sim = cls(config, eviction=policy_class() if policy_class else None)
    for spec in workload.allocations():
        sim.malloc_managed(spec.name, spec.size_bytes)
    resolver = AddressResolver(sim.allocator)
    for kernel in workload.kernel_specs(resolver):
        sim.launch_kernel(kernel)
    sim.synchronize()
    sim.check_invariants()
    return sim


def _run(cls, name: str, scale: float, **overrides):
    """Stats JSON, per-SM loop state and LRU order after one run."""
    sim = _simulate(cls, name, scale, **overrides)
    per_sm = [(sm.time_ns, sm._rr_index, sm.tlb.hits, sm.tlb.misses,
               list(sm.tlb._entries)) for sm in sim.sms]
    return sim.stats.to_json(), per_sm, _lru_order(sim)


def _assert_matches_oracle(name: str, scale: float, **overrides) -> None:
    expected = _run(OracleSimulator, name, scale, **dict(overrides))
    actual = _run(Simulator, name, scale, **dict(overrides))
    assert actual[0] == expected[0]
    assert actual[1] == expected[1]
    assert actual[2] == expected[2]


def _matrix(workloads):
    for name in workloads:
        for combo in COMBINATIONS:
            for over in OVERSUBS:
                for tlb in TLB_SIZES:
                    overrides = {"combo": combo, "oversubscription": over}
                    if tlb is not None:
                        overrides["tlb_entries"] = tlb
                    label = (f"{name}-{combo[0]}-"
                             f"{'unbnd' if over is None else int(over)}-"
                             f"tlb{tlb or 'default'}")
                    yield pytest.param(name, overrides, id=label)


class TestIssueLoopOracle:
    @pytest.mark.parametrize("name,overrides",
                             list(_matrix(TIER1_WORKLOADS)))
    def test_matrix(self, name, overrides):
        _assert_matches_oracle(name, TIER1_SCALE, **overrides)

    def test_access_trace_stride_and_cap(self):
        _assert_matches_oracle("kmeans", TIER1_SCALE,
                               record_access_trace=True,
                               access_trace_stride=3,
                               access_trace_cap=500)

    def test_fault_profile(self):
        _assert_matches_oracle(
            "hotspot", TIER1_SCALE,
            fault_profile=FaultProfile.load("moderate", seed=3),
        )

    @pytest.mark.parametrize("name", POLICY_WORKLOADS)
    @pytest.mark.parametrize("combo", POLICY_COMBOS,
                             ids=[combo[0] for combo in POLICY_COMBOS])
    def test_policy(self, combo, name):
        _assert_matches_oracle(name, TIER1_SCALE, combo=combo)

    @pytest.mark.parametrize("name", POLICY_WORKLOADS)
    def test_block_lru_subclass_extending_on_accessed(self, name):
        _assert_matches_oracle(name, TIER1_SCALE,
                               eviction_class=EveryOtherTouchTbne)


class TestHookOverrides:
    """A subclass that replaces the ``on_accessed`` of a policy whose own
    hook stamps inline (TBNe) or logs (LRU4K) gets that ``on_accessed``
    once per access: same ``SimStats``, order and access count as the
    oracle, which calls ``on_accessed`` itself."""

    @pytest.mark.parametrize("eviction_class,combo", [
        (EveryOtherTouchTbne, COMBINATIONS[-1]),
        (EveryOtherTouchLru4k, COMBINATIONS[0]),
    ], ids=["tbne", "lru4k"])
    def test_matches_oracle(self, eviction_class, combo):
        oracle = _simulate(OracleSimulator, "hotspot", TIER1_SCALE,
                           eviction_class=eviction_class, combo=combo)
        engine = _simulate(Simulator, "hotspot", TIER1_SCALE,
                           eviction_class=eviction_class, combo=combo)
        assert engine.stats.to_json() == oracle.stats.to_json()
        assert _lru_order(engine) == _lru_order(oracle)
        assert engine.driver.eviction.accesses \
            == oracle.driver.eviction.accesses > 0


#: Block-LRU evictors whose recency the issue loop stamps inline, at an
#: over-subscription that evicts throughout the run.
STAMP_COMBOS = (
    ("lru2mb", "tbn", "lru2mb", True),
    ("sequential-local", "sequential-local", "sequential-local", True),
    ("adaptive", "tbn", "adaptive", True),
    ("logistic", "tbn", "logistic", True),
)


class ClockCheckingSimulator(Simulator):
    """The engine, checking the stamp clock after each quantum.

    Every stamp also lands in its chunk's stamp, and chunk stamps are
    never cleared, so the clock must equal the largest chunk stamp: an
    inline quantum that failed to write its clock back, or wrote back a
    stale one over stamps a hook took, breaks that.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.quanta = 0
        self.inline_quanta = 0

    def _issue_quantum(self, sm, budget: int) -> None:
        inline = self.driver.eviction.access_hook(self.ctx) is None
        super()._issue_quantum(sm, budget)
        lru = self.driver.eviction._lru
        if lru is not None:  # the hook path builds it on first validation
            stamps = self.page_table.stamps
            assert stamps is lru.stamps
            assert stamps.clock == max(stamps.chunk, default=0)
        self.quanta += 1
        self.inline_quanta += inline


class TestStampedRecency:
    """The inline stamp tail against the oracle's ``on_accessed`` calls."""

    @pytest.mark.parametrize("oversubscription", [125.0, 150.0])
    @pytest.mark.parametrize("name", POLICY_WORKLOADS)
    @pytest.mark.parametrize("combo", STAMP_COMBOS,
                             ids=[combo[0] for combo in STAMP_COMBOS])
    def test_victims_read_from_stamps(self, combo, name, oversubscription):
        _assert_matches_oracle(name, TIER1_SCALE, combo=combo,
                               oversubscription=oversubscription)

    @pytest.mark.parametrize("eviction_class,inline", [
        (TreeBasedNeighborhoodPreEviction, True),
        (EveryOtherTouchTbne, False),
    ], ids=["inline", "hook"])
    def test_engine_clock_is_the_lru_clock(self, eviction_class, inline):
        sim = _simulate(ClockCheckingSimulator, "hotspot", TIER1_SCALE,
                        eviction_class=eviction_class)
        assert sim.quanta > 0
        assert sim.inline_quanta == (sim.quanta if inline else 0)
        assert sim.page_table.stamps.clock > 0


@pytest.mark.slow
class TestIssueLoopOracleSlow:
    @pytest.mark.parametrize(
        "name,overrides",
        list(_matrix(TIER1_WORKLOADS + SLOW_WORKLOADS)))
    def test_matrix(self, name, overrides):
        _assert_matches_oracle(name, SLOW_SCALE, **overrides)

    @pytest.mark.parametrize("profile", ["light", "moderate", "heavy"])
    def test_fault_profiles(self, profile):
        _assert_matches_oracle(
            "bfs", SLOW_SCALE,
            fault_profile=FaultProfile.load(profile, seed=1),
        )

    def test_access_trace(self):
        _assert_matches_oracle("srad", SLOW_SCALE,
                               record_access_trace=True,
                               access_trace_stride=2,
                               access_trace_cap=2000)
