"""Tests for the learned policy baselines (repro.policy).

Covers the registry facade and its error quality, config-time rejection
of unsupported engine pairings, seeded determinism of every learned
baseline, and the online-learning mechanics of each policy in
isolation.
"""

import pytest

from repro import constants
from repro.config import SimulatorConfig
from repro.core.context import UvmContext
from repro.core.evict import make_eviction_policy
from repro.core.prefetch import make_prefetcher
from repro.errors import PolicyError, SimulationError
from repro.experiments.common import combo_config
from repro.experiments.extension_learned import (
    HAND_BUILT,
    WORKLOADS,
    learned_table,
)
from repro.memory.addressing import AddressSpace
from repro.memory.allocator import ManagedAllocator
from repro.memory.frames import FramePool
from repro.memory.page_table import GpuPageTable
from repro.policy import (
    LEARNED_PAIRINGS,
    is_combined,
    learned_names,
    make_policy,
    make_policy_pair,
    pair_supports_fastpath,
    policy_class,
)
from repro.policy.bandit import BanditPolicy
from repro.policy.logistic import LogisticEvictor, _feature_index
from repro.policy.ngram import NGramPrefetcher
from repro.runtime import run_workload
from repro.stats import SimStats
from repro.workloads.registry import make_workload

PAGES_PER_BLOCK = constants.PAGES_PER_BLOCK


def make_ctx(alloc_bytes=4 * constants.MIB, seed=0):
    config = SimulatorConfig(seed=seed)
    space = AddressSpace()
    allocator = ManagedAllocator(space)
    allocator.malloc_managed("a", alloc_bytes)
    ctx = UvmContext(config, space, allocator, GpuPageTable(),
                     FramePool(None), SimStats())
    return ctx, allocator.get("a")


def validate_pages(ctx, policy, pages, access=True):
    for page in pages:
        ctx.page_table.begin_migration(page)
        ctx.page_table.complete_migration(page)
        policy.on_validated(page, ctx)
        if access:
            ctx.page_table.mark_access(page, is_write=False)
            policy.on_accessed(page, ctx)


class TestRegistryFacade:
    def test_learned_names(self):
        assert learned_names("prefetch") == ["bandit", "ngram"]
        assert learned_names("evict") == ["bandit", "logistic"]

    def test_unknown_prefetcher_lists_known_names(self):
        with pytest.raises(PolicyError) as err:
            policy_class("bogus", "prefetch")
        assert "bogus" in str(err.value)
        assert "ngram" in str(err.value)
        assert "tbn" in str(err.value)

    def test_unknown_eviction_lists_known_names(self):
        with pytest.raises(PolicyError) as err:
            make_policy("bogus", "evict")
        assert "bogus" in str(err.value)
        assert "logistic" in str(err.value)

    def test_unknown_role_raises(self):
        with pytest.raises(PolicyError):
            policy_class("tbn", "bogus-role")

    def test_combined_detection(self):
        assert is_combined("bandit")
        # tbn/random/sequential-local exist in both registries but as
        # *different* classes — they are pairings, not combined policies.
        assert not is_combined("tbn")
        assert not is_combined("random")
        assert not is_combined("ngram")

    def test_combined_pair_shares_one_instance(self):
        prefetcher, eviction = make_policy_pair("bandit", "bandit")
        assert prefetcher is eviction
        prefetcher, eviction = make_policy_pair("tbn", "tbn")
        assert prefetcher is not eviction

    def test_pair_supports_fastpath(self):
        assert pair_supports_fastpath("tbn", "lru4k")
        assert not pair_supports_fastpath("ngram", "lru4k")
        assert not pair_supports_fastpath("tbn", "logistic")
        assert not pair_supports_fastpath("bandit", "bandit")


class TestConfigValidation:
    def test_unknown_prefetcher_rejected_at_config_time(self):
        with pytest.raises(PolicyError) as err:
            SimulatorConfig(prefetcher="bogus")
        assert "known:" in str(err.value)

    def test_unknown_eviction_rejected_at_config_time(self):
        with pytest.raises(PolicyError) as err:
            SimulatorConfig(eviction="bogus")
        assert "known:" in str(err.value)

    @pytest.mark.parametrize("kwargs", [
        {"prefetcher": "ngram"},
        {"eviction": "logistic"},
        {"prefetcher": "bandit", "eviction": "bandit"},
    ])
    def test_fast_engine_rejects_learned_policies(self, kwargs):
        with pytest.raises(SimulationError) as err:
            SimulatorConfig(engine="fast", **kwargs)
        assert "supports_fastpath" in str(err.value)

    def test_fast_engine_accepts_hand_built(self):
        SimulatorConfig(engine="fast", prefetcher="tbn", eviction="tbn")

    def test_fast_engine_rejects_injected_unsupported_instance(self):
        """Defense in depth: an injected instance bypasses config
        validation, so the fast engine itself must refuse it."""
        from repro.core.engine import make_simulator
        config = SimulatorConfig(engine="fast")
        with pytest.raises(SimulationError):
            make_simulator(config, prefetcher=NGramPrefetcher())


class TestSeededDeterminism:
    @pytest.mark.parametrize(
        "label,prefetcher,eviction,keep", list(LEARNED_PAIRINGS),
        ids=[p[0] for p in LEARNED_PAIRINGS])
    def test_same_seed_byte_identical(self, label, prefetcher,
                                      eviction, keep):
        def one_run():
            workload = make_workload("bfs", scale=0.1)
            config = combo_config(workload, prefetcher, eviction,
                                  oversubscription_percent=110.0,
                                  prefetch_under_pressure=keep,
                                  seed=3)
            return run_workload(workload, config).to_json()

        assert one_run() == one_run()


class TestNGramPrefetcher:
    def test_untrained_degrades_to_sequential_local(self):
        ctx, alloc = make_ctx()
        ngram = make_prefetcher("ngram")
        sl = make_prefetcher("sequential-local")
        faulted = [alloc.page_range[0]]
        assert sorted(ngram.plan(faulted, ctx).all_pages()) == \
            sorted(sl.plan(list(faulted), ctx).all_pages())

    def test_learns_block_transition_and_prefetches_successor(self):
        ctx, alloc = make_ctx()
        ngram = NGramPrefetcher()
        base = alloc.page_range[0]
        page_a = base                      # block A
        page_b = base + 8 * PAGES_PER_BLOCK  # block B, far from A
        # Observe A -> B twice (MIN_COUNT) across separate batches.
        for _ in range(2):
            ngram.on_fault_batch([page_a], ctx)
            ngram.on_fault_batch([page_b], ctx)
        ngram.on_fault_batch([page_a], ctx)
        plan = ngram.plan([page_a], ctx)
        planned = set(plan.all_pages())
        block_b_pages = set(ctx.space.pages_in_block(
            ctx.space.block_of_page(page_b)))
        assert block_b_pages <= planned, \
            "trained successor block not prefetched"

    def test_reset_forgets_transitions(self):
        ctx, alloc = make_ctx()
        ngram = NGramPrefetcher()
        base = alloc.page_range[0]
        page_b = base + 8 * PAGES_PER_BLOCK
        for _ in range(2):
            ngram.on_fault_batch([base], ctx)
            ngram.on_fault_batch([page_b], ctx)
        ngram.reset()
        ngram.on_fault_batch([base], ctx)
        planned = set(ngram.plan([base], ctx).all_pages())
        block_b_pages = set(ctx.space.pages_in_block(
            ctx.space.block_of_page(page_b)))
        assert not (block_b_pages & planned)


class TestBanditPolicy:
    def test_epoch_boundary_updates_active_arm(self):
        ctx, alloc = make_ctx()
        bandit = BanditPolicy()
        page = alloc.page_range[0]
        start_label = bandit.active_pairing
        for _ in range(bandit.EPOCH_BATCHES):
            bandit.on_fault_batch([page], ctx)
        means = bandit.arm_means()
        assert start_label in means
        # The starting arm was pulled exactly once at the boundary.
        assert bandit._arms[0].pulls == 1

    def test_reward_is_negative_cost_delta(self):
        ctx, alloc = make_ctx()
        bandit = BanditPolicy()
        page = alloc.page_range[0]
        bandit.on_fault_batch([page], ctx)  # seeds rng, baselines cost
        ctx.stats.total_fault_handling_ns += 4800.0
        for _ in range(bandit.EPOCH_BATCHES - 1):
            bandit.on_fault_batch([page], ctx)
        expected = -4800.0 / bandit.EPOCH_BATCHES
        assert bandit.arm_means()["TBNe+TBNp"] == pytest.approx(expected)

    def test_exploration_never_touches_shared_ctx_rng(self):
        ctx, alloc = make_ctx(seed=5)
        bandit = BanditPolicy()
        page = alloc.page_range[0]
        before = ctx.rng.getstate()
        for _ in range(3 * bandit.EPOCH_BATCHES):
            bandit.on_fault_batch([page], ctx)
        assert ctx.rng.getstate() == before

    def test_all_arms_stay_fed(self):
        ctx, alloc = make_ctx()
        bandit = BanditPolicy()
        pages = list(alloc.page_range[:PAGES_PER_BLOCK])
        validate_pages(ctx, bandit, pages)
        for arm in bandit._arms:
            assert arm.eviction.evictable_pages() == len(pages)
        plan = bandit.plan_eviction(1, ctx)
        assert plan.all_pages()
        # The mirror keeps passive arms' books closed too.
        for arm in bandit._arms:
            assert arm.eviction.evictable_pages() == \
                len(pages) - len(plan.all_pages())


class TestLogisticEvictor:
    def test_feature_hash_is_deterministic_and_in_range(self):
        dim = LogisticEvictor.DIM
        values = [_feature_index(f, b, dim)
                  for f in range(4) for b in range(8)]
        assert values == [_feature_index(f, b, dim)
                          for f in range(4) for b in range(8)]
        assert all(0 <= v < dim for v in values)

    def test_untrained_evicts_like_sequential_local(self):
        ctx, alloc = make_ctx()
        logistic = make_eviction_policy("logistic")
        sl = make_eviction_policy("sequential-local")
        pages = list(alloc.page_range[:3 * PAGES_PER_BLOCK])
        validate_pages(ctx, logistic, pages)
        ctx2, alloc2 = make_ctx()
        validate_pages(ctx2, sl, pages)
        assert sorted(logistic.plan_eviction(1, ctx).all_pages()) == \
            sorted(sl.plan_eviction(1, ctx2).all_pages())

    def test_thrash_feedback_trains_weights(self):
        ctx, alloc = make_ctx()
        logistic = LogisticEvictor()
        pages = list(alloc.page_range[:2 * PAGES_PER_BLOCK])
        validate_pages(ctx, logistic, pages)
        plan = logistic.plan_eviction(1, ctx)
        evicted = plan.all_pages()
        for page in evicted:
            ctx.page_table.invalidate(page)
        weights_before = logistic._weights.copy()
        # The evicted pages migrate straight back: thrash (label 1).
        validate_pages(ctx, logistic, evicted, access=False)
        assert logistic._weights != weights_before

    def test_reset_zeroes_model_and_bookkeeping(self):
        ctx, alloc = make_ctx()
        logistic = LogisticEvictor()
        pages = list(alloc.page_range[:PAGES_PER_BLOCK])
        validate_pages(ctx, logistic, pages)
        logistic.plan_eviction(1, ctx)
        logistic.reset()
        assert logistic.evictable_pages() == 0
        assert not any(logistic._weights)
        assert not logistic._recent


@pytest.mark.slow
class TestLearnedTable:
    def test_tiny_fan_out_runs_every_pairing(self):
        results = learned_table(0.1, percents=(110.0,))
        labels = [label for label, _, _, _ in HAND_BUILT + LEARNED_PAIRINGS]
        assert sorted(results) == sorted((label, 110.0) for label in labels)
        for per_workload in results.values():
            assert set(per_workload) == set(WORKLOADS)
            for stats in per_workload.values():
                assert stats.total_kernel_time_ns > 0
