"""Protocol-conformance tests for every registered policy.

Every prefetcher and eviction policy — hand-built and learned — is run
inside a real (tiny) simulation behind a validating wrapper injected
through the engine's policy seam.  The wrapper asserts the documented
contracts (``core/prefetch/base.py`` / ``core/evict/base.py``) at every
planning call:

* prefetch plans cover every faulted page exactly once, plan only
  INVALID pages, and never plan a page twice;
* eviction plans contain only VALID pages, each exactly once, and the
  policy's own bookkeeping has dropped them before the plan returns;
* hooks only ever see pages in the state the hook names.
"""

import pytest

from repro.core.evict import EVICTION_REGISTRY, make_eviction_policy
from repro.core.prefetch import PREFETCHER_REGISTRY, make_prefetcher
from repro.core.evict.base import EvictionPolicy
from repro.core.prefetch.base import Prefetcher
from repro.experiments.common import combo_config
from repro.runtime import run_workload
from repro.workloads.registry import make_workload

SCALE = 0.1
PERCENT = 110.0


class CheckedPrefetcher(Prefetcher):
    """Delegating wrapper asserting the MigrationPlan contract."""

    name = "checked-prefetch"
    supports_fastpath = False  # contract checks need the reference engine

    def __init__(self, inner):
        self.inner = inner
        self.plans = 0

    def reset(self):
        self.inner.reset()

    def on_fault_batch(self, pages, ctx):
        assert len(pages) == len(set(pages)), "duplicate fault in batch"
        for page in pages:
            assert not ctx.page_table.is_valid(page), \
                "faulted page already valid"
        self.inner.on_fault_batch(pages, ctx)

    def on_evicted(self, pages, ctx):
        self.inner.on_evicted(pages, ctx)

    def plan(self, faulted_pages, ctx):
        plan = self.inner.plan(faulted_pages, ctx)
        self.plans += 1
        pages = plan.all_pages()
        assert len(pages) == len(set(pages)), \
            f"{self.inner.name}: page planned twice"
        planned = set(pages)
        assert set(faulted_pages) <= planned, \
            f"{self.inner.name}: faulted page missing from plan"
        for page in pages:
            assert not ctx.page_table.is_valid(page), \
                f"{self.inner.name}: planned a VALID page"
        fault_set = set(faulted_pages)
        covered = []
        for group in plan.groups:
            covered.extend(group.fault_pages)
            assert group.fault_pages <= fault_set
        assert len(covered) == len(set(covered)), \
            f"{self.inner.name}: fault page in two groups"
        return plan


class CheckedEviction(EvictionPolicy):
    """Delegating wrapper asserting the EvictionPlan contract."""

    name = "checked-evict"
    supports_fastpath = False

    def __init__(self, inner):
        self.inner = inner
        self.plans = 0

    def reset(self):
        self.inner.reset()

    def on_fault_batch(self, pages, ctx):
        self.inner.on_fault_batch(pages, ctx)

    def on_validated(self, page, ctx):
        assert ctx.page_table.is_valid(page), \
            "on_validated with a non-VALID page"
        self.inner.on_validated(page, ctx)

    def on_accessed(self, page, ctx):
        assert ctx.page_table.is_valid(page), \
            "on_accessed with a non-VALID page"
        self.inner.on_accessed(page, ctx)

    def on_accessed_many(self, pages, ctx):
        self.inner.on_accessed_many(pages, ctx)

    def on_invalidated_externally(self, page, ctx):
        self.inner.on_invalidated_externally(page, ctx)

    def on_evicted(self, pages, ctx):
        self.inner.on_evicted(pages, ctx)

    def evictable_pages(self):
        return self.inner.evictable_pages()

    def plan_eviction(self, n_pages, ctx):
        before = self.inner.evictable_pages()
        plan = self.inner.plan_eviction(n_pages, ctx)
        self.plans += 1
        pages = plan.all_pages()
        assert len(pages) == len(set(pages)), \
            f"{self.inner.name}: page evicted twice in one plan"
        for page in pages:
            assert ctx.page_table.is_valid(page), \
                f"{self.inner.name}: planned a non-VALID page"
        after = self.inner.evictable_pages()
        assert before - after == len(pages), (
            f"{self.inner.name}: planned pages not removed from "
            f"bookkeeping before plan return "
            f"(before={before}, after={after}, planned={len(pages)})"
        )
        return plan


def run_checked(prefetcher, eviction):
    workload = make_workload("gemm", scale=SCALE)
    config = combo_config(workload, prefetcher.inner.name
                          if isinstance(prefetcher, CheckedPrefetcher)
                          else "tbn",
                          eviction.inner.name
                          if isinstance(eviction, CheckedEviction)
                          else "tbn",
                          oversubscription_percent=PERCENT,
                          prefetch_under_pressure=True)
    return run_workload(workload, config, check_invariants=True,
                        prefetcher=prefetcher, eviction=eviction)


@pytest.mark.parametrize("name", sorted(PREFETCHER_REGISTRY))
def test_prefetcher_honours_plan_contract(name):
    checked = CheckedPrefetcher(make_prefetcher(name))
    run_checked(checked, make_eviction_policy("sequential-local"))
    assert checked.plans > 0, "prefetcher was never asked to plan"


@pytest.mark.parametrize("name", sorted(EVICTION_REGISTRY))
def test_eviction_honours_plan_contract(name):
    checked = CheckedEviction(make_eviction_policy(name))
    run_checked(make_prefetcher("tbn"), checked)
    assert checked.plans > 0, "eviction policy was never asked to plan"


@pytest.mark.parametrize("prefetcher,eviction", [
    ("zheng-sequential", "adaptive"),
    ("ngram", "logistic"),
    ("bandit", "bandit"),
])
def test_reused_policy_instance_equals_fresh_instance(prefetcher,
                                                      eviction):
    """reset() regression: a policy instance reused across back-to-back
    runs must produce the run a fresh instance would (stale cursors,
    thrash windows, or learned weights must not leak between runs)."""
    def config():
        workload = make_workload("gemm", scale=SCALE)
        return workload, combo_config(
            workload, prefetcher, eviction,
            oversubscription_percent=PERCENT,
            prefetch_under_pressure=True,
        )

    from repro.policy import make_policy_pair
    shared_p, shared_e = make_policy_pair(prefetcher, eviction)
    workload, cfg = config()
    run_workload(workload, cfg, prefetcher=shared_p, eviction=shared_e)
    workload, cfg = config()
    reused = run_workload(workload, cfg, prefetcher=shared_p,
                          eviction=shared_e).to_json()
    workload, cfg = config()
    fresh = run_workload(workload, cfg).to_json()
    assert reused == fresh


@pytest.mark.parametrize("name", sorted(EVICTION_REGISTRY))
def test_validated_many_equals_per_page_hook(name):
    """The driver's one ``on_validated_many`` call per transfer group
    leaves every policy as per-page ``on_validated`` calls would (the
    checking wrapper keeps the default per-page loop)."""
    def run(eviction):
        # Re-migrations feed the thrash-tracking hooks of adaptive and
        # logistic: bfs at 150% thrashes.
        workload = make_workload("bfs", scale=0.2)
        config = combo_config(workload, "tbn", name,
                              oversubscription_percent=150.0,
                              prefetch_under_pressure=True)
        return run_workload(workload, config, check_invariants=True,
                            eviction=eviction).to_json()

    assert run(make_eviction_policy(name)) \
        == run(CheckedEviction(make_eviction_policy(name)))
