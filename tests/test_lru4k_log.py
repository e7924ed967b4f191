"""The log-backed LRU 4 KB evictor against its eager oracle.

:class:`~repro.core.evict.lru4k.Lru4kEviction` hands the issue loop its
access log's ``append`` and settles the log before every call that reads
or changes its order.  :class:`EagerLru4kEviction` applies each access at
once.  Hypothesis drives both with the same validations (one page or a
transfer group's run), hook accesses across SM-step boundaries, direct
``on_accessed`` calls, external invalidations and eviction plans, with
and without an LRU-head reservation and with a settle threshold small
enough to fire, and compares every victim, every evictable count and
the final eviction order.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evict import lru4k as lru4k_module
from repro.core.evict import make_eviction_policy
from tests.eager_lru4k import EagerLru4kEviction
from tests.test_eviction_policies import make_ctx

#: Pages the operations draw from: a few 64 KB blocks of one allocation.
PAGES = 48

_page = st.integers(0, PAGES - 1)
_OPS = st.lists(st.one_of(
    st.tuples(st.just("validate"), _page),
    st.tuples(st.just("validate_many"), _page, st.integers(1, 8)),
    st.tuples(st.just("hook"), _page),
    st.tuples(st.just("hook"), _page),
    st.tuples(st.just("hook"), _page),
    st.tuples(st.just("step")),
    st.tuples(st.just("on_accessed"), _page),
    st.tuples(st.just("invalidate"), _page),
    st.tuples(st.just("evict"), st.integers(1, 6)),
    st.tuples(st.just("count")),
), max_size=80)


def _drive(name, reservation, ops):
    ctx, alloc = make_ctx(reservation=reservation)
    table = ctx.page_table
    base = alloc.page_range[0]
    logged = make_eviction_policy(name)
    eager = EagerLru4kEviction(logged.insert_on_validation)
    policies = (logged, eager)

    def valid():
        return [base + i for i in range(PAGES)
                if table.is_valid(base + i)]

    def migrate(pages):
        for page in pages:
            table.begin_migration(page)
            table.complete_migration(page)

    hooks = [policy.access_hook(ctx) for policy in policies]
    for op, *args in ops:
        if op == "validate":
            page = base + args[0]
            if not table.is_valid(page):
                migrate([page])
                for policy in policies:
                    policy.on_validated(page, ctx)
        elif op == "validate_many":
            first, count = args
            run = [base + i for i in range(first, min(first + count, PAGES))]
            if not any(map(table.is_valid, run)):
                migrate(run)
                for policy in policies:
                    policy.on_validated_many(run, ctx)
        elif op in ("hook", "on_accessed"):
            resident = valid()
            if resident:
                page = resident[args[0] % len(resident)]
                table.mark_access(page, is_write=False)
                for policy, hook in zip(policies, hooks):
                    if op == "hook":
                        hook(page)
                    else:
                        policy.on_accessed(page, ctx)
        elif op == "step":
            hooks = [policy.access_hook(ctx) for policy in policies]
        elif op == "invalidate":
            page = base + args[0]
            if table.is_valid(page):
                table.invalidate(page)
                for policy in policies:
                    policy.on_invalidated_externally(page, ctx)
        elif op == "evict":
            # Only the oracle is asked first: a settling count would
            # hide a plan that failed to settle.
            if eager.evictable_pages():
                victims = [policy.plan_eviction(args[0], ctx).all_pages()
                           for policy in policies]
                assert victims[0] == victims[1]
                for page in victims[1]:
                    table.invalidate(page)
        else:
            assert logged.evictable_pages() == eager.evictable_pages()
    assert logged.evictable_pages() == eager.evictable_pages()
    assert logged.eviction_order() == eager.eviction_order()
    assert sorted(logged.eviction_order()) == valid()


@pytest.mark.parametrize("settle_at", [lru4k_module.SETTLE_AT, 2],
                         ids=["default", "settle-at-2"])
@pytest.mark.parametrize("reservation", [0.0, 0.3],
                         ids=["no-skip", "skip"])
@pytest.mark.parametrize("name", ["lru4k", "lru4k-validated"])
@given(ops=_OPS)
@settings(max_examples=100, deadline=None)
def test_log_matches_eager_oracle(name, reservation, settle_at, ops):
    with mock.patch.object(lru4k_module, "SETTLE_AT", settle_at):
        _drive(name, reservation, ops)


def test_hook_is_the_log_append():
    """One C call per access: the hook is the bound ``list.append``."""
    ctx, alloc = make_ctx()
    policy = make_eviction_policy("lru4k")
    page = alloc.page_range[0]
    ctx.page_table.begin_migration(page)
    ctx.page_table.complete_migration(page)
    policy.on_validated(page, ctx)
    hook = policy.access_hook(ctx)
    hook(page)
    hook(page)
    assert hook == policy._log.append
    assert policy._log == [page, page]
    assert policy.eviction_order() == [page]
    assert policy._log == []


def test_access_hook_settles_a_long_log():
    """A run without faults keeps the log bounded: binding the hook
    settles a log longer than ``SETTLE_AT``."""
    ctx, alloc = make_ctx()
    policy = make_eviction_policy("lru4k")
    pages = list(alloc.page_range)[:4]
    for page in pages:
        ctx.page_table.begin_migration(page)
        ctx.page_table.complete_migration(page)
        policy.on_validated(page, ctx)
    with mock.patch.object(lru4k_module, "SETTLE_AT", 3):
        hook = policy.access_hook(ctx)
        for page in pages:
            hook(page)
        policy.access_hook(ctx)
    assert policy._log == []
    assert policy._lru.pages_in_order() == pages
