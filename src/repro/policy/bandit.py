"""Epsilon-greedy pairing bandit (learned baseline 2).

Long et al.'s oversubscription-management framework (arXiv 2204.02974)
selects a migration strategy per execution phase from runtime signals.
This baseline frames the same idea as a multi-armed bandit over the
paper's own hand-built pairings: each *arm* is a (prefetcher, eviction)
pair, the run is sliced into epochs of ``EPOCH_BATCHES`` fault batches,
and at every epoch boundary the arm's reward — the *negative* stall +
fault-handling cost accrued during the epoch, per batch — updates its
running mean before the next arm is chosen epsilon-greedily.

The bandit is a *combined* policy: one class registered as both a
prefetcher and an eviction policy, sharing a single instance when both
roles select it so its epoch accounting sees each batch once.  Every
arm's evictor receives all bookkeeping hooks all the time — only
planning is routed to the active arm — so switching arms mid-run never
exposes an evictor with stale state; eviction plans are mirrored into
the passive arms as external invalidations to keep the books closed.

Determinism: exploration draws from a private ``random.Random`` seeded
from ``config.seed`` (never the shared ``ctx.rng``, whose draw sequence
the random policies own), so same-seed runs are byte-identical.
"""

from __future__ import annotations

import random

from ..core.context import UvmContext
from ..core.evict.base import EvictionPolicy, register_eviction
from ..core.evict.sequential_local import SequentialLocalPreEviction
from ..core.evict.tbn import TreeBasedNeighborhoodPreEviction
from ..core.plans import EvictionPlan, MigrationPlan
from ..core.prefetch.base import Prefetcher, register_prefetcher
from ..core.prefetch.sequential_local import SequentialLocalPrefetcher
from ..core.prefetch.tbn import TreeBasedNeighborhoodPrefetcher

#: Seed-mixing constant for the private exploration RNG.
_BANDIT_SALT = 0xB4AD17


class _Arm:
    """One candidate pairing with its running reward estimate."""

    __slots__ = ("label", "prefetcher", "eviction", "pulls", "mean")

    def __init__(self, label: str, prefetcher: Prefetcher,
                 eviction: EvictionPolicy) -> None:
        self.label = label
        self.prefetcher = prefetcher
        self.eviction = eviction
        self.pulls = 0
        self.mean = 0.0

    def update(self, reward: float) -> None:
        self.pulls += 1
        self.mean += (reward - self.mean) / self.pulls


@register_prefetcher
@register_eviction
class BanditPolicy(Prefetcher, EvictionPolicy):
    """Online pairing selection over the paper's hand-built arms."""

    name = "bandit"
    learned = True

    #: Fault batches per decision epoch.
    EPOCH_BATCHES = 24
    #: Exploration probability at each epoch boundary.
    EPSILON = 0.1

    def __init__(self) -> None:
        self._arms = self._build_arms()
        self._active = 0
        self._rng: random.Random | None = None
        self._epoch_batches = 0
        self._last_cost = 0.0

    @staticmethod
    def _build_arms() -> list[_Arm]:
        return [
            _Arm("TBNe+TBNp", TreeBasedNeighborhoodPrefetcher(),
                 TreeBasedNeighborhoodPreEviction()),
            _Arm("SLe+SLp", SequentialLocalPrefetcher(),
                 SequentialLocalPreEviction()),
        ]

    def reset(self) -> None:
        self._arms = self._build_arms()
        self._active = 0
        self._rng = None
        self._epoch_batches = 0
        self._last_cost = 0.0

    # --- diagnostics -------------------------------------------------------
    @property
    def active_pairing(self) -> str:
        """Label of the arm currently planning (diagnostics/tests)."""
        return self._arms[self._active].label

    def arm_means(self) -> dict[str, float]:
        """label -> running mean reward (diagnostics/tests)."""
        return {arm.label: arm.mean for arm in self._arms}

    # --- epoch accounting --------------------------------------------------
    @staticmethod
    def _cost(ctx: UvmContext) -> float:
        """Cumulative cost signal the reward differentiates."""
        stats = ctx.stats
        return stats.total_fault_handling_ns + stats.eviction_stall_ns

    def on_fault_batch(self, pages, ctx: UvmContext) -> None:
        if self._rng is None:
            self._rng = random.Random(_BANDIT_SALT ^ ctx.config.seed)
            self._last_cost = self._cost(ctx)
        self._epoch_batches += 1
        if self._epoch_batches < self.EPOCH_BATCHES:
            return
        cost = self._cost(ctx)
        reward = -(cost - self._last_cost) / self._epoch_batches
        self._arms[self._active].update(reward)
        self._last_cost = cost
        self._epoch_batches = 0
        if self._rng.random() < self.EPSILON:
            self._active = self._rng.randrange(len(self._arms))
        else:
            # Exploit: untried arms first, then best mean; ties resolve
            # to the lowest arm index — fully deterministic.
            untried = [i for i, arm in enumerate(self._arms)
                       if arm.pulls == 0]
            if untried:
                self._active = untried[0]
            else:
                best = max(arm.mean for arm in self._arms)
                self._active = next(
                    i for i, arm in enumerate(self._arms)
                    if arm.mean == best
                )

    # --- prefetcher role ---------------------------------------------------
    def plan(self, faulted_pages: list[int],
             ctx: UvmContext) -> MigrationPlan:
        return self._arms[self._active].prefetcher.plan(faulted_pages, ctx)

    # --- eviction role -----------------------------------------------------
    # Every arm's evictor stays fully fed so any arm can take over.
    def on_validated(self, page: int, ctx: UvmContext) -> None:
        for arm in self._arms:
            arm.eviction.on_validated(page, ctx)

    def on_accessed(self, page: int, ctx: UvmContext) -> None:
        for arm in self._arms:
            arm.eviction.on_accessed(page, ctx)

    def on_invalidated_externally(self, page: int,
                                  ctx: UvmContext) -> None:
        for arm in self._arms:
            arm.eviction.on_invalidated_externally(page, ctx)

    def evictable_pages(self) -> int:
        return self._arms[self._active].eviction.evictable_pages()

    def plan_eviction(self, n_pages: int, ctx: UvmContext) -> EvictionPlan:
        active = self._arms[self._active]
        plan = active.eviction.plan_eviction(n_pages, ctx)
        # The active arm removed the planned pages from its own books
        # (the contract); mirror the removal into the passive arms.
        pages = plan.all_pages()
        for arm in self._arms:
            if arm is active:
                continue
            for page in pages:
                arm.eviction.on_invalidated_externally(page, ctx)
        return plan
