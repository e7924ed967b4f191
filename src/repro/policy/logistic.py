"""Feature-hashed logistic evictor (learned baseline 3).

Scores eviction-candidate 64 KB blocks with an online-trained logistic
model over hashed (feature, bucket) pairs — recency rank, valid-page
density, and fault-neighbourhood — and evicts the block *least* likely
to be reused.  Bookkeeping is the same hierarchical LRU the hand-built
block policies use; the model only re-ranks the LRU's head.

Supervision is self-generated thrash feedback: each evicted page
remembers the feature vector of its eviction decision; if the page
migrates back while still remembered (``on_validated``), that decision
trains toward "reused" (label 1), and decisions whose pages age out of
the memory window without returning train toward "not reused" (label
0) by plain SGD on a list of weights.  A score is an exactly rounded
``math.fsum`` over a sparse ``{index: value}`` feature vector, and the
hashing is explicit Knuth multiplicative mixing (never Python's salted
``hash``), so same-seed runs are byte-identical.
"""

from __future__ import annotations

import math
from collections import OrderedDict

from ..core.context import UvmContext
from ..core.evict.base import BlockLruEviction, register_eviction
from ..memory.lru import HierarchicalLRU

#: Knuth multiplicative-hash constant (2654435761 = 2^32 / phi).
_MIX = 2654435761
_MOD = 1 << 32


def _feature_index(feature_id: int, bucket: int, dim: int) -> int:
    """Deterministic (feature, bucket) -> weight-index hash."""
    return ((feature_id * 1000003 + bucket) * _MIX % _MOD) % dim


@register_eviction
class LogisticEvictor(BlockLruEviction):
    """Evicts the candidate block with the lowest predicted reuse."""

    name = "logistic"
    supports_fastpath = False
    learned = True

    #: Hashed weight-vector dimensionality.
    DIM = 64
    #: SGD step size.
    LEARNING_RATE = 0.1
    #: LRU-head blocks scored per victim selection.
    CANDIDATES = 8
    #: Evicted pages remembered for thrash feedback.
    RECENT_WINDOW = 2048
    #: Density buckets (valid pages per block quantized).
    DENSITY_BUCKETS = 4

    #: Recently faulted blocks kept for the neighbourhood feature.
    _hot_limit = 64

    def reset(self) -> None:
        super().reset()
        self._weights = [0.0] * self.DIM
        #: Evicted page -> feature vector of the eviction decision.
        self._recent: OrderedDict[int, dict[int, float]] = OrderedDict()
        #: Blocks faulted in the last few batches (neighbourhood signal).
        self._hot_blocks: OrderedDict[int, None] = OrderedDict()

    # --- bookkeeping -------------------------------------------------------
    def on_fault_batch(self, pages, ctx: UvmContext) -> None:
        for page in pages:
            block = ctx.space.block_of_page(page)
            self._hot_blocks.pop(block, None)
            self._hot_blocks[block] = None
        while len(self._hot_blocks) > self._hot_limit:
            self._hot_blocks.popitem(last=False)

    def on_validated(self, page: int, ctx: UvmContext) -> None:
        features = self._recent.pop(page, None)
        if features is not None:
            # A remembered eviction came back: it evicted a live page.
            self._train(features, label=1.0)
        super().on_validated(page, ctx)

    # --- model -------------------------------------------------------------
    def _features(self, rank: int, block: int,
                  ctx: UvmContext) -> dict[int, float]:
        """Sparse hashed features of one block, in index order."""
        pages_per_block = ctx.config.pages_per_block
        valid = sum(
            1 for page in ctx.space.pages_in_block(block)
            if ctx.page_table.is_valid(page)
        )
        density_bucket = min(
            self.DENSITY_BUCKETS - 1,
            valid * self.DENSITY_BUCKETS // max(pages_per_block, 1),
        )
        near_fault = int(block in self._hot_blocks
                         or block - 1 in self._hot_blocks
                         or block + 1 in self._hot_blocks)
        x: dict[int, float] = {}
        for index in (_feature_index(0, 0, self.DIM),  # bias
                      _feature_index(1, rank, self.DIM),  # recency rank
                      _feature_index(2, density_bucket, self.DIM),
                      _feature_index(3, near_fault, self.DIM)):
            x[index] = x.get(index, 0.0) + 1.0
        return dict(sorted(x.items()))

    def _score(self, x: dict[int, float]) -> float:
        """P(reuse) under the current weights."""
        z = math.fsum(self._weights[i] * v for i, v in x.items())
        if z >= 0:
            return 1.0 / (1.0 + math.exp(-z))
        ez = math.exp(z)
        return ez / (1.0 + ez)

    def _train(self, x: dict[int, float], label: float) -> None:
        step = self.LEARNING_RATE * (self._score(x) - label)
        weights = self._weights
        for i, v in x.items():
            weights[i] -= step * v

    # --- planning ----------------------------------------------------------
    def _evict_next(self, lru: HierarchicalLRU,
                    ctx: UvmContext) -> list[list[int]]:
        block, features = self._pick_block(lru, ctx)
        pages = sorted(lru.remove_block(block))
        self._remember(pages, features)
        return [pages]

    def _pick_block(self, lru: HierarchicalLRU,
                    ctx: UvmContext) -> tuple[int, dict[int, float]]:
        """The candidate block with the lowest predicted reuse.

        Ties resolve to the oldest candidate (strict ``<``), so an
        untrained model degrades to plain SLe behaviour.
        """
        candidates = lru.blocks_in_order()[:self.CANDIDATES]
        best_block = candidates[0]
        best_features = self._features(0, best_block, ctx)
        best_score = self._score(best_features)
        for rank, block in enumerate(candidates[1:], start=1):
            features = self._features(rank, block, ctx)
            score = self._score(features)
            if score < best_score:
                best_block, best_features, best_score = \
                    block, features, score
        return best_block, best_features

    def _remember(self, pages: list[int],
                  features: dict[int, float]) -> None:
        """Track an eviction decision; expire old ones as label 0."""
        for page in pages:
            self._recent.pop(page, None)
            self._recent[page] = features
        while len(self._recent) > self.RECENT_WINDOW:
            _, expired = self._recent.popitem(last=False)
            # Aged out without returning: the eviction was safe.
            self._train(expired, label=0.0)
