"""N-gram/Markov fault-history prefetcher (learned baseline 1).

Long et al. ("Deep Learning based Data Prefetching in CPU-GPU Unified
Virtual Memory", arXiv 2203.12672) learn page-migration predictions
from the sequence of faulted regions.  This baseline distils that idea
into a deterministic, online-trained order-1 Markov model over 64 KB
basic-block transitions: every far-fault batch extends a transition
table ``prev_block -> {next_block: count}``, and planning migrates the
faulted blocks (sequential-local style) plus the most probable
next-blocks of the model.

Training happens in ``on_fault_batch`` — which the driver invokes for
*every* batch, including ones the prefetch gate routes to on-demand —
so the model keeps learning under memory pressure.  Prediction is
deterministic: candidates rank by (count desc, block asc), no RNG.
"""

from __future__ import annotations

from ..core.context import UvmContext
from ..core.plans import MigrationPlan, split_runs_at_faults
from ..core.prefetch.base import Prefetcher, register_prefetcher


@register_prefetcher
class NGramPrefetcher(Prefetcher):
    """Order-1 Markov predictor over the faulted-block sequence."""

    name = "ngram"
    learned = True

    #: Predicted blocks prefetched per batch beyond the faulted ones.
    MAX_PREDICTIONS = 4
    #: Transitions observed from a block before its predictions fire
    #: (below it, predictions are noise from a cold table).
    MIN_COUNT = 2

    def __init__(self) -> None:
        #: block -> {successor block: observation count}.
        self._transitions: dict[int, dict[int, int]] = {}
        #: Last faulted block of the previous batch (sequence stitch).
        self._last_block: int | None = None

    def reset(self) -> None:
        self._transitions.clear()
        self._last_block = None

    # --- online training ---------------------------------------------------
    def on_fault_batch(self, pages, ctx: UvmContext) -> None:
        prev = self._last_block
        seen: set[int] = set()
        for page in pages:
            block = ctx.space.block_of_page(page)
            if block in seen:
                continue
            seen.add(block)
            if prev is not None and prev != block:
                row = self._transitions.setdefault(prev, {})
                row[block] = row.get(block, 0) + 1
            prev = block
        self._last_block = prev

    # --- planning ----------------------------------------------------------
    def plan(self, faulted_pages: list[int],
             ctx: UvmContext) -> MigrationPlan:
        fault_set = set(faulted_pages)
        planned: set[int] = set(fault_set)
        blocks = sorted({ctx.space.block_of_page(p)
                         for p in faulted_pages})
        for block in blocks:
            planned.update(ctx.migratable_pages_in_block(block))
        for block in self._predict(blocks):
            if not ctx.block_fully_invalid(block):
                # Section 4.2 constraint shared with SLp/TBNp: debris
                # from 4 KB eviction disqualifies a block.
                continue
            planned.update(
                p for p in ctx.migratable_pages_in_block(block)
                if p not in planned
            )
        groups = split_runs_at_faults(sorted(planned), fault_set)
        return MigrationPlan(groups=groups)

    def _predict(self, fault_blocks: list[int]) -> list[int]:
        """The model's top next-blocks for this batch, ranked
        deterministically by (count desc, block asc)."""
        scored: dict[int, int] = {}
        exclude = set(fault_blocks)
        for block in fault_blocks:
            for nxt, count in self._transitions.get(block, {}).items():
                if nxt in exclude or count < self.MIN_COUNT:
                    continue
                if count > scored.get(nxt, 0):
                    scored[nxt] = count
        ranked = sorted(scored.items(), key=lambda kv: (-kv[1], kv[0]))
        return [block for block, _ in ranked[:self.MAX_PREDICTIONS]]
