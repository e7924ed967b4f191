"""Tree-based neighborhood (TBNp) prefetcher — the NVIDIA driver semantics
the paper reverse-engineered (Section 3.3).

Per faulted basic block: migrate the block, update the to-be-valid size of
its ancestors up to the root, and wherever a node exceeds 50% of capacity,
balance its children by prefetching into the smaller one (recursively).  All
chosen blocks that end up contiguous in the virtual address space are merged
into single transfers, split only at fault/prefetch group boundaries (the
"4KB and 252KB" example of Figure 2b).
"""

from __future__ import annotations

from ..context import UvmContext
from ..plans import MigrationPlan, split_runs_at_faults
from .base import Prefetcher, register_prefetcher


@register_prefetcher
class TreeBasedNeighborhoodPrefetcher(Prefetcher):
    """Full-binary-tree balancing prefetcher (adaptive 64KB..1MB)."""

    name = "tbn"

    def plan(self, faulted_pages: list[int],
             ctx: UvmContext) -> MigrationPlan:
        fault_set = set(faulted_pages)
        planned: set[int] = set()
        fault_blocks: list[int] = []
        seen_blocks: set[int] = set()
        for page in faulted_pages:
            block = ctx.space.block_of_page(page)
            if block not in seen_blocks:
                seen_blocks.add(block)
                fault_blocks.append(block)
        for block in fault_blocks:
            tree = ctx.tree_for_block(block)
            block_pages = [
                p for p in ctx.migratable_pages_in_block(block)
                if p not in planned
            ]
            planned.update(block_pages)
            ctx.adjust_trees_for_pages(block_pages, +1)
            balance_plan = tree.balance_after_fill(block)
            for pf_block, nbytes in balance_plan.items():
                self._claim_prefetch_pages(
                    pf_block, nbytes, planned, tree, ctx
                )
        groups = split_runs_at_faults(sorted(planned), fault_set)
        return MigrationPlan(groups=groups)

    @staticmethod
    def _claim_prefetch_pages(block: int, nbytes: int, planned: set[int],
                              tree, ctx: UvmContext) -> None:
        """Resolve a (block, bytes) tree decision to concrete pages.

        Prefetching "relies on contiguous invalid pages of 64KB basic block
        size" (Section 4.2): a block that 4 KB eviction left partially valid
        is skipped.  The tree plans in bytes over the *rounded* allocation
        extent; pages past the requested extent (tree padding) are not
        actually migrated.  Both differences are credited back to the tree.
        """
        page_size = ctx.config.page_size
        wanted = nbytes // page_size
        if ctx.block_fully_invalid(block):
            candidates = [
                p for p in ctx.migratable_pages_in_block(block)
                if p not in planned
            ]
        else:
            candidates = []
        chosen = candidates[:wanted]
        planned.update(chosen)
        shortfall = wanted - len(chosen)
        if shortfall > 0:
            tree.adjust_block(block, -shortfall * page_size)
