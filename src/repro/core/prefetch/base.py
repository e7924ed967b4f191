"""Prefetcher interface and registry.

A prefetcher turns the faulted pages of one batch into a
:class:`~repro.core.plans.MigrationPlan`: which pages to migrate, grouped
into contiguous PCI-e transfers, with fault pages flagged so their transfers
are scheduled first.

Contract:

* every faulted page appears in exactly one group;
* every planned page is INVALID in the page table at planning time;
* groups are contiguous page runs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

from ...policy.base import Policy
from ...policy.registry import policy_class
from ..context import UvmContext
from ..plans import MigrationPlan


class Prefetcher(Policy, ABC):
    """Base class of all hardware prefetchers.

    A prefetcher is a :class:`~repro.policy.base.Policy`: it inherits
    the full observation-hook set (``on_fault_batch``, ``reset``, ...)
    as no-ops and adds the planning method of the prefetch role.
    """

    @abstractmethod
    def plan(self, faulted_pages: list[int],
             ctx: UvmContext) -> MigrationPlan:
        """Plan the migrations for one batch of faulted pages."""


PREFETCHER_REGISTRY: dict[str, Callable[[], Prefetcher]] = {}


def register_prefetcher(cls: type[Prefetcher]) -> type[Prefetcher]:
    """Class decorator adding a prefetcher to the registry."""
    PREFETCHER_REGISTRY[cls.name] = cls
    return cls


def make_prefetcher(name: str) -> Prefetcher:
    """Instantiate a prefetcher by registry name."""
    return policy_class(name, "prefetch")()
