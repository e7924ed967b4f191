"""Plan objects exchanged between policies and the driver.

Prefetchers produce :class:`MigrationPlan`\\ s (what to pull over the read
channel, grouped into contiguous transfers) and eviction policies produce
:class:`EvictionPlan`\\ s (what to push out over the write channel, grouped
into write-back units).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from ..errors import PolicyError
from ..memory.addressing import contiguous_runs


@dataclass
class TransferGroup:
    """One PCI-e read transaction: a contiguous, sorted run of pages.

    ``fault_pages`` are the pages some warp is actually blocked on (a
    subset of ``pages``); groups containing fault pages are scheduled
    ahead of pure-prefetch groups so warps resume as early as possible.

    Allocations are 2 MB aligned with a guard large page between them, so
    a group is one run inside one allocation: the driver applies it with
    one page-table, MSHR and eviction-hook call.
    """

    pages: list[int]
    fault_pages: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        pages = self.pages
        if not pages:
            raise PolicyError("transfer group cannot be empty")
        first = pages[0]
        if pages != list(range(first, first + len(pages))):
            raise PolicyError(
                f"transfer group must be contiguous, got runs "
                f"{contiguous_runs(pages)}"
            )
        fault_pages = self.fault_pages
        if fault_pages and not (first <= min(fault_pages)
                                and max(fault_pages) < first + len(pages)):
            raise PolicyError(
                f"transfer group fault pages "
                f"{sorted(fault_pages - set(pages))[:8]} lie outside its "
                f"pages [{first}, {first + len(pages)})"
            )

    @property
    def has_fault(self) -> bool:
        return bool(self.fault_pages)


@dataclass
class MigrationPlan:
    """All transfer groups planned for one fault batch."""

    groups: list[TransferGroup] = field(default_factory=list)

    @property
    def total_pages(self) -> int:
        return sum(len(g.pages) for g in self.groups)

    def all_pages(self) -> list[int]:
        return [p for g in self.groups for p in g.pages]

    def ordered_groups(self) -> list[TransferGroup]:
        """Fault-bearing groups first, then pure prefetch groups."""
        with_fault = [g for g in self.groups if g.fault_pages]
        without = [g for g in self.groups if not g.fault_pages]
        return with_fault + without


@dataclass
class EvictionUnit:
    """Pages invalidated together.

    ``unit_writeback`` selects the write-back style: True writes the whole
    unit back as a single transfer regardless of dirtiness (SLe/TBNe/2MB,
    Section 5.1); False writes back only dirty pages, one 4 KB transfer
    each, and drops clean pages for free (4 KB-granularity policies).
    A unit's pages lie in one allocation (a block, a 2 MB chunk or a
    page): the driver attributes the unit to its first page's allocation.
    """

    pages: list[int]
    unit_writeback: bool

    def __post_init__(self) -> None:
        if not self.pages:
            raise PolicyError("eviction unit cannot be empty")


@dataclass
class EvictionPlan:
    """All eviction units planned for one frame-shortage episode."""

    units: list[EvictionUnit] = field(default_factory=list)

    @property
    def total_pages(self) -> int:
        return sum(len(u.pages) for u in self.units)

    def all_pages(self) -> list[int]:
        return [p for u in self.units for p in u.pages]


def split_runs_at_faults(
    pages: list[int], fault_pages: set[int]
) -> list[TransferGroup]:
    """Turn a sorted page list into transfer groups.

    Pages are first merged into maximal contiguous runs; each run is then
    cut at fault/non-fault boundaries so contiguous faulted pages form
    *page-fault groups* and the rest form *prefetch groups* (the paper's
    split, Sections 3.2-3.3).  Fault groups complete — and wake their warps
    — without waiting for neighbouring prefetch bytes.  The cuts come from
    bisecting the sorted fault pages, so the cost grows with runs and
    faults, not with planned pages.
    """
    groups: list[TransferGroup] = []
    faults = sorted(fault_pages)
    for start, count in contiguous_runs(sorted(set(pages))):
        stop = start + count
        # The run's fault pages, themselves cut into contiguous runs.
        lo = bisect_left(faults, start)
        hi = bisect_left(faults, stop, lo)
        if lo == hi:
            # A prefetch-only run: one prefetch group.
            groups.append(TransferGroup(list(range(start, stop))))
            continue
        cursor = start
        for first, length in contiguous_runs(faults[lo:hi]):
            if cursor < first:
                groups.append(TransferGroup(list(range(cursor, first))))
            cursor = first + length
            fault_run = list(range(first, cursor))
            groups.append(TransferGroup(fault_run,
                                        fault_pages=frozenset(fault_run)))
        if cursor < stop:
            groups.append(TransferGroup(list(range(cursor, stop))))
    return groups
