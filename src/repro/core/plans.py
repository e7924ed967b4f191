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


@dataclass(init=False, slots=True)
class TransferGroup:
    """One PCI-e read transaction: a contiguous run of pages that is
    wholly a *page-fault group* or wholly a *prefetch group*.

    ``pages`` is a ``range``; ``has_fault`` says whether warps are
    blocked on its pages.  Fault groups are scheduled ahead of
    pure-prefetch groups so warps resume as early as possible.  A policy
    may hand over ``pages`` as an ascending list and ``fault_pages`` as
    any collection of page numbers: they must be every page of the run
    or none of them, else :class:`PolicyError` (a group never mixes
    fault and prefetch pages, so ``split_runs_at_faults`` is how a plan
    cuts them apart).

    Allocations are 2 MB aligned with a guard large page between them, so
    a group is one run inside one allocation: the driver applies it with
    one page-table, MSHR and eviction-hook call.
    """

    pages: range
    has_fault: bool

    def __init__(self, pages, fault_pages=()) -> None:
        if type(pages) is not range or pages.step != 1:
            pages = _as_run(pages)
        elif not pages:
            raise PolicyError("transfer group cannot be empty")
        self.pages = pages
        # The splitter passes the run itself: one range comparison.
        if fault_pages and fault_pages != pages:
            _check_whole_run(pages, fault_pages)
        self.has_fault = bool(fault_pages)

    @property
    def fault_pages(self) -> frozenset[int]:
        """The pages warps are blocked on: all of ``pages`` or none
        (built on each call; the driver reads ``has_fault``)."""
        return frozenset(self.pages) if self.has_fault else frozenset()


def _as_run(pages) -> range:
    """``pages`` as a ``range``; PolicyError unless one ascending run."""
    pages = list(pages)
    if not pages:
        raise PolicyError("transfer group cannot be empty")
    run = range(pages[0], pages[0] + len(pages))
    if pages != list(run):
        raise PolicyError(
            f"transfer group must be contiguous, got runs "
            f"{contiguous_runs(pages)}"
        )
    return run


def _check_whole_run(pages: range, fault_pages) -> None:
    """PolicyError unless ``fault_pages`` are exactly the run's pages."""
    faults = set(fault_pages)
    outside = faults.difference(pages)
    if outside:
        raise PolicyError(
            f"transfer group fault pages {sorted(outside)[:8]} lie "
            f"outside its pages [{pages.start}, {pages.stop})"
        )
    if len(faults) != len(pages):
        raise PolicyError(
            f"transfer group [{pages.start}, {pages.stop}) mixes "
            f"{len(faults)} fault pages with {len(pages) - len(faults)} "
            f"prefetch pages; split it with split_runs_at_faults"
        )


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
        """Fault groups first, then pure prefetch groups."""
        with_fault = [g for g in self.groups if g.has_fault]
        without = [g for g in self.groups if not g.has_fault]
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
            groups.append(TransferGroup(range(start, stop)))
            continue
        cursor = start
        for first, length in contiguous_runs(faults[lo:hi]):
            if cursor < first:
                groups.append(TransferGroup(range(cursor, first)))
            cursor = first + length
            fault_run = range(first, cursor)
            groups.append(TransferGroup(fault_run, fault_run))
        if cursor < stop:
            groups.append(TransferGroup(range(cursor, stop)))
    return groups
