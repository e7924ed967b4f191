"""Detailed multi-level page-table walk model.

The paper charges a fixed 100 core cycles per walk (Table 2), citing the
multi-threaded walker of Ausavarungnirun et al. [3] and the
dimensionality-reduction work of Gandhi et al. [9].  This module provides
the detailed alternative: a 4-level x86-64-style radix walk where each
level costs one device-memory access unless a Page Walk Cache (PWC) holds
the intermediate entry.

Select it with ``SimulatorConfig(page_walk_model="radix")``; the default
``"fixed"`` reproduces the paper's constant.  The simulator's radix walk
uses the constructor defaults, 50 cycles per level and a 64-entry PWC;
with them it averages close to 100 cycles for walks with good
upper-level locality and substantially more for sparse access patterns —
which is exactly the effect the cited works measure.
"""

from __future__ import annotations

from collections import OrderedDict

from ..errors import ConfigurationError

#: Virtual-address bits consumed per radix level (x86-64 4KB paging).
BITS_PER_LEVEL = 9
#: Number of radix levels above the 4 KB page (PML4, PDPT, PD, PT).
NUM_LEVELS = 4


class PageWalkCache:
    """LRU cache of intermediate page-table entries, keyed per level.

    Entry key: (level, virtual prefix covered by that level's entry).
    A hit at a low level lets the walk skip every level above it.
    """

    def __init__(self, entries: int) -> None:
        if entries <= 0:
            raise ConfigurationError("PWC needs at least one entry")
        self.capacity = entries
        self._entries: OrderedDict[tuple[int, int], None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lookup(self, level: int, prefix: int) -> bool:
        key = (level, prefix)
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, level: int, prefix: int) -> None:
        key = (level, prefix)
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
        self._entries[key] = None

    def __len__(self) -> int:
        return len(self._entries)


class RadixWalker:
    """4-level walk latency with PWC short-circuiting.

    ``cycles_per_level`` models one GDDR access by the walker per level
    (the GMMU's walkers access local device memory, not PCI-e).
    """

    def __init__(self, cycles_per_level: int = 50,
                 pwc_entries: int = 64) -> None:
        if cycles_per_level <= 0:
            raise ConfigurationError("cycles_per_level must be positive")
        self.cycles_per_level = cycles_per_level
        self.pwc = PageWalkCache(pwc_entries)
        self.walks = 0
        self.levels_walked = 0

    def walk_cycles(self, page: int) -> int:
        """Cycles for one walk translating 4 KB page index ``page``.

        Levels are probed bottom-up in the PWC: the deepest cached
        intermediate entry is the walk's starting point.  The leaf PTE
        itself always costs one access (it is what the walk fetches).
        """
        self.walks += 1
        # Level 1 covers 2MB regions (the PT page), level 2 covers 1GB,
        # and so on; prefix(level) = page >> (BITS_PER_LEVEL * level).
        start_level = NUM_LEVELS
        for level in range(1, NUM_LEVELS):
            if self.pwc.lookup(level, page >> (BITS_PER_LEVEL * level)):
                start_level = level
                break
        # Walk from start_level down to the leaf: one access per level.
        accesses = start_level
        for level in range(1, start_level):
            self.pwc.insert(level, page >> (BITS_PER_LEVEL * level))
        self.levels_walked += accesses
        return accesses * self.cycles_per_level

    @property
    def mean_levels_per_walk(self) -> float:
        """Average memory accesses per walk (diagnostics)."""
        return self.levels_walked / self.walks if self.walks else 0.0


class FixedWalker:
    """The paper's Table 2 model: every walk costs a constant latency."""

    def __init__(self, cycles: int = 100) -> None:
        if cycles <= 0:
            raise ConfigurationError("walk cycles must be positive")
        self.cycles = cycles
        self.walks = 0

    def walk_cycles(self, page: int) -> int:
        self.walks += 1
        return self.cycles


def make_walker(model: str, fixed_cycles: int):
    """Factory keyed by ``SimulatorConfig.page_walk_model``."""
    if model == "fixed":
        return FixedWalker(fixed_cycles)
    if model == "radix":
        return RadixWalker()
    raise ConfigurationError(
        f"unknown page_walk_model {model!r}; use 'fixed' or 'radix'"
    )
