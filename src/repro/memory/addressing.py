"""Address arithmetic shared by the whole memory system.

Virtual addresses are plain integers (bytes).  Three granularities matter:

* 4 KB **pages** — the migration unit of on-demand paging,
* 64 KB **basic blocks** — the prefetch/pre-eviction unit (16 pages),
* 2 MB **large pages** — the root of each prefetcher binary tree (512 pages).

:class:`AddressSpace` bundles the three sizes so alternative geometries can
be simulated; module-level helpers use the paper's defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, islice
from operator import sub

from .. import constants


@dataclass(frozen=True)
class AddressSpace:
    """Page/block/large-page geometry and the index math over it.

    The three size ratios are computed once, at construction; they are
    derived, so they take no part in equality, hashing or ``repr``.
    """

    page_size: int = constants.PAGE_SIZE
    block_size: int = constants.BASIC_BLOCK_SIZE
    large_page_size: int = constants.LARGE_PAGE_SIZE
    pages_per_block: int = field(init=False, repr=False, compare=False)
    blocks_per_large_page: int = field(init=False, repr=False,
                                       compare=False)
    pages_per_large_page: int = field(init=False, repr=False,
                                      compare=False)

    def __post_init__(self) -> None:
        derive = object.__setattr__  # the dataclass is frozen
        derive(self, "pages_per_block", self.block_size // self.page_size)
        derive(self, "blocks_per_large_page",
               self.large_page_size // self.block_size)
        derive(self, "pages_per_large_page",
               self.large_page_size // self.page_size)

    # --- byte address -> index ---------------------------------------------
    def page_of(self, addr: int) -> int:
        """Global 4 KB page index containing byte address ``addr``."""
        return addr // self.page_size

    def block_of(self, addr: int) -> int:
        """Global 64 KB basic-block index containing ``addr``."""
        return addr // self.block_size

    def large_page_of(self, addr: int) -> int:
        """Global 2 MB large-page index containing ``addr``."""
        return addr // self.large_page_size

    # --- index conversions ---------------------------------------------------
    def block_of_page(self, page: int) -> int:
        """Basic-block index containing page index ``page``."""
        return page // self.pages_per_block

    def large_page_of_page(self, page: int) -> int:
        """Large-page index containing page index ``page``."""
        return page // self.pages_per_large_page

    def pages_in_block(self, block: int) -> range:
        """Page indices covered by basic block ``block``."""
        first = block * self.pages_per_block
        return range(first, first + self.pages_per_block)

    def blocks_in_large_page(self, large_page: int) -> range:
        """Basic-block indices covered by large page ``large_page``."""
        first = large_page * self.blocks_per_large_page
        return range(first, first + self.blocks_per_large_page)

    def pages_in_large_page(self, large_page: int) -> range:
        """Page indices covered by large page ``large_page``."""
        first = large_page * self.pages_per_large_page
        return range(first, first + self.pages_per_large_page)

    # --- address helpers -----------------------------------------------------
    def page_address(self, page: int) -> int:
        """Byte address of the start of page ``page``."""
        return page * self.page_size

    def block_address(self, block: int) -> int:
        """Byte address of the start of basic block ``block``."""
        return block * self.block_size

    def align_up(self, value: int, granularity: int) -> int:
        """Round ``value`` up to a multiple of ``granularity``."""
        return -(-value // granularity) * granularity

    def align_down(self, value: int, granularity: int) -> int:
        """Round ``value`` down to a multiple of ``granularity``."""
        return (value // granularity) * granularity


#: Default geometry (4 KB / 64 KB / 2 MB) used throughout the paper.
DEFAULT_ADDRESS_SPACE = AddressSpace()


def contiguous_runs(pages: list[int]) -> list[tuple[int, int]]:
    """Collapse a sorted list of page indices into (first, count) runs.

    Used to merge prefetch candidates that are contiguous in the virtual
    address space into single PCI-e transfers (Section 3.3: "as GMMU finds
    four consecutive basic blocks, it groups them together").
    """
    if not pages:
        return []
    # Run boundaries: the indices whose page does not follow its
    # predecessor, found by C-level iterators over the page differences.
    steps = map(sub, islice(pages, 1, None), pages)
    cuts = [0, *compress(range(1, len(pages)), map((1).__ne__, steps)),
            len(pages)]
    return [(pages[lo], hi - lo) for lo, hi in zip(cuts, cuts[1:])]


def round_up_pow2_blocks(size: int, block_size: int) -> int:
    """Round ``size`` up to ``2**i * block_size``.

    The paper rounds trailing (non-2MB) allocation remainders up to the next
    power-of-two multiple of 64 KB so a full binary tree can be built over
    them (Section 3.3, the 4MB+192KB -> 4MB+256KB example).
    """
    if size <= 0:
        raise ValueError("size must be positive")
    blocks = -(-size // block_size)
    pow2 = 1
    while pow2 < blocks:
        pow2 *= 2
    return pow2 * block_size
