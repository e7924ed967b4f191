"""Parallel sweep executor and content-addressed run cache.

The paper's evaluation is a large workload x prefetcher x eviction x
over-subscription cross-product; this package turns each point into a
declarative :class:`SweepCell`, executes cells over a process pool with
deterministic per-cell seeding, and memoizes results on disk keyed by
content hash.  A cell and its result each have one JSON form
(:meth:`SweepCell.to_dict`, :func:`encode_result`), which every carrier
— cache, pool, serve worker pipe, journal, HTTP — uses.  See docs/SWEEP.md.
"""

from .cache import (
    CACHE_FORMAT,
    DEFAULT_CACHE_DIR,
    RunCache,
    resolve_cache_dir,
)
from .cells import CELL_FORMAT, SweepCell, decode_result, encode_result
from .executor import (
    SweepReport,
    active_report,
    execute_cell,
    execute_cells,
    run_cell,
    sweep_context,
)

__all__ = [
    "CACHE_FORMAT",
    "CELL_FORMAT",
    "DEFAULT_CACHE_DIR",
    "RunCache",
    "SweepCell",
    "SweepReport",
    "active_report",
    "decode_result",
    "encode_result",
    "execute_cell",
    "execute_cells",
    "resolve_cache_dir",
    "run_cell",
    "sweep_context",
]
