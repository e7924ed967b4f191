"""Process-pool sweep executor.

:func:`execute_cells` fans a list of declarative
:class:`~repro.sweep.cells.SweepCell` jobs out over a
``ProcessPoolExecutor`` (``jobs > 1``) or runs them in-process
(``jobs == 1``), consulting a :class:`~repro.sweep.cache.RunCache`
first when one is active.  Results come back in *input order* regardless
of completion order, and every worker re-seeds deterministically per
cell, so a parallel sweep is byte-identical to a serial one at the same
seed.

Pool workers receive the cell's :meth:`SweepCell.to_dict` form and
answer the :func:`~repro.sweep.cells.encode_result` form — no live
simulator state ever crosses the process boundary, and the transport is
the cache format's: a freshly-executed cell and a cache hit are
indistinguishable by construction.

Experiment code does not pass ``jobs``/``cache`` around; the CLI opens a
:func:`sweep_context` and every :func:`execute_cells` call inside it
inherits the settings.  The default context is serial and uncached, so
library callers (and the test suite) see no behavioural change unless a
context is opened.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from ..errors import ReproError, SweepError
from ..stats import FailedRun, SimStats
from .cache import RunCache
from .cells import SweepCell, decode_result, encode_result


@dataclass
class SweepReport:
    """Counters of one sweep context: what actually ran vs was reused."""

    #: Simulations executed (serially or in workers) in this context.
    executed: int = 0
    #: Cells served from the run cache without executing anything.
    cached: int = 0
    #: Executed cells that produced a :class:`FailedRun` row.
    failed: int = 0

    def summary(self) -> str:
        return (f"{self.executed} simulation(s) executed, "
                f"{self.cached} cell(s) from cache, "
                f"{self.failed} failure(s)")


@dataclass
class _SweepOptions:
    jobs: int = 1
    cache: RunCache | None = None
    report: SweepReport = field(default_factory=SweepReport)


_active = _SweepOptions()


@contextmanager
def sweep_context(jobs: int = 1,
                  cache: RunCache | None = None) -> Iterator[SweepReport]:
    """Scope within which :func:`execute_cells` parallelizes and caches.

    Yields the context's :class:`SweepReport`; contexts nest, restoring
    the previous settings on exit.
    """
    global _active
    previous = _active
    _active = _SweepOptions(jobs=max(1, int(jobs)), cache=cache)
    try:
        yield _active.report
    finally:
        _active = previous


def active_report() -> SweepReport:
    """The report of the innermost open :func:`sweep_context`."""
    return _active.report


def run_cell(cell: SweepCell) -> SimStats:
    """Build the cell's workload and run it on a fresh runtime."""
    from ..runtime import UvmRuntime
    from ..workloads.registry import make_workload

    workload = make_workload(**cell.workload_spec)
    return UvmRuntime(cell.config).run_workload(workload)


def execute_cell(
    cell: SweepCell,
    cache: RunCache | None = None,
    isolate_failures: bool = True,
    runner: Callable[[SweepCell], SimStats] | None = None,
) -> tuple[SimStats | FailedRun, bool]:
    """Run one cell; returns ``(result, cache_hit)``.

    The one execution sequence of the package — :func:`execute_cells`
    (serial loop and pool workers alike) and the :mod:`repro.serve`
    job workers all go through it: the cache is consulted first, the
    RNG is re-seeded from the cell's content hash, ``runner`` (default
    :func:`run_cell`) executes, and the executed result is stored back.
    With ``isolate_failures`` (the default here — a resident service
    must not die with a cell) a :class:`ReproError` becomes a
    :class:`FailedRun` row; without it the original exception
    propagates.
    """
    key = cell.cache_key()
    if cache is not None:
        hit = cache.load(key)
        if hit is not None:
            return hit, True
    random.seed(cell.derived_seed())
    try:
        result: SimStats | FailedRun = (runner or run_cell)(cell)
    except ReproError as exc:
        if not isolate_failures:
            raise
        result = cell.failed(exc)
    if cache is not None:
        cache.store(key, cell, result)
    return result, False


def _pool_job(cell_form: dict) -> dict:
    """Pool worker entry point: run one cell, answer its result form.

    Must stay a module-level function (picklable under every
    multiprocessing start method).  ``ReproError`` failures come back as
    data — the parent decides whether to isolate or raise — because
    library exceptions with required constructor arguments do not
    survive unpickling.
    """
    result, _ = execute_cell(SweepCell.from_dict(cell_form))
    return encode_result(result)


def _pool_runner(pool: ProcessPoolExecutor, misses: list[SweepCell]
                 ) -> Callable[[SweepCell], SimStats]:
    """A runner that answers from ``pool``.

    ``misses`` (the cells without a cache file) start in the pool at
    once, so the in-order :func:`execute_cell` loop only collects; a
    cell whose file turns out corrupt is submitted when its load misses.
    """
    futures: dict = {}

    def submit(cell: SweepCell):
        key = cell.cache_key()
        if key not in futures:
            futures[key] = pool.submit(_pool_job, cell.to_dict())
        return futures[key]

    for cell in misses:
        submit(cell)
    return lambda cell: decode_result(submit(cell).result())


def execute_cells(
    cells: Sequence[SweepCell],
    isolate_failures: bool = False,
    jobs: int | None = None,
    cache: RunCache | None = None,
    local_runner: Callable[[SweepCell], SimStats] | None = None,
) -> list[SimStats | FailedRun]:
    """Run every cell; returns results aligned with the input order.

    ``jobs``/``cache`` default to the enclosing :func:`sweep_context`
    (serial and uncached when none is open).  ``local_runner`` overrides
    how a cell executes *in this process* — the experiment layer routes
    it through ``experiments.common._local_runner`` so failure-injection
    tests can monkeypatch a single seam.

    Cells run through :func:`execute_cell` in input order, so results
    are stored in the cache in cell order whether they were executed
    here or in a pool worker.  With ``isolate_failures=True`` a cell
    whose run raises :class:`ReproError` yields a :class:`FailedRun`
    row; without it the serial path re-raises the original exception,
    while parallel/cached failures surface as
    :class:`~repro.errors.SweepError`.
    """
    cells = list(cells)
    options = _active
    if jobs is None:
        jobs = options.jobs
    if cache is None:
        cache = options.cache
    report = options.report

    misses: list[SweepCell] = []
    if jobs > 1:
        misses = [cell for cell in cells if cache is None
                  or not cache.path_for(cell.cache_key()).exists()]
    workers = min(jobs, len(misses))
    results: list[SimStats | FailedRun] = []
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 \
            else nullcontext() as pool:
        runner = local_runner if pool is None \
            else _pool_runner(pool, misses)
        for cell in cells:
            result, hit = execute_cell(cell, cache, isolate_failures,
                                       runner)
            if hit:
                report.cached += 1
            else:
                report.executed += 1
                report.failed += isinstance(result, FailedRun)
            results.append(result)

    if not isolate_failures:
        for cell, result in zip(cells, results):
            if isinstance(result, FailedRun):
                raise SweepError(
                    f"sweep cell {cell.workload_spec['name']!r} "
                    f"failed with {result.error_type}: {result.message}"
                )
    return results
