"""Shared experiment infrastructure.

The paper's evaluation revolves around a handful of *settings*: a prefetcher
+ eviction-policy pairing, an over-subscription percentage, and optional
free-page buffer / LRU-reservation fractions.  :func:`combo_config` builds a
validated :class:`~repro.config.SimulatorConfig` for a setting,
:func:`run_suite_setting` evaluates the whole benchmark suite under it, and
:func:`run_settings` evaluates a suite under *many* settings at once — the
whole cross-product is enumerated as declarative
:class:`~repro.sweep.SweepCell` lists that
:func:`~repro.sweep.execute_cells` fans out (in parallel, and against the
run cache, when the CLI opens a :func:`~repro.sweep.sweep_context`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

from ..analysis.report import format_table
from ..config import SimulatorConfig, oversubscribed
from ..errors import ReproError, WorkloadError
from ..stats import FailedRun, SimStats
from ..sweep import SweepCell, execute_cells, run_cell
from ..workloads.base import Workload
from ..workloads.registry import (
    SUITE_ORDER,
    WORKLOAD_REGISTRY,
    make_workload,
)

#: The four pairings of Figure 11, in the paper's order: (label,
#: prefetcher, eviction, keep-prefetching-under-over-subscription).
COMBINATIONS: list[tuple[str, str, str, bool]] = [
    ("LRU4K+on-demand", "tbn", "lru4k", False),
    ("Re+Rp", "random", "random", True),
    ("SLe+SLp", "sequential-local", "sequential-local", True),
    ("TBNe+TBNp", "tbn", "tbn", True),
]


@dataclass
class ExperimentResult:
    """Rows of one experiment plus the metadata to print them."""

    name: str
    description: str
    headers: list[str]
    rows: list[list[object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Data behind the rows that a claim of :mod:`repro.validation`
    #: reads but the table does not print.
    detail: dict[str, object] = field(default_factory=dict)

    def add_row(self, *values: object) -> None:
        self.rows.append(list(values))

    def to_table(self) -> str:
        table = format_table(self.headers, self.rows,
                             title=f"{self.name}: {self.description}")
        if self.notes:
            table += "\n" + "\n".join(f"note: {n}" for n in self.notes)
        return table

    def column(self, header: str) -> list[object]:
        """All values of one column, by header name."""
        try:
            index = self.headers.index(header)
        except ValueError:
            available = ", ".join(repr(h) for h in self.headers)
            raise ReproError(
                f"{self.name} has no column {header!r}; "
                f"available columns: {available}"
            ) from None
        return [row[index] for row in self.rows]


def combo_config(
    workload: Workload,
    prefetcher: str,
    eviction: str,
    oversubscription_percent: float | None = None,
    prefetch_under_pressure: bool = False,
    free_page_buffer_fraction: float = 0.0,
    lru_reservation_fraction: float = 0.0,
    **overrides: object,
) -> SimulatorConfig:
    """Build the config for one experimental setting.

    ``oversubscription_percent=None`` means the working set fits (device
    memory unbounded).  Otherwise the device capacity is sized so the
    workload's footprint is that percentage of it (the paper's phrasing).
    """
    kwargs: dict[str, object] = dict(
        prefetcher=prefetcher,
        eviction=eviction,
        disable_prefetch_on_oversubscription=not prefetch_under_pressure,
        free_page_buffer_fraction=free_page_buffer_fraction,
        lru_reservation_fraction=lru_reservation_fraction,
    )
    kwargs.update(overrides)
    if oversubscription_percent is None:
        return SimulatorConfig(**kwargs)
    return oversubscribed(workload.footprint_bytes,
                          oversubscription_percent, **kwargs)


def resolve_workload_names(
    workload_names: Sequence[str] | None,
) -> list[str]:
    """Validate and normalize a workload-name selection.

    ``None`` means the paper's whole suite; an explicit empty list means
    *no* workloads (it used to silently mean "the whole suite" via a
    truthiness check).  Unknown names raise
    :class:`~repro.errors.WorkloadError` up front, before any simulation
    time is spent.
    """
    if workload_names is None:
        return list(SUITE_ORDER)
    names = list(workload_names)
    unknown = sorted(set(names) - set(WORKLOAD_REGISTRY))
    if unknown:
        known = ", ".join(sorted(WORKLOAD_REGISTRY))
        raise WorkloadError(
            f"unknown workload name(s): {', '.join(unknown)}; "
            f"known: {known}"
        )
    return names


#: In-process cell execution.  :func:`run_settings` looks this global up
#: at call time on purpose: fault-injection tests monkeypatch it to make
#: chosen workloads explode.
_local_runner = run_cell


def setting_cells(scale: float, names: Sequence[str],
                  label: Hashable = None,
                  **setting: object) -> list[SweepCell]:
    """One cell per workload for one experimental setting."""
    cells = []
    for name in names:
        workload = make_workload(name, scale=scale)
        cells.append(SweepCell(
            workload_spec={"name": name, "scale": scale},
            config=combo_config(workload, **setting),
            label=label,
        ))
    return cells


def run_settings(
    scale: float,
    workload_names: Sequence[str] | None,
    settings: Sequence[tuple[Hashable, dict]],
    isolate_failures: bool = False,
) -> dict[Hashable, dict[str, SimStats | FailedRun]]:
    """Run the (sub)suite under several settings in one fan-out.

    ``settings`` is a sequence of ``(label, combo_config-kwargs)`` pairs
    with unique labels; the result maps ``label -> workload -> stats``.
    Enumerating the full cross-product here (instead of one
    :func:`run_suite_setting` call per column) lets the executor spread
    an entire figure over the process pool at once.
    """
    names = resolve_workload_names(workload_names)
    labels = [label for label, _ in settings]
    if len(set(labels)) != len(labels):
        raise ReproError(f"duplicate setting labels: {labels!r}")
    cells: list[SweepCell] = []
    order: list[tuple[Hashable, str]] = []
    for label, setting in settings:
        cells.extend(setting_cells(scale, names, label=label, **setting))
        order.extend((label, name) for name in names)
    outcomes = execute_cells(cells, isolate_failures=isolate_failures,
                             local_runner=_local_runner)
    results: dict[Hashable, dict[str, SimStats | FailedRun]] = {
        label: {} for label in labels
    }
    for (label, name), outcome in zip(order, outcomes):
        results[label][name] = outcome
    return results


def run_suite_setting(
    scale: float,
    workload_names: Sequence[str] | None = None,
    isolate_failures: bool = False,
    **setting: object,
) -> dict[str, SimStats | FailedRun]:
    """Run the (sub)suite under one setting; returns name -> stats.

    ``workload_names=None`` runs the paper's whole suite; an explicit
    empty list runs nothing.  With ``isolate_failures=True`` a workload
    that raises a :class:`~repro.errors.ReproError` (retry exhaustion,
    watchdog abort, capacity misconfiguration, ...) contributes a
    :class:`FailedRun` row and the remaining workloads still run —
    essential for fault-injection sweeps where some settings are
    *expected* to break.
    """
    return run_settings(scale, workload_names, [(None, dict(setting))],
                        isolate_failures=isolate_failures)[None]
