"""Declarative search space of the policy auto-tuner.

A :class:`SearchSpace` names the axes the paper's evaluation sweeps by
hand — prefetcher/eviction pairing, over-subscription pressure, and the
driver knobs Section 7 ablates (TBN balancing threshold, fault-batch
size limit) — and enumerates their cross-product into
:class:`Candidate` points.  A candidate is pure data; pairing it with a
workload name, a footprint scale, and an over-subscription percentage
yields the same declarative :class:`~repro.sweep.SweepCell` every
experiment runs, so tuner evaluations share the content-addressed run
cache with ``repro experiment``/``repro sweep``/``repro serve``.

Enumeration order is deterministic (pairing-major, then threshold, then
batch limit) — one ingredient of the byte-identical recommendation-card
guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import PolicyError, TuneError
from ..experiments.common import COMBINATIONS, combo_config
from ..policy.registry import policy_class
from ..sweep import SweepCell
from ..workloads.registry import make_workload, validate_scale

#: The paper's four Figure-11 pairings, re-exported as the default
#: policy axis: (label, prefetcher, eviction, keep-prefetching).
DEFAULT_PAIRINGS: tuple[tuple[str, str, str, bool], ...] = \
    tuple(COMBINATIONS)


def pairings_axis(
    include_learned: bool = False,
) -> tuple[tuple[str, str, str, bool], ...]:
    """The pairing axis, optionally extended with the learned policies.

    Off by default so existing tune cards stay byte-stable; the CLI's
    ``--include-learned`` flag (and the autotune extension's
    ``include_learned``) opt in to the :data:`repro.policy
    .LEARNED_PAIRINGS` candidates.
    """
    if not include_learned:
        return DEFAULT_PAIRINGS
    from ..policy import LEARNED_PAIRINGS
    return DEFAULT_PAIRINGS + tuple(LEARNED_PAIRINGS)


@dataclass(frozen=True)
class Candidate:
    """One point of the policy/knob cross-product."""

    #: Human label of the policy pairing (e.g. ``"TBNe+TBNp"``).
    pairing: str
    prefetcher: str
    eviction: str
    #: Keep the hardware prefetcher running under over-subscription.
    keep_prefetching: bool
    #: TBNp/TBNe balancing threshold (Section 7.3 ablation knob).
    tbn_threshold: float = 0.5
    #: Max distinct faults drained per service batch (0 = unlimited).
    fault_batch_limit: int = 0

    def key(self) -> str:
        """Stable identity used for ranking tie-breaks and card JSON."""
        return (f"{self.pairing}|thr={self.tbn_threshold:g}"
                f"|batch={self.fault_batch_limit}")

    def to_json_dict(self) -> dict:
        return {
            "pairing": self.pairing,
            "prefetcher": self.prefetcher,
            "eviction": self.eviction,
            "keep_prefetching": self.keep_prefetching,
            "tbn_threshold": self.tbn_threshold,
            "fault_batch_limit": self.fault_batch_limit,
        }

    def cell(self, workload_name: str, scale: float, percent: float,
             seed: int = 0) -> SweepCell:
        """The sweep cell evaluating this candidate at one fidelity.

        ``scale`` is the (possibly rung-scaled) workload footprint;
        ``percent`` sizes device memory so the footprint is that
        percentage of it, exactly as every experiment does.
        """
        scale = validate_scale(scale, "tuner fidelity scale")
        workload = make_workload(workload_name, scale=scale)
        config = combo_config(
            workload,
            self.prefetcher,
            self.eviction,
            oversubscription_percent=percent,
            prefetch_under_pressure=self.keep_prefetching,
            tbn_threshold=self.tbn_threshold,
            fault_batch_limit=self.fault_batch_limit,
            seed=seed,
        )
        return SweepCell(
            workload_spec={"name": workload_name, "scale": scale},
            config=config,
            label=self.key(),
        )


@dataclass
class SearchSpace:
    """Axes of one tuning run; enumerates into :class:`Candidate` lists.

    ``percents`` is the over-subscription axis — each level runs its own
    tournament (the paper's winners are conditional on memory pressure,
    so a single global winner would answer the wrong question).  The
    remaining axes cross-multiply into the per-level candidate set.
    """

    percents: tuple[float, ...] = (105.0, 110.0, 125.0)
    pairings: tuple[tuple[str, str, str, bool], ...] = \
        field(default=DEFAULT_PAIRINGS)
    tbn_thresholds: tuple[float, ...] = (0.5,)
    fault_batch_limits: tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        self.percents = tuple(self.percents)
        self.pairings = tuple(tuple(p) for p in self.pairings)
        self.tbn_thresholds = tuple(self.tbn_thresholds)
        self.fault_batch_limits = tuple(self.fault_batch_limits)
        self.validate()

    def validate(self) -> None:
        """Raise :class:`~repro.errors.TuneError` on any empty or
        out-of-range axis, before any simulation time is spent."""
        if not self.percents:
            raise TuneError("search space has no over-subscription levels")
        for percent in self.percents:
            if not isinstance(percent, (int, float)) \
                    or isinstance(percent, bool) \
                    or not math.isfinite(percent) or percent < 100.0:
                raise TuneError(
                    f"over-subscription percent must be a finite number "
                    f">= 100, got {percent!r}"
                )
        if not self.pairings:
            raise TuneError("search space has no policy pairings")
        seen: set[str] = set()
        for pairing in self.pairings:
            if len(pairing) != 4:
                raise TuneError(
                    f"pairing must be (label, prefetcher, eviction, "
                    f"keep_prefetching), got {pairing!r}"
                )
            label, prefetcher, eviction, _keep = pairing
            if label in seen:
                raise TuneError(f"duplicate pairing label {label!r}")
            seen.add(label)
            try:
                policy_class(prefetcher, "prefetch")
                policy_class(eviction, "evict")
            except PolicyError as exc:
                raise TuneError(f"pairing {label!r}: {exc}") from None
        if not self.tbn_thresholds:
            raise TuneError("search space has no TBN thresholds")
        for threshold in self.tbn_thresholds:
            if not isinstance(threshold, (int, float)) \
                    or isinstance(threshold, bool) \
                    or not 0.0 < float(threshold) < 1.0:
                raise TuneError(
                    f"tbn_threshold must be in (0, 1), got {threshold!r}"
                )
        if not self.fault_batch_limits:
            raise TuneError("search space has no fault-batch limits")
        for limit in self.fault_batch_limits:
            if not isinstance(limit, int) or isinstance(limit, bool) \
                    or limit < 0:
                raise TuneError(
                    f"fault_batch_limit must be a non-negative integer, "
                    f"got {limit!r}"
                )

    def candidates(self) -> list[Candidate]:
        """The per-level candidate set, in deterministic order."""
        out = []
        for label, prefetcher, eviction, keep in self.pairings:
            for threshold in self.tbn_thresholds:
                for limit in self.fault_batch_limits:
                    out.append(Candidate(
                        pairing=label,
                        prefetcher=prefetcher,
                        eviction=eviction,
                        keep_prefetching=bool(keep),
                        tbn_threshold=float(threshold),
                        fault_batch_limit=int(limit),
                    ))
        return out

    def to_json_dict(self) -> dict:
        return {
            "percents": list(self.percents),
            "pairings": [list(p) for p in self.pairings],
            "tbn_thresholds": list(self.tbn_thresholds),
            "fault_batch_limits": list(self.fault_batch_limits),
        }
