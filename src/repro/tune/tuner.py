"""The tuner: one tournament per over-subscription level.

:func:`tune_workload` is the subsystem's single entry point.  For every
over-subscription level of the :class:`~repro.tune.space.SearchSpace` it
runs the configured search driver over the candidate set, scoring each
evaluation with the configured :class:`~repro.tune.objective.Objective`,
and assembles the per-level winner + deterministic ranking + Pareto
frontier into a recommendation card (see :mod:`repro.tune.cards`).

Determinism contract: the card is a pure function of (workload, scale,
space, driver, objective, seed).  Candidate enumeration order, random
sampling, rung promotion, ranking, and tie-breaking are all seeded or
ordered; simulation results are deterministic per cell (the sweep
layer's per-cell reseeding); and the evaluator backend (in-process,
``--jobs N`` pool, warm cache, or a ``repro serve`` daemon) is
invisible in the output by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import TuneError
from ..workloads.registry import bind_workload_spec, validate_scale
from .cards import CARD_FORMAT
from .drivers import GridSearch, SearchDriver, make_trial
from .evaluate import LocalEvaluator
from .objective import OBJECTIVES, Objective, pareto_frontier
from .space import Candidate, SearchSpace

#: Digits kept when deriving rung scales (``scale * fidelity``) — avoids
#: float-repr noise like ``0.21000000000000002`` in workload specs and
#: card JSON while staying deterministic.
_SCALE_DIGITS = 9


@dataclass
class TuneRequest:
    """Everything that identifies one tuning run (and hence one card)."""

    workload: str
    scale: float = 0.3
    space: SearchSpace = field(default_factory=SearchSpace)
    driver: SearchDriver = field(default_factory=GridSearch)
    objective: Objective = field(
        default_factory=lambda: OBJECTIVES["kernel-time"])
    seed: int = 0

    def __post_init__(self) -> None:
        self.scale = bind_workload_spec(
            {"name": self.workload, "scale": self.scale})["scale"]
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise TuneError(f"seed must be an integer, got {self.seed!r}")


def rung_scale(scale: float, fidelity: float) -> float:
    """The workload footprint scale of one fidelity rung."""
    return validate_scale(round(scale * fidelity, _SCALE_DIGITS),
                          "tuner fidelity scale")


def tune_workload(request: TuneRequest, evaluator=None) -> dict:
    """Run every tournament of ``request``; returns the card dict.

    ``evaluator`` defaults to :class:`LocalEvaluator` (in-process via the
    sweep layer, inheriting any open sweep context); pass a
    :class:`~repro.tune.evaluate.ServerEvaluator` to execute through a
    running ``repro serve`` daemon instead.
    """
    if evaluator is None:
        evaluator = LocalEvaluator()
    space = request.space
    objective = request.objective
    candidates = space.candidates()
    recommendations = []
    for percent in space.percents:

        def evaluate(chosen: list[Candidate], fidelity: float):
            scale = rung_scale(request.scale, fidelity)
            cells = [c.cell(request.workload, scale, percent,
                            seed=request.seed) for c in chosen]
            results = evaluator.run_cells(cells)
            return [make_trial(c, fidelity, r, objective)
                    for c, r in zip(chosen, results)]

        outcome = request.driver.search(candidates, evaluate)
        ranked = sorted(outcome.final_trials, key=lambda t: t.rank)
        if not ranked:
            raise TuneError(
                f"search produced no full-fidelity trials at {percent:g}%"
            )
        winner = ranked[0]
        if winner.failed is not None:
            raise TuneError(
                f"every candidate failed at {percent:g}% over-"
                f"subscription; best failure: {winner.failed}"
            )
        frontier = pareto_frontier([
            (t.candidate.key(), t.metrics)
            for t in outcome.final_trials if t.failed is None
        ])
        recommendations.append({
            "oversubscription_percent": percent,
            "winner": {
                "candidate": winner.candidate.to_json_dict(),
                "key": winner.candidate.key(),
                "score": winner.score,
                "metrics": dict(winner.metrics),
            },
            "ranking": [t.to_json_dict() for t in ranked],
            "pareto_frontier": frontier,
            "rungs": outcome.rungs,
            "evaluations": outcome.evaluations,
        })
    return {
        "format": CARD_FORMAT,
        "workload": request.workload,
        "scale": request.scale,
        "seed": request.seed,
        "objective": objective.to_json_dict(),
        "driver": request.driver.describe(),
        "space": space.to_json_dict(),
        "recommendations": recommendations,
    }


def recommended_pairing(card: dict, percent: float | None = None) -> str:
    """Shorthand: the winning pairing label at one level."""
    from .cards import recommendation_for
    return recommendation_for(card, percent)["winner"]["candidate"][
        "pairing"]
