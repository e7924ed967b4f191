"""Policy auto-tuning: search the paper's design space automatically.

The paper's central result is that the best prefetcher/eviction pairing
is *conditional* — it shifts with access pattern and memory pressure.
This package answers the question that poses operationally: given a
workload at an over-subscription level, which policy pair should run?

Pieces (see docs/TUNING.md):

* :class:`SearchSpace` / :class:`Candidate` — declarative axes
  (pairing x TBN threshold x fault-batch limit, per over-subscription
  level) enumerated deterministically,
* :class:`Objective` / :data:`OBJECTIVES` — scalar scores over a
  canonical metric vector with deterministic tie-breaking, plus
  :func:`pareto_frontier` for the multi-objective view,
* drivers — :class:`GridSearch`, :class:`RandomSearch`, and the
  multi-fidelity :class:`SuccessiveHalving` (scaled-down footprints as
  cheap rungs),
* evaluators — :class:`LocalEvaluator` (sweep executor: ``--jobs``
  fan-out + run cache) and :class:`ServerEvaluator` (jobs submitted to
  a ``repro serve`` daemon),
* :func:`tune_workload` — the tournament orchestrator, emitting
  byte-stable recommendation cards under ``results/tune/`` that
  ``repro recommend`` reads back.
"""

from .cards import (
    CARD_FORMAT,
    DEFAULT_CARDS_DIR,
    card_json,
    card_path,
    format_card,
    load_card,
    recommendation_for,
    write_card,
)
from .drivers import (
    DRIVERS,
    GridSearch,
    RandomSearch,
    SearchDriver,
    SearchOutcome,
    SuccessiveHalving,
    Trial,
    make_driver,
    make_trial,
)
from .evaluate import LocalEvaluator, ServerEvaluator
from .objective import (
    METRIC_ORDER,
    OBJECTIVES,
    Objective,
    get_objective,
    metric_vector,
    pareto_frontier,
)
from .space import DEFAULT_PAIRINGS, Candidate, SearchSpace, \
    pairings_axis
from .tuner import TuneRequest, recommended_pairing, rung_scale, \
    tune_workload

__all__ = [
    "CARD_FORMAT",
    "DEFAULT_CARDS_DIR",
    "DEFAULT_PAIRINGS",
    "DRIVERS",
    "METRIC_ORDER",
    "OBJECTIVES",
    "Candidate",
    "GridSearch",
    "LocalEvaluator",
    "Objective",
    "RandomSearch",
    "SearchDriver",
    "SearchOutcome",
    "SearchSpace",
    "ServerEvaluator",
    "SuccessiveHalving",
    "Trial",
    "TuneRequest",
    "card_json",
    "card_path",
    "format_card",
    "get_objective",
    "load_card",
    "make_driver",
    "make_trial",
    "metric_vector",
    "pairings_axis",
    "pareto_frontier",
    "recommendation_for",
    "recommended_pairing",
    "rung_scale",
    "tune_workload",
    "write_card",
]
