"""Cell evaluators: how the tuner actually runs simulations.

Two interchangeable backends behind one ``run_cells`` contract:

* :class:`LocalEvaluator` routes cells through
  :func:`repro.sweep.execute_cells` with failure isolation, so the tuner
  inherits whatever :func:`~repro.sweep.sweep_context` the CLI opened —
  ``--jobs N`` process fan-out and the content-addressed run cache —
  without any tuner-specific plumbing.  A warm cache means a repeat
  ``repro tune`` executes zero simulations.

* :class:`ServerEvaluator` submits every cell to a running ``repro
  serve`` daemon through :class:`~repro.serve.client.ServeClient`
  (submit-all-then-wait-all, so the server's worker pool parallelizes
  across cells) and decodes the terminal payloads back into
  :class:`SimStats`/:class:`FailedRun`.  The server executes through the
  same ``execute_cell`` seam with the same per-cell reseeding, so a
  server-backed tuning run produces a byte-identical recommendation
  card — and shares the same run cache.

Both return results aligned with the input cell order; a failed
simulation is a :class:`FailedRun` row, never an exception — one broken
candidate must not abort a tournament.
"""

from __future__ import annotations

from ..stats import FailedRun, SimStats
from ..sweep import SweepCell, execute_cells


class LocalEvaluator:
    """In-process evaluation through the sweep executor."""

    def run_cells(self, cells: list[SweepCell]
                  ) -> list[SimStats | FailedRun]:
        return execute_cells(cells, isolate_failures=True)


class ServerEvaluator:
    """Evaluation by submitting jobs to a ``repro serve`` daemon."""

    def __init__(self, client, timeout: float = 600.0) -> None:
        self.client = client
        self.timeout = timeout

    def run_cells(self, cells: list[SweepCell]
                  ) -> list[SimStats | FailedRun]:
        jobs = [
            self.client.submit(dict(cell.workload_spec),
                               config=cell.config.to_dict())
            for cell in cells
        ]
        results: list[SimStats | FailedRun] = []
        for cell, job in zip(cells, jobs):
            outcome = self.client.wait(job["id"], timeout=self.timeout)
            result = self.client.decode_result(outcome)
            if result is None:  # cancelled out from under us
                result = FailedRun(
                    cell.workload_spec.get("name", "?"),
                    "JobStateError",
                    f"server job {job['id']} was cancelled",
                )
            results.append(result)
        return results

