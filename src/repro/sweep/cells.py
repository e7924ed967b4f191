"""Declarative sweep cells, and the one JSON form of a cell and of its
result.

A :class:`SweepCell` is the unit of work of every experiment sweep: one
workload specification (registry name + construction parameters — enough
to rebuild the workload in any process) paired with one fully-validated
:class:`~repro.config.SimulatorConfig`.  Cells are *data*, not closures,
so they can be content-addressed for the run cache and shipped to worker
processes without pickling live simulator state.

Every carrier of a cell or its result — the run-cache file, the sweep
process pool, the serve worker pipe, the journal, and the HTTP result
body — uses the two forms defined here: :meth:`SweepCell.to_dict` /
:meth:`SweepCell.from_dict` (``{"workload": …, "config": …}``, also a
valid ``POST /v1/jobs`` body) and :func:`encode_result` /
:func:`decode_result` (``{"kind": "stats"|"failed"|"cancelled", …}``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from ..config import SimulatorConfig
from ..errors import ReproError
from ..stats import FailedRun, SimStats

#: Version of the cell-identity derivation.  Bumped when the key payload
#: shape changes, invalidating every existing cache entry at once.
CELL_FORMAT = 1


@dataclass
class SweepCell:
    """One (workload-spec, config) point of an experiment cross-product."""

    #: Keyword arguments for ``make_workload`` (at least ``name``;
    #: usually also ``scale``).  Must be plain JSON-able values.
    workload_spec: dict
    config: SimulatorConfig
    #: Opaque grouping key for the caller (e.g. a column label).  Not
    #: part of the cell's identity: the same simulation under two labels
    #: is still the same simulation.
    label: object = None

    def to_dict(self) -> dict:
        """The cell's JSON form: ``{"workload": spec, "config": dict}``.

        The label is not part of it (it is not part of the identity).
        """
        return {"workload": self.workload_spec,
                "config": self.config.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "SweepCell":
        """Rebuild a cell from :meth:`to_dict` output (trusted input;
        requests from outside go through ``serve.api.build_cell``)."""
        return cls(workload_spec=data["workload"],
                   config=SimulatorConfig.from_dict(data["config"]))

    def failed(self, exc: BaseException) -> FailedRun:
        """The :class:`FailedRun` row for this cell raising ``exc``."""
        return FailedRun(self.workload_spec.get("name", "?"),
                         type(exc).__name__, str(exc))

    def cache_key(self) -> str:
        """Stable content hash identifying this cell's *result*.

        SHA-256 over the canonical JSON of the workload spec and the full
        config dict (see :meth:`SimulatorConfig.cache_key`), versioned by
        :data:`CELL_FORMAT`.  Two cells share a key exactly when they
        would run the identical simulation.
        """
        payload = json.dumps({"format": CELL_FORMAT, **self.to_dict()},
                             sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def derived_seed(self) -> int:
        """Deterministic per-cell integer for re-seeding worker RNG state.

        Derived from the content hash, so the same cell reseeds the same
        way in a serial run, any worker of a parallel run, or a resumed
        sweep — one ingredient of the byte-identical guarantee.
        """
        return int(self.cache_key()[:16], 16)


def encode_result(result: SimStats | FailedRun | None) -> dict:
    """The tagged JSON form of one cell's result.

    ``{"kind": "stats", "stats": …}``, ``{"kind": "failed", "failed":
    …}``, or ``{"kind": "cancelled"}`` for a job that ended without one.
    """
    if result is None:
        return {"kind": "cancelled"}
    if isinstance(result, FailedRun):
        return {"kind": "failed", "failed": result.to_json_dict()}
    return {"kind": "stats", "stats": result.to_json_dict()}


def decode_result(data: dict) -> SimStats | FailedRun | None:
    """Inverse of :func:`encode_result` (``None`` for a cancelled job);
    raises on anything else."""
    kind = data["kind"]
    if kind == "stats":
        return SimStats.from_json_dict(data["stats"])
    if kind == "failed":
        return FailedRun.from_json_dict(data["failed"])
    if kind == "cancelled":
        return None
    raise ReproError(f"unknown result kind {kind!r}")
