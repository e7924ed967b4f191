"""Workload registry and the paper's seven-benchmark suite."""

from __future__ import annotations

import math

from ..errors import WorkloadError
from .atax import AtaxWorkload
from .backprop import BackpropWorkload
from .base import Workload
from .bfs import BfsWorkload
from .gemm import GemmWorkload
from .hotspot import HotspotWorkload
from .kmeans import KmeansWorkload
from .nw import NeedlemanWunschWorkload
from .pathfinder import PathfinderWorkload
from .srad import SradWorkload

WORKLOAD_REGISTRY: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        AtaxWorkload,
        BackpropWorkload,
        BfsWorkload,
        GemmWorkload,
        HotspotWorkload,
        KmeansWorkload,
        NeedlemanWunschWorkload,
        PathfinderWorkload,
        SradWorkload,
    )
}

#: Suite order used by every experiment table (streaming first, as in the
#: paper's figures).  ``atax`` and ``kmeans`` are extra patterns available
#: via :func:`make_workload` but not part of the paper's seven.
SUITE_ORDER = ("backprop", "pathfinder", "bfs", "hotspot", "nw", "srad",
               "gemm")


def validate_scale(value: object, source: str = "scale") -> float:
    """Coerce and validate a workload footprint scale.

    A scale must be a finite number strictly greater than zero: zero and
    negative values silently saturate every workload's minimum-page
    floors (producing degenerate "suites" where all points coincide),
    NaN/inf crash deep inside workload constructors, and non-numeric
    strings arrive via the ``REPRO_BENCH_SCALE`` environment variable.
    ``source`` names the offending knob in the error message.  Raises
    :class:`~repro.errors.WorkloadError` (a ``ReproError``).
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise WorkloadError(
            f"{source} must be a number, got {value!r}"
        )
    try:
        scale = float(value)
    except ValueError:
        raise WorkloadError(
            f"{source} must be a number, got {value!r}"
        ) from None
    if not math.isfinite(scale):
        raise WorkloadError(f"{source} must be finite, got {scale!r}")
    if scale <= 0.0:
        raise WorkloadError(f"{source} must be > 0, got {scale!r}")
    return scale


#: ``{class: {parameter: (annotation, default)}}`` of each registered
#: class's constructor, read on its first bind.
_PARAMETERS: dict[type[Workload], dict[str, tuple[str, object]]] = {}


def _parameters(cls: type[Workload]) -> dict[str, tuple[str, object]]:
    parameters = _PARAMETERS.get(cls)
    if parameters is None:
        import inspect  # noqa: PLC0415 — only binding needs it

        parameters = _PARAMETERS[cls] = {
            name: (parameter.annotation, parameter.default)
            for name, parameter in inspect.signature(cls).parameters.items()
        }
    return parameters


def bind_workload_spec(spec: object) -> dict:
    """The canonical form of one workload spec.

    ``spec`` is a registry name or a dict with a ``name`` and any of the
    registered class's constructor parameters.  The answer holds the
    name and every parameter, with its default applied and an int
    widened to float where the annotation says ``float``, so two specs
    of one simulation have one form (and one cache key).  Raises
    :class:`~repro.errors.WorkloadError` on a non-string or unknown
    name, an unknown parameter, a value its parameter's annotation does
    not admit (the rule :meth:`SimulatorConfig.validate` applies to
    config fields), or a scale :func:`validate_scale` refuses.
    """
    from ..config import check_annotation  # noqa: PLC0415

    if isinstance(spec, str):
        spec = {"name": spec}
    if not isinstance(spec, dict) or "name" not in spec:
        raise WorkloadError(
            "workload must be a name or an object with a 'name' field, "
            f"got {spec!r}"
        )
    name = spec["name"]
    if not isinstance(name, str):
        raise WorkloadError(f"workload name must be a string, got {name!r}")
    try:
        cls = WORKLOAD_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(WORKLOAD_REGISTRY))
        raise WorkloadError(
            f"unknown workload {name!r}; known: {known}"
        ) from None
    parameters = _parameters(cls)
    unknown = sorted(set(spec) - {"name"} - set(parameters))
    if unknown:
        raise WorkloadError(
            f"unknown {name} parameters: {', '.join(unknown)}; "
            f"known: {', '.join(sorted(parameters))}"
        )
    bound = {"name": name}
    for parameter, (annotation, default) in parameters.items():
        value = spec.get(parameter, default)
        check_annotation(parameter, annotation, value, WorkloadError)
        bound[parameter] = float(value) if annotation == "float" else value
    bound["scale"] = validate_scale(bound["scale"])
    return bound


def make_workload(name: str, scale: float = 1.0, **kwargs) -> Workload:
    """Instantiate a registered workload from its bound spec (see
    :func:`bind_workload_spec`)."""
    spec = bind_workload_spec({"name": name, "scale": scale, **kwargs})
    return WORKLOAD_REGISTRY[spec.pop("name")](**spec)


def default_suite(scale: float = 1.0) -> list[Workload]:
    """The seven-benchmark suite at a given footprint scale.

    ``scale=1.0`` yields footprints in the paper's 4-16 MB range (the paper
    reports 4-38.5 MB with a 15.5 MB average; defaults sit at the fast end
    so the full evaluation matrix runs in minutes).
    """
    return [make_workload(name, scale=scale) for name in SUITE_ORDER]
