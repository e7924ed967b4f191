"""Shared benchmark settings.

``REPRO_BENCH_SCALE`` scales workload footprints for
``bench_paper.py`` (default 0.4 — large enough for the paper's
orderings, small enough that the whole harness runs in about a minute).
"""

from __future__ import annotations

import os
import pathlib

from repro.workloads.registry import validate_scale

#: Workload footprint scale used by all benchmarks.  Rejects garbage
#: (non-numeric, NaN/inf, <= 0) up front with a clean error instead of
#: building empty or degenerate workloads.
SCALE = validate_scale(os.environ.get("REPRO_BENCH_SCALE", "0.4"),
                       "REPRO_BENCH_SCALE")

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"
