"""repro — reproduction of *Interplay between Hardware Prefetcher and Page
Eviction Policy in CPU-GPU Unified Virtual Memory* (Ganguly et al.,
ISCA 2019).

A trace-driven, discrete-event simulator of CPU-GPU Unified Virtual Memory:
on-demand page migration over a PCI-e model fit to Table 1, the four hardware
prefetchers of the paper (on-demand, random, sequential-local, tree-based
neighborhood), and the eviction/pre-eviction policy family (LRU 4KB/2MB,
random, SLe, TBNe, free-page-buffer threshold, LRU-head reservation).

Quickstart::

    from repro import SimulatorConfig, UvmRuntime, make_workload

    config = SimulatorConfig(prefetcher="tbn", eviction="tbn",
                             device_memory_bytes=8 * 1024 * 1024)
    stats = UvmRuntime(config).run_workload(make_workload("hotspot"))
    print(stats.total_kernel_time_ns, stats.far_faults)
"""

from .config import SimulatorConfig, oversubscribed, pascal_gtx1080ti
from .core.engine import Simulator, make_simulator
from .core.evict import EVICTION_REGISTRY, make_eviction_policy
from .core.prefetch import PREFETCHER_REGISTRY, make_prefetcher
from .errors import ReproError
from .gpu.kernel import KernelSpec, ThreadBlockSpec, WarpSpec
from .obs import (
    MetricsRegistry,
    SpanTracer,
    run_report,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics,
)
from .presets import PRESETS, preset_config
from .runtime import MultiWorkloadRuntime, UvmRuntime, run_workload
from .stats import AllocationStats, SimStats
from .validation import validate_claims
from .workloads import Workload, default_suite, make_workload

__version__ = "1.0.0"

__all__ = [
    "SimulatorConfig",
    "oversubscribed",
    "pascal_gtx1080ti",
    "Simulator",
    "make_simulator",
    "EVICTION_REGISTRY",
    "make_eviction_policy",
    "PREFETCHER_REGISTRY",
    "make_prefetcher",
    "ReproError",
    "KernelSpec",
    "ThreadBlockSpec",
    "WarpSpec",
    "PRESETS",
    "preset_config",
    "MultiWorkloadRuntime",
    "UvmRuntime",
    "run_workload",
    "AllocationStats",
    "SimStats",
    "MetricsRegistry",
    "SpanTracer",
    "run_report",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_metrics",
    "validate_claims",
    "Workload",
    "default_suite",
    "make_workload",
    "__version__",
]
