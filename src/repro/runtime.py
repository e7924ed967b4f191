"""CUDA-8.0-flavoured runtime facade.

:class:`UvmRuntime` wraps one :class:`~repro.core.engine.Simulator` behind
the UVM API surface the paper's benchmarks use — ``cudaMallocManaged``,
``cudaMemPrefetchAsync``, kernel launch, ``cudaDeviceSynchronize`` — and
knows how to run a whole :class:`~repro.workloads.base.Workload`.
"""

from __future__ import annotations

from .config import SimulatorConfig
from .core.engine import Simulator, make_simulator
from .gpu.kernel import KernelSpec
from .memory.allocation import ManagedAllocation
from .stats import AllocationStats, SimStats
from .workloads.base import AddressResolver, Workload


class UvmRuntime:
    """One simulated process: allocations, launches, synchronization."""

    def __init__(self, config: SimulatorConfig, *,
                 prefetcher=None, eviction=None) -> None:
        self.config = config
        self.simulator = make_simulator(config, prefetcher=prefetcher,
                                        eviction=eviction)

    # --- CUDA-like surface ----------------------------------------------------
    def malloc_managed(self, name: str,
                       size_bytes: int) -> ManagedAllocation:
        """``cudaMallocManaged``: no physical pages until first touch."""
        return self.simulator.malloc_managed(name, size_bytes)

    def mem_prefetch_async(self, name: str, first_page: int = 0,
                           num_pages: int | None = None) -> None:
        """``cudaMemPrefetchAsync`` on a page range of an allocation."""
        self.simulator.prefetch_async(name, first_page, num_pages)

    def cpu_access(self, name: str, first_page: int = 0,
                   num_pages: int | None = None,
                   is_write: bool = False) -> None:
        """Host-side access through the managed pointer: device-resident
        pages of the range migrate back to the host."""
        self.simulator.cpu_access(name, first_page, num_pages, is_write)

    def launch_kernel(self, kernel: KernelSpec) -> float:
        """Launch and run one kernel; returns its duration in ns."""
        return self.simulator.launch_kernel(kernel)

    def device_synchronize(self) -> None:
        """``cudaDeviceSynchronize``: drain all in-flight work."""
        self.simulator.synchronize()

    @property
    def stats(self) -> SimStats:
        return self.simulator.stats

    @property
    def tracer(self):
        """The run's span tracer (the no-op singleton unless
        ``SimulatorConfig(trace=True)``); see :mod:`repro.obs`."""
        return self.simulator.tracer

    # --- workload driving ----------------------------------------------------
    def run_workload(self, workload: Workload,
                     check_invariants: bool = False) -> SimStats:
        """Allocate, launch every kernel, synchronize; returns the stats."""
        for spec in workload.allocations():
            self.malloc_managed(spec.name, spec.size_bytes)
        resolver = AddressResolver(self.simulator.allocator)
        for kernel in workload.kernel_specs(resolver):
            self.launch_kernel(kernel)
        self.device_synchronize()
        if check_invariants:
            self.simulator.check_invariants()
        return self.stats


def run_workload(workload: Workload, config: SimulatorConfig,
                 check_invariants: bool = False, *,
                 prefetcher=None, eviction=None) -> SimStats:
    """Convenience one-shot: fresh runtime, run, return stats.

    ``prefetcher`` / ``eviction`` instances override the registry lookup
    (tests, subclassed knob variants); they are reset() at engine
    construction, so a reused instance behaves like a fresh one.
    """
    return UvmRuntime(config, prefetcher=prefetcher,
                      eviction=eviction).run_workload(
        workload, check_invariants=check_invariants
    )


class _PrefixedResolver:
    """Resolver view that namespaces a workload's allocation names."""

    def __init__(self, base: AddressResolver, prefix: str) -> None:
        self._base = base
        self._prefix = prefix

    def page(self, name: str, page_offset: int) -> int:
        return self._base.page(self._prefix + name, page_offset)

    def num_pages(self, name: str) -> int:
        return self._base.num_pages(self._prefix + name)


class MultiWorkloadRuntime:
    """Co-locate several workloads on one simulated GPU.

    Models the contention scenario that motivates over-subscription in the
    first place: independent applications sharing device memory.  Kernel
    launches interleave round-robin across workloads (the GPU runs one
    kernel at a time, as with CUDA's default stream semantics across
    processes), while all allocations compete for the same frame pool,
    prefetcher, and eviction policy.

    Allocation names are namespaced ``"<label>/<name>"`` so per-allocation
    statistics attribute traffic to the owning workload.
    """

    def __init__(self, config: SimulatorConfig) -> None:
        self.config = config
        self.simulator = make_simulator(config)
        self._entries: list[tuple[str, Workload]] = []

    def add_workload(self, label: str, workload: Workload) -> None:
        """Register one workload under a unique label."""
        if any(existing == label for existing, _ in self._entries):
            raise ValueError(f"duplicate workload label {label!r}")
        self._entries.append((label, workload))

    def run(self, check_invariants: bool = False) -> SimStats:
        """Allocate everything, interleave launches, synchronize."""
        if not self._entries:
            raise ValueError("no workloads registered")
        for label, workload in self._entries:
            for spec in workload.allocations():
                self.simulator.malloc_managed(
                    f"{label}/{spec.name}", spec.size_bytes
                )
        base_resolver = AddressResolver(self.simulator.allocator)
        streams = [
            (label,
             workload.kernel_specs(
                 _PrefixedResolver(base_resolver, f"{label}/")
             ))
            for label, workload in self._entries
        ]
        active = list(streams)
        while active:
            still_running = []
            for label, stream in active:
                kernel = next(stream, None)
                if kernel is None:
                    continue
                self.simulator.launch_kernel(kernel)
                still_running.append((label, stream))
            active = still_running
        self.simulator.synchronize()
        if check_invariants:
            self.simulator.check_invariants()
        return self.simulator.stats

    def stats_for(self, label: str) -> dict[str, "AllocationStats"]:
        """Per-allocation stats of one workload (by its label prefix)."""
        prefix = f"{label}/"
        return {
            name[len(prefix):]: record
            for name, record in
            self.simulator.stats.per_allocation.items()
            if name.startswith(prefix)
        }
