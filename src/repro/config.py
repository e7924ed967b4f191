"""Simulator configuration.

:class:`SimulatorConfig` gathers every tunable of the UVM model in one
validated dataclass.  The defaults reproduce the paper's setup (Table 2:
Pascal-class GPU, 28 SMs at 1481 MHz, 4 KB pages, 45 us fault handling,
100-cycle page-table walk, PCI-e 3.0 x16).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

from . import constants
from .errors import ConfigurationError

#: Process-wide default for ``check_invariants_on_completion=None``.
#: Production keeps it off (the checks are observational but not free);
#: ``tests/conftest.py`` flips it on so state corruption is caught at the
#: kernel boundary where it was injected, not in downstream figures.
AUTO_CHECK_INVARIANTS = False


@dataclass
class SimulatorConfig:
    """All knobs of the UVM simulator.

    Attributes are grouped as: GPU execution, memory system, fault handling,
    and policy behaviour under over-subscription.
    """

    # --- Engine ------------------------------------------------------------
    #: Engine label.  There is one engine, and both ``"reference"`` and
    #: ``"fast"`` build it.  ``"fast"`` is still accepted because the
    #: run-cache key, the pinned result forms and the perfbench cells
    #: and metrics name it; retiring the label is a benchmark change.
    engine: str = "reference"

    # --- GPU execution -----------------------------------------------------
    num_sms: int = constants.DEFAULT_NUM_SMS
    #: Maximum thread blocks resident per SM at a time.
    max_thread_blocks_per_sm: int = 2
    #: Issue interval between two coalesced accesses of one warp, in cycles.
    cycles_per_access: int = 4
    #: Per-SM TLB entries (fully associative, LRU replacement).
    tlb_entries: int = 512

    # --- Memory system -----------------------------------------------------
    #: Device memory capacity in bytes. ``None`` means "unbounded" (useful
    #: for no-over-subscription experiments).
    device_memory_bytes: int | None = None
    page_size: int = constants.PAGE_SIZE
    basic_block_size: int = constants.BASIC_BLOCK_SIZE
    large_page_size: int = constants.LARGE_PAGE_SIZE

    # --- Fault handling ----------------------------------------------------
    fault_handling_latency_ns: float = constants.FAULT_HANDLING_LATENCY_NS
    page_table_walk_cycles: int = constants.PAGE_TABLE_WALK_CYCLES
    #: When False (default), the host driver services far-faults serially:
    #: every distinct faulted page pays the 45 us handling latency, pipelined
    #: with the PCI-e transfers — fault count dominates, as the paper's
    #: Figures 3/5 show.  When True, one batch of concurrent faults shares a
    #: single 45 us round trip (optimistic ablation).
    batch_fault_handling: bool = False
    #: Far-fault MSHR entries (outstanding distinct faulted pages).
    mshr_entries: int = 8192
    #: Maximum distinct faults the driver drains per service batch (models
    #: a finite GPU fault buffer).  0 means unlimited.
    fault_batch_limit: int = 0
    #: Page-table walk model: "fixed" (Table 2's constant latency) or
    #: "radix" (4-level walk, 50 cycles per level, with a 64-entry
    #: page-walk cache).
    page_walk_model: str = "fixed"

    # --- Policies ----------------------------------------------------------
    prefetcher: str = "tbn"
    eviction: str = "lru4k"
    #: Disable the hardware prefetcher once device memory first fills
    #: (Section 4.2 behaviour).  Pre-eviction policies set this False so the
    #: prefetcher keeps running (Section 7.2 combinations).
    disable_prefetch_on_oversubscription: bool = True
    #: Free-page buffer kept by the threshold pre-eviction wrapper, as a
    #: fraction of device capacity (0 disables the wrapper).
    free_page_buffer_fraction: float = 0.0
    #: Fraction of the LRU list head protected from eviction (Section 7.4).
    lru_reservation_fraction: float = 0.0
    #: TBNp/TBNe balancing threshold as a fraction of node capacity.  The
    #: hardware uses 0.5 ("strictly greater than 50%"); exposed for ablation.
    tbn_threshold: float = 0.5
    #: Random seed shared by the random prefetcher / eviction policies.
    seed: int = 0

    # --- Robustness --------------------------------------------------------
    #: Fault-injection profile (``None`` disables every hook — the
    #: default path is byte-identical to an injection-free build).  A
    #: plain dict (e.g. from a JSON config file) is coerced on validation.
    fault_profile: "FaultProfile | dict | None" = None
    #: Watchdog: livelock/no-progress detection in the kernel event loop.
    #: Ticks only observe, so the default-on watchdog never changes
    #: simulation results.
    watchdog_enabled: bool = True
    #: Events processed between two watchdog ticks.
    watchdog_interval_events: int = 200_000
    #: Consecutive no-progress ticks before a WatchdogTimeout abort.
    watchdog_no_progress_ticks: int = 10
    #: Simulated-time budget per kernel launch (``None`` = unlimited).
    watchdog_sim_time_budget_ns: float | None = None
    #: Run ``Simulator.check_invariants`` every N watchdog ticks (0 = off).
    invariant_check_ticks: int = 0
    #: Run ``Simulator.check_invariants`` when each kernel completes.
    #: ``None`` defers to the process-wide default (off in production,
    #: flipped on by the test suite's conftest).
    check_invariants_on_completion: bool | None = None

    # --- Instrumentation ---------------------------------------------------
    #: Record (time_ns, page_index) for every access (Figure 12 scatter).
    record_access_trace: bool = False
    #: Record one (time, residency, frames, prefetch-gate) sample per
    #: fault-service batch.
    record_timeline: bool = False
    #: Keep every Nth access-trace sample / hard cap on samples kept
    #: (0 = uncapped).  Overflow increments ``SimStats
    #: .access_trace_dropped`` instead of growing the list, bounding
    #: memory on long traced runs.
    access_trace_stride: int = 1
    access_trace_cap: int = 0
    #: Same stride/cap pair for the per-batch residency timeline.
    timeline_stride: int = 1
    timeline_cap: int = 0

    # --- Observability -----------------------------------------------------
    #: Enable the span tracer (``repro.obs``): Chrome-trace spans for the
    #: far-fault lifecycle, fault batches, PCI-e transfers, evictions,
    #: and kernel launches, exportable to Perfetto.  Off by default; the
    #: disabled path is a shared no-op singleton behind one attribute
    #: check, so simulation results never depend on this flag.
    trace: bool = False
    #: Cap on stored trace events (0 = unbounded); events past the cap
    #: are counted in ``tracer.dropped_events`` rather than kept.
    trace_max_events: int = 0

    def __post_init__(self) -> None:
        self.validate()

    # Keys whose values must be strictly positive integers.
    _POSITIVE_INT_FIELDS = (
        "num_sms",
        "max_thread_blocks_per_sm",
        "cycles_per_access",
        "tlb_entries",
        "page_size",
        "basic_block_size",
        "large_page_size",
        "page_table_walk_cycles",
        "mshr_entries",
    )

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on any inconsistent setting."""
        if self.engine not in ("reference", "fast"):
            raise ConfigurationError(
                f"engine must be 'reference' or 'fast', got {self.engine!r}"
            )
        for name in self._POSITIVE_INT_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, int) or value <= 0:
                raise ConfigurationError(
                    f"{name} must be a positive integer, got {value!r}"
                )
        if self.device_memory_bytes is not None:
            if self.device_memory_bytes < self.page_size:
                raise ConfigurationError(
                    "device_memory_bytes must hold at least one page"
                )
            if self.device_memory_bytes % self.page_size:
                raise ConfigurationError(
                    "device_memory_bytes must be page aligned"
                )
        if self.basic_block_size % self.page_size:
            raise ConfigurationError(
                "basic_block_size must be a multiple of page_size"
            )
        if self.large_page_size % self.basic_block_size:
            raise ConfigurationError(
                "large_page_size must be a multiple of basic_block_size"
            )
        blocks = self.large_page_size // self.basic_block_size
        if blocks & (blocks - 1):
            raise ConfigurationError(
                "large_page_size / basic_block_size must be a power of two "
                "(the prefetcher builds full binary trees)"
            )
        if self.fault_handling_latency_ns < 0:
            raise ConfigurationError("fault_handling_latency_ns must be >= 0")
        if self.fault_batch_limit < 0:
            raise ConfigurationError("fault_batch_limit must be >= 0")
        if self.page_walk_model not in ("fixed", "radix"):
            raise ConfigurationError(
                "page_walk_model must be 'fixed' or 'radix'"
            )
        if not 0.0 <= self.free_page_buffer_fraction < 1.0:
            raise ConfigurationError(
                "free_page_buffer_fraction must be in [0, 1)"
            )
        if not 0.0 <= self.lru_reservation_fraction < 1.0:
            raise ConfigurationError(
                "lru_reservation_fraction must be in [0, 1)"
            )
        if not 0.0 < self.tbn_threshold < 1.0:
            raise ConfigurationError("tbn_threshold must be in (0, 1)")
        # ``random.Random`` silently accepts strings/floats, which would
        # make a mistyped seed change results instead of erroring — and
        # job specs arrive as untyped JSON (repro.serve), so be strict.
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigurationError(
                f"seed must be an integer, got {self.seed!r}"
            )
        if self.fault_profile is not None:
            from .faultinject.profile import FaultProfile
            if isinstance(self.fault_profile, dict):
                self.fault_profile = \
                    FaultProfile.from_dict(self.fault_profile)
            elif isinstance(self.fault_profile, FaultProfile):
                self.fault_profile.validate()
            else:
                raise ConfigurationError(
                    "fault_profile must be a FaultProfile, a dict of its "
                    f"fields, or None, got {type(self.fault_profile)}"
                )
        for name in ("watchdog_interval_events",
                     "watchdog_no_progress_ticks"):
            value = getattr(self, name)
            if not isinstance(value, int) or value <= 0:
                raise ConfigurationError(
                    f"{name} must be a positive integer, got {value!r}"
                )
        if self.watchdog_sim_time_budget_ns is not None \
                and self.watchdog_sim_time_budget_ns <= 0:
            raise ConfigurationError(
                "watchdog_sim_time_budget_ns must be positive or None"
            )
        if not isinstance(self.invariant_check_ticks, int) \
                or self.invariant_check_ticks < 0:
            raise ConfigurationError(
                "invariant_check_ticks must be a non-negative integer"
            )
        for name in ("access_trace_stride", "timeline_stride"):
            value = getattr(self, name)
            if not isinstance(value, int) or value <= 0:
                raise ConfigurationError(
                    f"{name} must be a positive integer, got {value!r}"
                )
        for name in ("access_trace_cap", "timeline_cap",
                     "trace_max_events"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ConfigurationError(
                    f"{name} must be a non-negative integer, got {value!r}"
                )
        # Policy names resolve against the registries (PolicyError lists
        # the known names).  Lazy import: the registries live below
        # config in the import graph (same pattern as FaultProfile above).
        from .policy.registry import policy_class  # noqa: PLC0415
        policy_class(self.prefetcher, "prefetch")
        policy_class(self.eviction, "evict")

    @property
    def pages_per_block(self) -> int:
        """4 KB pages per basic block."""
        return self.basic_block_size // self.page_size

    @property
    def blocks_per_large_page(self) -> int:
        """Basic blocks per 2 MB large page."""
        return self.large_page_size // self.basic_block_size

    @property
    def device_memory_pages(self) -> int | None:
        """Device capacity in pages, or ``None`` when unbounded."""
        if self.device_memory_bytes is None:
            return None
        return self.device_memory_bytes // self.page_size

    def replace(self, **changes: object) -> "SimulatorConfig":
        """Return a validated copy with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    # --- serialization / content addressing --------------------------------
    def to_dict(self) -> dict:
        """Every field as plain JSON-able values.

        ``fault_profile`` flattens to its field dict; :meth:`from_dict`
        reverses it, so
        ``SimulatorConfig.from_dict(config.to_dict()) == config``.
        """
        out: dict[str, object] = {}
        for spec in dataclasses.fields(self):
            value = getattr(self, spec.name)
            if spec.name == "fault_profile":
                out[spec.name] = None if value is None else value.to_dict()
            else:
                out[spec.name] = value
        return out

    @classmethod
    def check_field_names(cls, data: dict) -> None:
        """Raise :class:`ConfigurationError` naming every key of ``data``
        that is not a field (a misspelt or removed knob)."""
        known = {spec.name for spec in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown SimulatorConfig fields: {', '.join(unknown)}"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "SimulatorConfig":
        """Rebuild (and re-validate) a config from :meth:`to_dict` output."""
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"config data must be a dict, got {type(data).__name__}"
            )
        cls.check_field_names(data)
        return cls(**data)  # fault_profile dicts are coerced by validate

    def cache_key(self) -> str:
        """Stable content hash of this configuration.

        The key is the SHA-256 of the canonical (sorted, compact) JSON of
        :meth:`to_dict`, so two configs hash equal exactly when every
        field — including observational knobs — is equal.  Used by
        :mod:`repro.sweep` to address cached run results.
        """
        payload = json.dumps(self.to_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def pascal_gtx1080ti(**overrides: object) -> SimulatorConfig:
    """Configuration preset matching the paper's simulated GPU (Table 2)."""
    return SimulatorConfig(**overrides)  # defaults already encode Table 2


def oversubscribed(
    working_set_bytes: int,
    oversubscription_percent: float,
    **overrides: object,
) -> SimulatorConfig:
    """Preset where the working set is ``oversubscription_percent`` % of
    device memory.

    The paper phrases over-subscription as "working set is 110% of the
    device memory size"; the device capacity is therefore
    ``working_set / (percent / 100)`` rounded down to a whole page.
    """
    if oversubscription_percent < 100.0:
        raise ConfigurationError(
            "oversubscription_percent must be >= 100 (100 means exact fit)"
        )
    capacity = int(working_set_bytes / (oversubscription_percent / 100.0))
    capacity -= capacity % constants.PAGE_SIZE
    return SimulatorConfig(device_memory_bytes=capacity, **overrides)
