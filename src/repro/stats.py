"""Statistical counters collected during a simulation run.

The paper instruments its simulator with "an array of statistical counters
to profile different aspects of UVM" (Section 6.1).  :class:`SimStats` is the
equivalent here: every figure of the evaluation is computed from these
counters.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from dataclasses import dataclass, field

from .errors import ReproError
from .obs.metrics import (
    LATENCY_NS_BUCKETS,
    PAGES_BUCKETS,
    MetricsRegistry,
)

#: Schema version of the :meth:`SimStats.to_json` payload.  Bumped when
#: the serialized shape changes incompatibly; the run cache treats a
#: version mismatch as a miss.
STATS_FORMAT = 1


@dataclass
class TransferLog:
    """Aggregate record of one PCI-e channel's traffic."""

    #: transfer size in bytes -> number of transfers of that size
    histogram: Counter = field(default_factory=Counter)
    total_bytes: int = 0
    total_transfers: int = 0
    #: Sum of transfer latencies (ns); the channel is serialized so this is
    #: also the channel busy time.
    busy_time_ns: float = 0.0

    def record(self, size_bytes: int, latency_ns: float) -> None:
        """Account one completed transfer."""
        self.histogram[size_bytes] += 1
        self.total_bytes += size_bytes
        self.total_transfers += 1
        self.busy_time_ns += latency_ns

    @property
    def average_bandwidth_gbps(self) -> float:
        """Achieved bandwidth while transferring, in GB/s (0 if idle)."""
        if self.busy_time_ns == 0:
            return 0.0
        return self.total_bytes / self.busy_time_ns  # bytes/ns == GB/s

    def transfers_of_size(self, size_bytes: int) -> int:
        """Number of transfers of exactly ``size_bytes``."""
        return self.histogram.get(size_bytes, 0)

    def to_json_dict(self) -> dict:
        """Lossless plain-JSON form (histogram keys become strings)."""
        return {
            "histogram": {
                str(size): count
                for size, count in sorted(self.histogram.items())
            },
            "total_bytes": self.total_bytes,
            "total_transfers": self.total_transfers,
            "busy_time_ns": self.busy_time_ns,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TransferLog":
        return cls(
            histogram=Counter({
                int(size): int(count)
                for size, count in data["histogram"].items()
            }),
            total_bytes=data["total_bytes"],
            total_transfers=data["total_transfers"],
            busy_time_ns=data["busy_time_ns"],
        )


@dataclass
class AllocationStats:
    """Per-managed-allocation breakdown of UVM activity."""

    far_faults: int = 0
    pages_migrated: int = 0
    pages_prefetched: int = 0
    pages_evicted: int = 0
    pages_thrashed: int = 0


@dataclass(frozen=True)
class FailedRun:
    """Structured record of one workload run that raised.

    Returned in place of :class:`SimStats` when a suite or sweep runs
    with failure isolation, so one misbehaving configuration cannot take
    down a whole sweep.  Round-trips through JSON like :class:`SimStats`
    does, so failed cells are cacheable too.
    """

    workload: str
    error_type: str
    message: str

    def __str__(self) -> str:
        return f"{self.error_type}: {self.message}"

    def to_json_dict(self) -> dict:
        return {"workload": self.workload, "error_type": self.error_type,
                "message": self.message}

    @classmethod
    def from_json_dict(cls, data: dict) -> "FailedRun":
        known = {"workload", "error_type", "message"}
        if set(data) != known:
            raise ReproError(
                f"malformed FailedRun payload: expected keys "
                f"{sorted(known)}, got {sorted(data)}"
            )
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FailedRun":
        return cls.from_json_dict(json.loads(text))


@dataclass
class SimStats:
    """All counters produced by one simulation run."""

    # --- translation -------------------------------------------------------
    tlb_hits: int = 0
    tlb_misses: int = 0
    page_table_walks: int = 0

    # --- faults ------------------------------------------------------------
    far_faults: int = 0
    fault_batches: int = 0
    mshr_merges: int = 0

    # --- migration ---------------------------------------------------------
    pages_migrated: int = 0
    pages_prefetched: int = 0
    #: Pages migrated again after having been evicted earlier (thrashing).
    pages_thrashed: int = 0

    # --- eviction ----------------------------------------------------------
    pages_evicted: int = 0
    eviction_events: int = 0
    pages_written_back: int = 0
    #: Clean pages dropped without a write-back.
    pages_dropped_clean: int = 0
    #: Total nanoseconds migrations spent stalled waiting for free frames.
    eviction_stall_ns: float = 0.0

    # --- interconnect ------------------------------------------------------
    h2d: TransferLog = field(default_factory=TransferLog)
    d2h: TransferLog = field(default_factory=TransferLog)

    # --- resilience (fault injection & recovery) ---------------------------
    #: Injected events, by hook point (all zero when injection is off).
    injected_transfer_faults: int = 0
    injected_latency_spikes: int = 0
    injected_dropped_faults: int = 0
    injected_duplicate_faults: int = 0
    injected_mshr_overflows: int = 0
    injected_service_delays: int = 0
    #: Lost far-fault notifications successfully redelivered to the driver.
    recovered_faults: int = 0
    #: Migration transfer retries and the simulated time spent backing off.
    migration_retries: int = 0
    retry_backoff_ns: float = 0.0
    #: Times the driver degraded from the active prefetcher to on-demand
    #: after consecutive migration failures, and when each happened.
    degradation_events: int = 0
    degradation_times_ns: list[float] = field(default_factory=list)
    #: Watchdog ticks observed (diagnostics; ticks never change results).
    watchdog_ticks: int = 0

    # --- time --------------------------------------------------------------
    #: Wall-clock (simulated ns) per kernel launch, in launch order.
    kernel_times_ns: list[float] = field(default_factory=list)
    total_fault_handling_ns: float = 0.0

    # --- traces ------------------------------------------------------------
    #: Optional (time_ns, page_index, kernel_launch_index) access samples.
    access_trace: list[tuple[float, int, int]] = field(default_factory=list)
    #: Optional per-fault-batch samples of
    #: (time_ns, resident_pages, frames_used, prefetch_enabled).
    timeline: list[tuple[float, int, int, bool]] = field(
        default_factory=list
    )
    #: Always 0, since the traces keep every sample.  Both stay in
    #: :meth:`to_json` (the pinned digests hash it) until the next
    #: stats-format change, the one that also retires the ``engine``
    #: label.
    access_trace_dropped: int = 0
    timeline_dropped: int = 0
    #: Per-allocation activity breakdown, keyed by allocation name.
    per_allocation: dict[str, AllocationStats] = field(
        default_factory=dict
    )
    #: Named-metrics registry: the gauges and histograms recorded during
    #: the run (per-batch service latency, batch sizes, residency
    #: samples).  Excluded from comparisons — two runs are equal when
    #: their counters are.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry,
                                     repr=False, compare=False)

    def __post_init__(self) -> None:
        registry = self.metrics
        # Created eagerly so their names always appear in snapshots
        # (zero-count histograms are still information).
        registry.histogram("fault_batch.service_latency_ns",
                           LATENCY_NS_BUCKETS,
                           help="per-batch fault service latency")
        registry.histogram("fault_batch.size_faults", PAGES_BUCKETS,
                           help="distinct faulted pages per batch")
        registry.histogram("fault_batch.migrated_pages", PAGES_BUCKETS,
                           help="pages migrated per batch incl. prefetch")
        registry.gauge("memory.resident_pages",
                       help="valid pages, sampled on batch boundaries")
        registry.gauge("memory.frames_used",
                       help="claimed frames, sampled on batch boundaries")

    def allocation(self, name: str) -> AllocationStats:
        """The (auto-created) per-allocation record for ``name``."""
        record = self.per_allocation.get(name)
        if record is None:
            record = AllocationStats()
            self.per_allocation[name] = record
        return record

    @property
    def total_kernel_time_ns(self) -> float:
        """Sum of all kernel launch durations."""
        return sum(self.kernel_times_ns)

    @property
    def tlb_hit_rate(self) -> float:
        """TLB hit rate over all lookups (0 when no lookups happened)."""
        lookups = self.tlb_hits + self.tlb_misses
        return self.tlb_hits / lookups if lookups else 0.0

    @property
    def transfers_4kb(self) -> int:
        """Number of 4 KB host-to-device transfers (Figure 7 metric)."""
        return self.h2d.transfers_of_size(4096)

    @property
    def injected_faults(self) -> int:
        """All injected perturbations, across every hook point."""
        return (self.injected_transfer_faults + self.injected_latency_spikes
                + self.injected_dropped_faults
                + self.injected_duplicate_faults
                + self.injected_mshr_overflows
                + self.injected_service_delays)

    def resilience_dict(self) -> dict[str, object]:
        """Flat summary of the fault-injection/recovery counters.

        Kept separate from :meth:`as_dict` so tables produced with
        injection disabled are byte-identical to pre-injection builds.
        """
        return {
            "injected_transfer_faults": self.injected_transfer_faults,
            "injected_latency_spikes": self.injected_latency_spikes,
            "injected_dropped_faults": self.injected_dropped_faults,
            "injected_duplicate_faults": self.injected_duplicate_faults,
            "injected_mshr_overflows": self.injected_mshr_overflows,
            "injected_service_delays": self.injected_service_delays,
            "recovered_faults": self.recovered_faults,
            "migration_retries": self.migration_retries,
            "retry_backoff_ns": self.retry_backoff_ns,
            "degradation_events": self.degradation_events,
            "degradation_times_ns": list(self.degradation_times_ns),
            "watchdog_ticks": self.watchdog_ticks,
        }

    def to_json_dict(self) -> dict:
        """Lossless plain-JSON form of *every* field.

        Unlike :meth:`as_dict` (a flat report summary), this keeps the
        transfer histograms, traces, timelines, per-allocation records,
        and the live metric instruments, so
        ``SimStats.from_json_dict(stats.to_json_dict()) == stats`` — the
        invariant the run cache depends on.
        """
        out: dict[str, object] = {"format": STATS_FORMAT}
        for spec in dataclasses.fields(self):
            name = spec.name
            value = getattr(self, name)
            if name in ("h2d", "d2h"):
                out[name] = value.to_json_dict()
            elif name == "per_allocation":
                out[name] = {
                    alloc: dataclasses.asdict(record)
                    for alloc, record in sorted(value.items())
                }
            elif name in ("access_trace", "timeline"):
                out[name] = [list(sample) for sample in value]
            elif name == "metrics":
                out[name] = value.live_state()
            else:
                out[name] = list(value) if isinstance(value, list) \
                    else value
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "SimStats":
        """Rebuild a run's stats from :meth:`to_json_dict` output.

        Raises :class:`~repro.errors.ReproError` on a version mismatch or
        a payload whose keys do not exactly match the current schema, so
        stale cache entries surface as misses instead of silently wrong
        results.
        """
        if not isinstance(data, dict):
            raise ReproError(
                f"stats payload must be a dict, got {type(data).__name__}"
            )
        version = data.get("format")
        if version != STATS_FORMAT:
            raise ReproError(
                f"stats payload format {version!r} != {STATS_FORMAT}"
            )
        field_names = {spec.name for spec in dataclasses.fields(cls)}
        payload_names = set(data) - {"format"}
        missing = sorted(field_names - payload_names)
        unknown = sorted(payload_names - field_names)
        if missing or unknown:
            raise ReproError(
                f"stats payload key mismatch: missing {missing}, "
                f"unknown {unknown}"
            )
        stats = cls()
        for name in field_names:
            value = data[name]
            if name in ("h2d", "d2h"):
                setattr(stats, name, TransferLog.from_json_dict(value))
            elif name == "per_allocation":
                stats.per_allocation = {
                    alloc: AllocationStats(**record)
                    for alloc, record in value.items()
                }
            elif name in ("access_trace", "timeline"):
                setattr(stats, name,
                        [tuple(sample) for sample in value])
            elif name == "metrics":
                stats.metrics.restore_live_state(value)
            else:
                setattr(stats, name,
                        list(value) if isinstance(value, list) else value)
        return stats

    def to_json(self, indent: int | None = None) -> str:
        """Canonical (sorted-keys) JSON string of :meth:`to_json_dict`."""
        return json.dumps(self.to_json_dict(), sort_keys=True,
                          indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SimStats":
        return cls.from_json_dict(json.loads(text))

    def as_dict(self) -> dict[str, float]:
        """Flat summary used by reports and experiment tables."""
        return {
            "total_kernel_time_ns": self.total_kernel_time_ns,
            "far_faults": self.far_faults,
            "fault_batches": self.fault_batches,
            "pages_migrated": self.pages_migrated,
            "pages_prefetched": self.pages_prefetched,
            "pages_evicted": self.pages_evicted,
            "pages_written_back": self.pages_written_back,
            "pages_thrashed": self.pages_thrashed,
            "h2d_bandwidth_gbps": self.h2d.average_bandwidth_gbps,
            "d2h_bandwidth_gbps": self.d2h.average_bandwidth_gbps,
            "h2d_transfers": self.h2d.total_transfers,
            "transfers_4kb": self.transfers_4kb,
            "tlb_hit_rate": self.tlb_hit_rate,
            "eviction_stall_ns": self.eviction_stall_ns,
        }
