"""Human-readable run report: where did the time go?

Turns one run's :class:`~repro.stats.SimStats` (and, when tracing was on,
its :class:`~repro.obs.tracer.SpanTracer`) into the plain-text answer to
the questions aggregate tables cannot address: which fault batches were
slowest, and how run time splits between fault handling, eviction stalls,
and wire time.
"""

from __future__ import annotations


def _format_table(headers, rows, title=None):
    # Imported lazily: repro.analysis pulls in modules that import
    # repro.stats, and repro.stats imports repro.obs — a top-level import
    # here would close that cycle during interpreter start-up.
    from ..analysis.report import format_table
    return format_table(headers, rows, title=title)


def _fmt_ns(ns: float) -> str:
    """Engineering-friendly rendering of a nanosecond quantity."""
    if ns >= 1e9:
        return f"{ns / 1e9:.3f} s"
    if ns >= 1e6:
        return f"{ns / 1e6:.3f} ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.3f} us"
    return f"{ns:.0f} ns"


def _percent(part: float, whole: float) -> str:
    return f"{100.0 * part / whole:5.1f}%" if whole else "    -"


def slowest_batches(tracer, top: int = 5) -> list[dict]:
    """The ``top`` longest fault-batch spans recorded in the trace."""
    batches = [e for e in tracer.events()
               if e.get("ph") == "X" and e.get("name") == "fault_batch"]
    batches.sort(key=lambda e: (-e["dur"], e["ts"]))
    return batches[:top]


def stall_attribution(stats) -> list[tuple[str, float]]:
    """(component, ns) rows of the run's main time sinks.

    The components overlap in simulated time (handling pipelines with
    transfers), so they are attribution signals, not a partition; each is
    also shown as a fraction of total kernel time.
    """
    return [
        ("fault handling", stats.total_fault_handling_ns),
        ("eviction stall", stats.eviction_stall_ns),
        ("H2D wire time", stats.h2d.busy_time_ns),
        ("D2H wire time", stats.d2h.busy_time_ns),
        ("retry backoff", stats.retry_backoff_ns),
    ]


def run_report(stats, tracer=None, top: int = 5,
               title: str = "run report") -> str:
    """Render the full report as plain text."""
    total = stats.total_kernel_time_ns
    lines = [title, "=" * len(title), ""]
    lines.append(
        f"kernels: {len(stats.kernel_times_ns)}   "
        f"total kernel time: {_fmt_ns(total)}   "
        f"far-faults: {stats.far_faults}   "
        f"batches: {stats.fault_batches}"
    )
    lines.append(
        f"migrated: {stats.pages_migrated} pages "
        f"({stats.pages_prefetched} prefetched)   "
        f"evicted: {stats.pages_evicted}   "
        f"thrashed: {stats.pages_thrashed}"
    )
    lines.append("")

    # --- stall attribution --------------------------------------------------
    rows = [[name, _fmt_ns(ns), _percent(ns, total)]
            for name, ns in stall_attribution(stats)]
    lines.append(_format_table(
        ["component", "time", "of kernel time"], rows,
        title="stall attribution (components overlap; not a partition)",
    ))
    lines.append("")

    # --- batch service latency ----------------------------------------------
    hist = stats.metrics.get("fault_batch.service_latency_ns")
    if hist is not None and hist.count:
        lines.append(
            f"fault-batch service latency: n={hist.count}  "
            f"mean={_fmt_ns(hist.mean)}  min={_fmt_ns(hist.min)}  "
            f"max={_fmt_ns(hist.max)}"
        )
    gauge = stats.metrics.get("memory.resident_pages")
    if gauge is not None and gauge.samples:
        lines.append(
            f"resident pages (sampled per batch): last={gauge.value:.0f}  "
            f"peak={gauge.max:.0f}"
        )
    if hist is not None or gauge is not None:
        lines.append("")

    # --- top-N slowest batches ----------------------------------------------
    if tracer is not None and tracer.enabled:
        slowest = slowest_batches(tracer, top)
        if slowest:
            rows = []
            for event in slowest:
                args = event.get("args", {})
                rows.append([
                    args.get("batch", "-"),
                    _fmt_ns(event["ts"] * 1e3),
                    _fmt_ns(event["dur"] * 1e3),
                    args.get("faults", "-"),
                    args.get("migrated_pages", "-"),
                ])
            lines.append(_format_table(
                ["batch", "start", "service time", "faults", "pages"],
                rows, title=f"top {len(slowest)} slowest fault batches",
            ))
            lines.append("")

    # --- resilience ---------------------------------------------------------
    if stats.injected_faults or stats.degradation_events:
        lines.append(
            f"injected perturbations: {stats.injected_faults}   "
            f"retries: {stats.migration_retries}   "
            f"recovered faults: {stats.recovered_faults}   "
            f"degradations: {stats.degradation_events}"
        )
        for when in stats.degradation_times_ns:
            lines.append(f"  degraded to on-demand paging at "
                         f"{_fmt_ns(when)}")
        lines.append("")

    # --- sampling losses ----------------------------------------------------
    if tracer is not None and tracer.dropped_events:
        lines.append(f"dropped by sampling caps: {tracer.dropped_events} "
                     "trace events")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
