"""Exporters: Chrome ``trace_event`` JSON and flat metrics JSON.

The trace format is the JSON-array-of-events flavour documented in the
Chrome Trace Event spec and accepted by Perfetto's legacy importer and
``chrome://tracing``: a top-level object with a ``traceEvents`` list whose
entries carry ``ph`` (phase), ``ts``/``dur`` (microseconds), ``pid``/
``tid``, ``name``, ``cat``, and optional ``args``.

:func:`validate_chrome_trace` is the schema gate used by the tests
(``tests/test_obs.py``): field presence/types, non-negative durations,
matched async begin/end pairs, and strict nesting of complete events per
track (a partially-overlapping pair of "X" spans renders wrong in every
viewer, so it is rejected here rather than discovered in the UI).
"""

from __future__ import annotations

import json
from pathlib import Path

#: Phases the simulator emits (a subset of the Chrome spec).
_KNOWN_PHASES = {"X", "i", "C", "M", "b", "e"}


def chrome_trace_dict(tracer) -> dict:
    """The exported trace as a plain dict (``json.dump``-ready)."""
    return {
        "traceEvents": tracer.events(),
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "dropped_events": tracer.dropped_events,
        },
    }


def to_chrome_json(tracer) -> str:
    """Serialized trace; separators are fixed so output is byte-stable."""
    return json.dumps(chrome_trace_dict(tracer), indent=1,
                      sort_keys=False, separators=(",", ": "))


def write_chrome_trace(tracer, path: str | Path) -> Path:
    """Write the trace JSON; returns the resolved path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(to_chrome_json(tracer) + "\n")
    return path


# --- metrics ----------------------------------------------------------------

#: SimStats counters exported as ``sim.<field>``.
SIM_COUNTERS = (
    "tlb_hits", "tlb_misses", "page_table_walks",
    "far_faults", "fault_batches", "mshr_merges",
    "pages_migrated", "pages_prefetched", "pages_thrashed",
    "pages_evicted", "eviction_events", "pages_written_back",
    "pages_dropped_clean",
    "recovered_faults", "migration_retries", "degradation_events",
    "watchdog_ticks",
    "total_fault_handling_ns", "eviction_stall_ns", "retry_backoff_ns",
)


def metrics_dict(stats) -> dict:
    """One flat ``{name: value}`` dict over everything a run measured.

    Merges, in order (later sections use distinct key prefixes so nothing
    collides): the classic ``as_dict()`` table counters, the resilience
    counters, the :data:`SIM_COUNTERS` fields as ``sim.*``, the registry
    snapshot (the run's histograms and gauges), and transfer-size
    distributions from the PCI-e logs.
    """
    out = dict(stats.as_dict())
    out.update(stats.resilience_dict())
    for name in SIM_COUNTERS:
        out[f"sim.{name}"] = getattr(stats, name)
    out.update(stats.metrics.snapshot())
    out["transfer.h2d_size_histogram"] = {
        str(size): count
        for size, count in sorted(stats.h2d.histogram.items())
    }
    out["transfer.d2h_size_histogram"] = {
        str(size): count
        for size, count in sorted(stats.d2h.histogram.items())
    }
    return out


def to_metrics_json(stats) -> str:
    return json.dumps(metrics_dict(stats), indent=1, sort_keys=True,
                      separators=(",", ": "))


def write_metrics(stats, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(to_metrics_json(stats) + "\n")
    return path


# --- validation -------------------------------------------------------------

def validate_chrome_trace(trace: dict) -> list[str]:
    """Schema-check an exported trace; returns a list of problems.

    An empty list means the trace is well-formed: required fields present
    and typed, durations non-negative, async ``b``/``e`` pairs matched by
    (pid, cat, id), and complete events strictly nested per (pid, tid)
    track.
    """
    problems: list[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]

    number = (int, float)
    async_open: dict[tuple, int] = {}
    spans_by_track: dict[tuple, list[tuple[float, float]]] = {}

    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i}: not an object")
            continue
        where = f"event {i} ({event.get('name')!r})"
        ph = event.get("ph")
        if ph not in _KNOWN_PHASES:
            problems.append(f"{where}: unknown ph {ph!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: name missing or not a string")
        if not isinstance(event.get("pid"), int) \
                or not isinstance(event.get("tid"), int):
            problems.append(f"{where}: pid/tid missing or not integers")
            continue
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, number) or ts < 0:
            problems.append(f"{where}: ts missing or negative")
            continue
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, number) or dur < 0:
                problems.append(f"{where}: dur missing or negative")
                continue
            track = (event["pid"], event["tid"])
            spans_by_track.setdefault(track, []).append((ts, ts + dur))
        elif ph in ("b", "e"):
            key = (event["pid"], event.get("cat"), event.get("id"))
            if event.get("id") is None:
                problems.append(f"{where}: async event without id")
                continue
            if ph == "b":
                async_open[key] = async_open.get(key, 0) + 1
            else:
                if async_open.get(key, 0) <= 0:
                    problems.append(f"{where}: async end without begin "
                                    f"for id {key[2]}")
                else:
                    async_open[key] -= 1
        elif ph == "C":
            if not isinstance(event.get("args"), dict):
                problems.append(f"{where}: counter without args")

    for key, open_count in sorted(async_open.items()):
        if open_count:
            problems.append(f"async span id {key[2]} (pid {key[0]}) "
                            f"begun {open_count}x but never ended")

    for track, spans in sorted(spans_by_track.items()):
        problems.extend(_check_nesting(track, spans))
    return problems


#: Slack for back-to-back spans: timestamps are ns converted to us, so
#: exactly-touching spans can disagree by one float ulp.  One picosecond
#: (1e-6 us) is far below any simulated span and far above any ulp here.
_NESTING_EPSILON_US = 1e-6


def _check_nesting(track: tuple,
                   spans: list[tuple[float, float]]) -> list[str]:
    """Complete events on one track must nest (no partial overlap)."""
    problems = []
    stack: list[tuple[float, float]] = []
    for start, end in sorted(spans):
        while stack and stack[-1][1] <= start + _NESTING_EPSILON_US:
            stack.pop()
        if stack and end > stack[-1][1] + _NESTING_EPSILON_US:
            problems.append(
                f"track pid={track[0]} tid={track[1]}: span "
                f"[{start}, {end}] partially overlaps [{stack[-1][0]}, "
                f"{stack[-1][1]}]"
            )
            continue
        stack.append((start, end))
    return problems
