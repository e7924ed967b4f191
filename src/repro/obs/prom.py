"""Prometheus text-format exposition for a :class:`MetricsRegistry`.

The service's ``GET /v1/metrics`` has always answered JSON; this module
renders the same registry in the Prometheus *text exposition format*
(version 0.0.4) so a stock Prometheus server can scrape
``/v1/metrics?format=prom`` without an adapter:

* dotted names are sanitized (``serve.jobs_done`` ->
  ``serve_jobs_done``) — dots are invalid in Prometheus metric names;
* instruments sharing a base name (label variants like
  ``serve.worker.inflight{worker="0"}``) are grouped into one metric
  *family* with a single ``# HELP`` / ``# TYPE`` header;
* counters and gauges emit one sample each; histograms emit the
  conventional ``_bucket{le="..."}`` cumulative series plus ``_sum``
  and ``_count``.

:func:`parse_prometheus_text` is the matching strict reader used by the
test suite (and ``repro loadgen``'s smoke checks) to prove the endpoint
actually parses: it validates comment syntax, sample-line grammar, TYPE
declarations, and histogram invariants (cumulative buckets, ``+Inf``
bucket equal to ``_count``), returning ``{sample_name: value}``.
"""

from __future__ import annotations

import re

from .metrics import Counter, Gauge, Histogram

_INVALID_NAME_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"          # metric name
    r"(\{[^{}]*\})?"                         # optional label set
    r" "                                      # single space
    r"([+-]?(?:[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?|Inf|inf))$"
)
_LABEL_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"$')
_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


def prometheus_name(name: str) -> str:
    """A dotted registry name as a legal Prometheus metric name."""
    sanitized = _INVALID_NAME_CHARS.sub("_", name)
    if sanitized[:1].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _format_value(value) -> str:
    if value is None:
        value = 0
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _format_labels(labels: dict, extra: dict | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(f'{key}="{merged[key]}"' for key in sorted(merged))
    return "{" + inner + "}"


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def prometheus_text(registry) -> str:
    """Render every instrument in ``registry`` as exposition text.

    Families are emitted in sorted base-name order; label variants of
    one family are contiguous under a single header, as the format
    requires.
    """
    families: dict[str, list] = {}
    for instrument in registry.instruments():
        families.setdefault(instrument.base_name, []).append(instrument)

    lines: list[str] = []
    for base in sorted(families):
        instruments = families[base]
        name = prometheus_name(base)
        first = instruments[0]
        if isinstance(first, Counter):
            kind = "counter"
        elif isinstance(first, Gauge):
            kind = "gauge"
        elif isinstance(first, Histogram):
            kind = "histogram"
        else:  # pragma: no cover — registry only holds the three kinds
            kind = "untyped"
        if first.help:
            lines.append(f"# HELP {name} {_escape_help(first.help)}")
        lines.append(f"# TYPE {name} {kind}")
        for instrument in instruments:
            if kind == "histogram":
                lines.extend(_histogram_lines(name, instrument))
            else:
                labels = _format_labels(instrument.labels)
                lines.append(
                    f"{name}{labels} {_format_value(instrument.value)}")
    return "\n".join(lines) + "\n"


def _histogram_lines(name: str, histogram: Histogram) -> list[str]:
    lines = []
    cumulative = 0
    for bound, count in zip(histogram.bounds, histogram.counts):
        cumulative += count
        labels = _format_labels(histogram.labels, {"le": f"{bound:g}"})
        lines.append(f"{name}_bucket{labels} {cumulative}")
    labels = _format_labels(histogram.labels, {"le": "+Inf"})
    lines.append(f"{name}_bucket{labels} {histogram.count}")
    plain = _format_labels(histogram.labels)
    lines.append(f"{name}_sum{plain} {_format_value(histogram.sum)}")
    lines.append(f"{name}_count{plain} {histogram.count}")
    return lines


def parse_prometheus_text(text: str) -> dict[str, float]:
    """Strictly parse exposition text; raises ``ValueError`` on any
    malformed line or violated histogram invariant.

    Returns ``{sample_name_with_labels: value}`` — the flat view tests
    assert against.  Checks performed:

    * every non-comment line matches the sample grammar
      (``name{labels} value``);
    * every label pair is ``key="value"``;
    * every sample's family has a preceding ``# TYPE`` declaration
      with a known type;
    * histogram ``_bucket`` series are cumulative (non-decreasing in
      ``le`` order) and end in an ``le="+Inf"`` bucket that equals the
      family's ``_count``.
    """
    samples: dict[str, float] = {}
    types: dict[str, str] = {}
    buckets: dict[tuple[str, str], list[tuple[str, float]]] = {}

    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 3:
                raise ValueError(f"line {line_no}: malformed comment")
            if parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in _TYPES:
                    raise ValueError(
                        f"line {line_no}: bad TYPE declaration {line!r}")
                types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {line_no}: malformed sample {line!r}")
        name, raw_labels, raw_value = match.groups()
        label_pairs: dict[str, str] = {}
        if raw_labels:
            for pair in raw_labels[1:-1].split(","):
                if not _LABEL_RE.match(pair):
                    raise ValueError(
                        f"line {line_no}: malformed label {pair!r}")
                key, _, value = pair.partition("=")
                label_pairs[key] = value.strip('"')
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[:-len(suffix)] in types:
                family = name[:-len(suffix)]
                break
        if family not in types:
            raise ValueError(
                f"line {line_no}: sample {name!r} has no TYPE declaration")
        value = float(raw_value.replace("Inf", "inf"))
        samples[name + (raw_labels or "")] = value
        if name.endswith("_bucket") and types.get(family) == "histogram":
            series = _format_labels(
                {k: v for k, v in label_pairs.items() if k != "le"})
            buckets.setdefault((family, series), []).append(
                (label_pairs.get("le", ""), value))

    for (family, series_labels), series in buckets.items():
        key = f"{family}{series_labels or ''}"
        values = [value for _, value in series]
        if values != sorted(values):
            raise ValueError(f"histogram {key!r} buckets not cumulative")
        inf = {le: value for le, value in series}.get("+Inf")
        if inf is None:
            raise ValueError(f"histogram {key!r} missing +Inf bucket")
        count = samples.get(f"{family}_count{series_labels or ''}")
        if count is not None and count != inf:
            raise ValueError(
                f"histogram {key!r}: +Inf bucket {inf:g} != _count "
                f"{count:g}")
    return samples
