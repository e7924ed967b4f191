"""Named-metrics registry: counters, gauges, histograms.

:class:`~repro.stats.SimStats` keeps the paper's "array of statistical
counters" as plain dataclass fields (the hot paths increment attributes
directly); this module is the *export and distribution* layer on top of
them:

* **counters** — monotonic totals (the service's job and worker
  counts; the simulator's own counters are SimStats fields, which
  :func:`repro.obs.export.metrics_dict` exports as ``sim.*``).
* **gauges** — point-in-time values with min/max/last tracking (e.g.
  resident pages sampled on fault-batch boundaries).
* **histograms** — bucketed distributions with sum/count/min/max (e.g.
  per-batch fault service latency, which ``total_fault_handling_ns``
  alone cannot show).

``snapshot()`` flattens everything into one ``{name: value}`` dict ready
for JSON export; names are dotted (``fault_batch.service_latency_ns``)
and histogram/gauge sub-fields are suffixed (``…_count``, ``…_max``).

Instruments may carry **labels** (``registry.gauge("serve.worker.inflight",
labels={"worker": "0"})``): each label set is its own instrument whose
full registry key is the Prometheus-style ``name{worker="0"}``, while
``base_name`` keeps the unlabelled family name for exposition grouping
(see :mod:`repro.obs.prom`).
"""

from __future__ import annotations

from bisect import bisect_left


def labeled_name(name: str, labels: dict | None) -> str:
    """The full registry key for an instrument: ``name{k="v",...}``.

    Labels are sorted so the same set always produces the same key;
    no labels means the key is the bare name.
    """
    if not labels:
        return name
    inner = ",".join(f'{key}="{labels[key]}"' for key in sorted(labels))
    return f"{name}{{{inner}}}"


def base_name_of(full_name: str) -> str:
    """Strip a label suffix from a full registry key."""
    return full_name.split("{", 1)[0]


def parse_labeled_name(full_name: str) -> tuple[str, dict]:
    """Invert :func:`labeled_name`: ``name{k="v"}`` -> (name, {k: v})."""
    if "{" not in full_name:
        return full_name, {}
    base, _, raw = full_name.partition("{")
    labels = {}
    for pair in raw.rstrip("}").split(","):
        if not pair:
            continue
        key, _, value = pair.partition("=")
        labels[key] = value.strip('"')
    return base, labels


def exponential_buckets(start: float, factor: float,
                        count: int) -> list[float]:
    """``count`` bucket upper bounds: start, start*factor, ..."""
    if start <= 0 or factor <= 1.0 or count < 1:
        raise ValueError("need start > 0, factor > 1, count >= 1")
    bounds = []
    bound = float(start)
    for _ in range(count):
        bounds.append(bound)
        bound *= factor
    return bounds


#: Default buckets for nanosecond latencies: 1 us .. ~16 s, powers of 4.
LATENCY_NS_BUCKETS = exponential_buckets(1e3, 4.0, 12)
#: Default buckets for page counts: 1 .. 2048, powers of 2.
PAGES_BUCKETS = exponential_buckets(1, 2.0, 12)


class Counter:
    """Monotonic total."""

    __slots__ = ("name", "base_name", "labels", "help", "value")

    def __init__(self, name: str, help: str = "",
                 labels: dict | None = None) -> None:
        self.name = labeled_name(name, labels)
        self.base_name = name
        self.labels = dict(labels) if labels else {}
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> dict:
        return {self.name: self.value}

    def state_dict(self) -> dict:
        return {"kind": "counter", "help": self.help, "value": self.value}

    def load_state(self, state: dict) -> None:
        self.value = state["value"]


class Gauge:
    """Point-in-time value; remembers last/min/max and sample count."""

    __slots__ = ("name", "base_name", "labels", "help", "value", "min",
                 "max", "samples")

    def __init__(self, name: str, help: str = "",
                 labels: dict | None = None) -> None:
        self.name = labeled_name(name, labels)
        self.base_name = name
        self.labels = dict(labels) if labels else {}
        self.help = help
        self.value = 0.0
        self.min = None
        self.max = None
        self.samples = 0

    def set(self, value: float) -> None:
        self.value = value
        self.samples += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def snapshot(self) -> dict:
        return {
            self.name: self.value,
            f"{self.name}_min": 0 if self.min is None else self.min,
            f"{self.name}_max": 0 if self.max is None else self.max,
            f"{self.name}_samples": self.samples,
        }

    def state_dict(self) -> dict:
        return {"kind": "gauge", "help": self.help, "value": self.value,
                "min": self.min, "max": self.max, "samples": self.samples}

    def load_state(self, state: dict) -> None:
        self.value = state["value"]
        self.min = state["min"]
        self.max = state["max"]
        self.samples = state["samples"]


class Histogram:
    """Bucketed distribution; buckets are upper bounds, plus overflow."""

    __slots__ = ("name", "base_name", "labels", "help", "bounds",
                 "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, bounds: list[float] | None = None,
                 help: str = "", labels: dict | None = None) -> None:
        self.name = labeled_name(name, labels)
        self.base_name = name
        self.labels = dict(labels) if labels else {}
        self.help = help
        self.bounds = sorted(bounds) if bounds else list(LATENCY_NS_BUCKETS)
        self.counts = [0] * (len(self.bounds) + 1)  # +1 overflow bucket
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float | None:
        """Approximate ``q``-quantile (0..1) from the bucket counts.

        Returns the upper bound of the bucket containing the rank,
        clamped to the observed min/max so tails cannot exceed real
        samples; the overflow bucket reports the observed max.  ``None``
        when empty — a cold-start histogram has no p50, and serializing
        0 would read as "zero latency".  Exact enough for
        service-latency p50/p95/p99 style reporting, which is its
        purpose.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if self.count == 0:
            return None
        rank = q * self.count
        cumulative = 0
        for bound, bucket_count in zip(self.bounds, self.counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                return min(max(bound, self.min), self.max)
        return self.max

    def quantile_snapshot(self) -> dict:
        """``{"<name>_p50": …, "<name>_p95": …, "<name>_p99": …}``, empty
        while nothing was observed (see :meth:`quantile`)."""
        out = {}
        for q, suffix in ((0.50, "_p50"), (0.95, "_p95"), (0.99, "_p99")):
            value = self.quantile(q)
            if value is not None:
                out[f"{self.name}{suffix}"] = value
        return out

    def bucket_dict(self) -> dict:
        """``{"<=bound": count, ..., ">bound": overflow}``."""
        out = {}
        for bound, count in zip(self.bounds, self.counts):
            out[f"le_{bound:g}"] = count
        out[f"gt_{self.bounds[-1]:g}"] = self.counts[-1]
        return out

    def snapshot(self) -> dict:
        return {
            f"{self.name}_count": self.count,
            f"{self.name}_sum": self.sum,
            f"{self.name}_mean": self.mean,
            f"{self.name}_min": 0 if self.min is None else self.min,
            f"{self.name}_max": 0 if self.max is None else self.max,
            f"{self.name}_buckets": self.bucket_dict(),
        }

    def state_dict(self) -> dict:
        return {"kind": "histogram", "help": self.help,
                "bounds": list(self.bounds), "counts": list(self.counts),
                "count": self.count, "sum": self.sum,
                "min": self.min, "max": self.max}

    @classmethod
    def merge(cls, states: list, name: str = "merged",
              help: str = "", labels: dict | None = None) -> "Histogram":
        """Exact bucket-wise merge of histogram snapshots.

        ``states`` holds :meth:`state_dict` payloads (or live
        :class:`Histogram` instances, which are snapshotted first).
        Counts are summed bucket-wise, sums and counts added, and the
        min/max are the min of mins / max of maxes — so a coordinator
        aggregating per-shard latency histograms reproduces exactly the
        histogram one process observing every sample would have built,
        rather than a re-sampled approximation.  All inputs must share
        one bucket ladder; mixing ladders raises ``ValueError`` because
        a bucket-wise sum across different bounds is meaningless.
        """
        dicts = [state.state_dict() if isinstance(state, cls) else state
                 for state in states]
        if not dicts:
            return cls(name, help=help, labels=labels)
        bounds = [float(bound) for bound in dicts[0]["bounds"]]
        merged = cls(name, bounds=bounds, help=help, labels=labels)
        for state in dicts:
            if [float(bound) for bound in state["bounds"]] != bounds:
                raise ValueError(
                    f"cannot merge histograms with different bucket "
                    f"bounds: {state['bounds']!r} vs {bounds!r}"
                )
            for index, count in enumerate(state["counts"]):
                merged.counts[index] += int(count)
            merged.count += state["count"]
            merged.sum += state["sum"]
            low, high = state["min"], state["max"]
            if low is not None and (merged.min is None
                                    or low < merged.min):
                merged.min = low
            if high is not None and (merged.max is None
                                     or high > merged.max):
                merged.max = high
        return merged

    def load_state(self, state: dict) -> None:
        self.bounds = [float(bound) for bound in state["bounds"]]
        self.counts = [int(count) for count in state["counts"]]
        self.count = state["count"]
        self.sum = state["sum"]
        self.min = state["min"]
        self.max = state["max"]


class MetricsRegistry:
    """Get-or-create registry of named instruments.

    Instruments are created on first access, so call sites never check for
    existence; re-registering a name returns the existing instrument (and
    raises if the kind differs — a name can only ever mean one thing).
    """

    def __init__(self) -> None:
        self._instruments: dict[str, object] = {}

    def _get_or_create(self, name: str, kind, factory):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}"
            )
        return instrument

    def counter(self, name: str, help: str = "",
                labels: dict | None = None) -> Counter:
        return self._get_or_create(labeled_name(name, labels), Counter,
                                   lambda: Counter(name, help, labels))

    def gauge(self, name: str, help: str = "",
              labels: dict | None = None) -> Gauge:
        return self._get_or_create(labeled_name(name, labels), Gauge,
                                   lambda: Gauge(name, help, labels))

    def histogram(self, name: str, bounds: list[float] | None = None,
                  help: str = "",
                  labels: dict | None = None) -> Histogram:
        return self._get_or_create(
            labeled_name(name, labels), Histogram,
            lambda: Histogram(name, bounds, help, labels)
        )

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def get(self, name: str):
        return self._instruments.get(name)

    def instruments(self) -> list:
        """Every registered instrument, sorted by full name."""
        return [self._instruments[name]
                for name in sorted(self._instruments)]

    def snapshot(self) -> dict:
        """One flat dict over every instrument, sorted by name."""
        out: dict = {}
        for name in sorted(self._instruments):
            out.update(self._instruments[name].snapshot())
        return out

    def live_state(self) -> dict:
        """Serializable state of every instrument, by name."""
        return {
            name: instrument.state_dict()
            for name, instrument in sorted(self._instruments.items())
        }

    def restore_live_state(self, state: dict) -> None:
        """Recreate/overwrite live instruments from :meth:`live_state`."""
        for name, instrument_state in state.items():
            kind = instrument_state.get("kind")
            help_text = instrument_state.get("help", "")
            base, labels = parse_labeled_name(name)
            labels = labels or None
            if kind == "counter":
                instrument = self.counter(base, help_text, labels=labels)
            elif kind == "gauge":
                instrument = self.gauge(base, help_text, labels=labels)
            elif kind == "histogram":
                instrument = self.histogram(
                    base, instrument_state.get("bounds"), help_text,
                    labels=labels
                )
            else:
                raise ValueError(
                    f"unknown instrument kind {kind!r} for metric {name!r}"
                )
            instrument.load_state(instrument_state)
