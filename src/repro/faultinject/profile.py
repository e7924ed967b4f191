"""Fault-injection profiles.

A :class:`FaultProfile` is a frozen, validated bundle of injection rates
(what goes wrong, how often) and resilience policy (how the driver fights
back).  Profiles are deterministic: the same profile and seed produce the
same injected fault sequence on every run, which is what makes resilience
experiments reproducible.

:class:`Profile` is the shared base of every profile shape in this
package (:class:`FaultProfile`, the service-layer
:class:`~repro.faultinject.service.ServiceFaultProfile` and the
cluster-layer :class:`~repro.faultinject.cluster.ClusterFaultProfile`):
one dict round-trip and one :meth:`Profile.load` resolving the CLI
spellings, so the three shapes cannot drift apart.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing
from dataclasses import dataclass
from pathlib import Path

from ..errors import ConfigurationError


def _coerce(text: str) -> object:
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            continue
    return text


@dataclass(frozen=True)
class Profile:
    """Frozen, validated profile base: dict round-trip and spec loading.

    Subclasses declare their fields (a ``seed: int`` among them), a
    ``kind`` label for error messages, their non-negative int
    ``counts``, the ``injectors`` that inject a fault when nonzero,
    :meth:`named` (their registry of named profiles), and extend
    :meth:`validate` for anything else.  Tuple-typed fields
    (``tuple[int, ...]``) travel as JSON lists and are written ``a+b``
    in inline specs.
    """

    #: Human label used in every error message ("fault profile", ...).
    kind = "profile"
    #: Fields that must hold non-negative ints.
    counts = ()
    #: Fields that inject a fault whenever they are nonzero/non-empty.
    injectors = ()

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent fields."""
        for name in self.counts:
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ConfigurationError(
                    f"{self.kind} {name} must be a non-negative int, "
                    f"got {value!r}"
                )
        for name, item_type in self._tuple_fields().items():
            value = getattr(self, name)
            if not isinstance(value, tuple) or not all(
                    isinstance(item, item_type) for item in value):
                raise ConfigurationError(
                    f"{self.kind} {name} must be a tuple of "
                    f"{item_type.__name__}s, got {value!r}"
                )
        if not isinstance(self.seed, int):
            raise ConfigurationError(f"{self.kind} seed must be an int")

    @property
    def injects_anything(self) -> bool:
        """True when at least one injecting field is set."""
        return any(getattr(self, name) for name in self.injectors)

    @classmethod
    def named(cls) -> dict[str, "Profile"]:
        """The named profiles :meth:`load` resolves by name."""
        return {}

    @classmethod
    @functools.cache
    def _tuple_fields(cls) -> dict[str, type]:
        """Tuple-typed field name -> element type, from the annotations."""
        hints = typing.get_type_hints(cls)
        return {f.name: typing.get_args(hints[f.name])[0]
                for f in dataclasses.fields(cls)
                if typing.get_origin(hints[f.name]) is tuple}

    def replace(self, **changes: object) -> "Profile":
        """Validated copy with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def from_dict(cls, fields: dict) -> "Profile":
        """Build (and validate) a profile from plain JSON-able fields."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(fields) - known
        if unknown:
            raise ConfigurationError(
                f"unknown {cls.kind} fields: {sorted(unknown)}"
            )
        fields = dict(fields)
        for name in cls._tuple_fields():
            if isinstance(fields.get(name), list):
                fields[name] = tuple(fields[name])
        return cls(**fields)

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        for name in self._tuple_fields():
            data[name] = list(data[name])
        return data

    @classmethod
    def load(cls, spec: "str | dict | Profile",
             seed: int | None = None) -> "Profile":
        """Resolve a CLI/user profile spec into a validated profile.

        ``spec`` may be a profile instance, a dict of fields, a name
        from :meth:`named`, an inline ``key=value[,key=value...]``
        string, or a JSON file path.  ``seed`` overrides the profile's
        seed when given.
        """
        if isinstance(spec, cls):
            profile = spec
        elif isinstance(spec, dict):
            profile = cls.from_dict(spec)
        elif spec in cls.named():
            profile = cls.named()[spec]
        elif "=" in spec:
            tuples = cls._tuple_fields()
            fields: dict[str, object] = {}
            for pair in spec.split(","):
                key, sep, value = pair.partition("=")
                if not sep:
                    raise ConfigurationError(
                        f"bad {cls.kind} assignment {pair!r}"
                    )
                key = key.strip()
                if key in tuples:
                    fields[key] = tuple(
                        tuples[key](item) for item in value.split("+")
                        if item)
                else:
                    fields[key] = _coerce(value.strip())
            profile = cls.from_dict(fields)
        else:
            path = Path(spec)
            if not path.is_file():
                raise ConfigurationError(
                    f"{cls.kind} {spec!r} is neither a named profile "
                    f"({', '.join(sorted(cls.named()))}), a key=value "
                    "list, nor a JSON file"
                )
            fields = json.loads(path.read_text())
            if not isinstance(fields, dict):
                raise ConfigurationError(
                    f"{cls.kind} file {spec!r} must hold a JSON object"
                )
            profile = cls.from_dict(fields)
        if seed is not None and seed != profile.seed:
            profile = profile.replace(seed=seed)
        return profile


#: Profile fields that are probabilities (must lie in [0, 1]).
_RATE_FIELDS = (
    "transfer_fault_rate",
    "latency_spike_rate",
    "fault_drop_rate",
    "fault_duplicate_rate",
    "mshr_overflow_rate",
    "service_delay_rate",
)


@dataclass(frozen=True)
class FaultProfile(Profile):
    """What to inject, and how the driver is allowed to recover.

    All rates are per-opportunity probabilities drawn from one dedicated
    RNG stream (``seed``), independent of the policy RNG, so enabling
    injection never perturbs the random prefetcher/eviction decisions.
    """

    # --- injection (what goes wrong) ---------------------------------------
    #: Probability one H2D migration transfer fails in flight (the data
    #: never lands; the driver must retry).  D2H write-backs are not failed
    #: — their frames release on a fixed schedule the retry path would
    #: have to unwind — but they do suffer latency spikes.
    transfer_fault_rate: float = 0.0
    #: Probability a transfer (either channel) takes
    #: ``latency_spike_multiplier`` times its modelled latency.
    latency_spike_rate: float = 0.0
    latency_spike_multiplier: float = 4.0
    #: Probability a *new* far-fault's notification to the host is lost
    #: (the warp stays blocked; the fault is redelivered after
    #: ``fault_redelivery_ns``).
    fault_drop_rate: float = 0.0
    #: Probability a new far-fault is delivered to the driver twice.
    fault_duplicate_rate: float = 0.0
    #: Probability the GPU fault buffer transiently overflows on a new
    #: fault: same lost-notification mechanics as a drop, counted apart.
    mshr_overflow_rate: float = 0.0
    #: Probability the driver's batch-service wake-up is delayed by
    #: ``service_delay_ns``.
    service_delay_rate: float = 0.0
    service_delay_ns: float = 100_000.0
    #: Redelivery latency for lost far-fault notifications.
    fault_redelivery_ns: float = 50_000.0

    # --- resilience (how the driver recovers) ------------------------------
    #: Retries per transfer group before :class:`RetryExhaustedError`.
    max_retries: int = 8
    #: Capped exponential backoff between retries, in simulated ns:
    #: ``min(base * multiplier**(attempt-1), cap)``.
    backoff_base_ns: float = 10_000.0
    backoff_multiplier: float = 2.0
    backoff_cap_ns: float = 1_000_000.0
    #: Consecutive failed transfers before the driver degrades from the
    #: active prefetcher to on-demand paging (0 disables degradation).
    degrade_after_failures: int = 4

    #: Seed of the injection RNG stream.
    seed: int = 0

    kind = "fault profile"
    counts = ("max_retries", "degrade_after_failures")
    injectors = _RATE_FIELDS

    @classmethod
    def named(cls) -> dict[str, "FaultProfile"]:
        return PROFILES

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on any inconsistent rate."""
        super().validate()
        for name in _RATE_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"fault profile {name} must be in [0, 1], got {value!r}"
                )
        if self.latency_spike_multiplier < 1.0:
            raise ConfigurationError(
                "latency_spike_multiplier must be >= 1"
            )
        for name in ("service_delay_ns", "fault_redelivery_ns",
                     "backoff_base_ns", "backoff_cap_ns"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"fault profile {name} must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError("backoff_multiplier must be >= 1")

    def backoff_ns(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based), capped."""
        if attempt < 1:
            raise ConfigurationError("retry attempts are 1-based")
        try:
            raw = self.backoff_base_ns \
                * self.backoff_multiplier ** (attempt - 1)
        except OverflowError:
            # multiplier**attempt exceeds float range long after the cap
            # has taken over (a retry storm with a huge max_retries)
            raw = self.backoff_cap_ns
        return min(raw, self.backoff_cap_ns)


#: Named profiles for the CLI and experiments, roughly graded by severity.
PROFILES: dict[str, FaultProfile] = {
    "light": FaultProfile(
        transfer_fault_rate=0.01, latency_spike_rate=0.02,
        fault_drop_rate=0.005,
    ),
    "moderate": FaultProfile(
        transfer_fault_rate=0.05, latency_spike_rate=0.05,
        fault_drop_rate=0.02, fault_duplicate_rate=0.02,
        service_delay_rate=0.05,
    ),
    "heavy": FaultProfile(
        transfer_fault_rate=0.15, latency_spike_rate=0.10,
        fault_drop_rate=0.05, fault_duplicate_rate=0.05,
        mshr_overflow_rate=0.02, service_delay_rate=0.10,
    ),
}

