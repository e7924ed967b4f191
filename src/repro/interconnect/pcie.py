"""PCI-e link with independent, serialized read and write channels.

Host-to-device migrations ride the read channel; eviction write-backs ride
the write channel; the two proceed in parallel (which is what makes
pre-eviction overlap write-backs with execution).  Each channel is a FIFO:
a transfer starts at ``max(requested_start, channel_free)`` and occupies the
channel for ``BandwidthModel.latency_ns(size)``.  The model never changes
once built, so each channel keeps the latency of every size it has seen:
a run schedules a handful of distinct sizes thousands of times.

Fault injection: when a :class:`~repro.faultinject.FaultInjector` is
attached, a scheduled transfer may be marked *failed* (it still occupies
the channel — the wire time was spent — but the data never lands, and the
driver must retry) or suffer a latency spike.  Without an injector the
schedule path is exactly the historical one.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.tracer import (
    CAT_INJECT,
    NULL_TRACER,
    PID_INJECT,
    PID_PCIE,
    TID_D2H,
    TID_H2D,
    TID_INJECT,
)
from ..stats import TransferLog
from .bandwidth import BandwidthModel


@dataclass(slots=True)
class Transfer:
    """One scheduled PCI-e transaction.

    Not frozen: a frozen dataclass's ``__init__`` pays an
    ``object.__setattr__`` per field, and one is built per transfer.
    """

    start_ns: float
    end_ns: float
    size_bytes: int
    direction: str  # "h2d" | "d2h"
    #: True when fault injection failed this transfer in flight; the
    #: channel time is spent but the payload must be re-sent.
    failed: bool = False

    @property
    def latency_ns(self) -> float:
        return self.end_ns - self.start_ns


class PcieChannel:
    """A serialized transfer queue in one direction."""

    def __init__(self, model: BandwidthModel, direction: str,
                 log: TransferLog, injector=None,
                 tracer=NULL_TRACER) -> None:
        self.model = model
        self.direction = direction
        self.log = log
        self.injector = injector
        self.tracer = tracer
        self._tid = TID_H2D if direction == "h2d" else TID_D2H
        self._span_name = "migrate" if direction == "h2d" \
            else "write_back"
        self.busy_until_ns = 0.0
        #: size_bytes -> model latency: the same float the model returns.
        self._latency: dict[int, float] = {}

    def schedule(self, size_bytes: int, earliest_start_ns: float,
                 note: dict | None = None) -> Transfer:
        """Queue one transaction; returns its realized start/end times.

        ``note`` is optional span context (page counts, prefetch flag,
        retry attempt) attached to the trace event; it never affects
        timing.
        """
        start = max(earliest_start_ns, self.busy_until_ns)
        latency = self._latency.get(size_bytes)
        if latency is None:
            latency = self._latency[size_bytes] = \
                self.model.latency_ns(size_bytes)
        failed = False
        multiplier = 1.0
        if self.injector is not None:
            failed, multiplier = \
                self.injector.transfer_disposition(self.direction)
            latency *= multiplier
        end = start + latency
        self.busy_until_ns = end
        self.log.record(size_bytes, latency)
        tracer = self.tracer
        if tracer.enabled:
            args = {"bytes": size_bytes}
            if note:
                args.update(note)
            if failed:
                args["failed"] = True
            tracer.complete(PID_PCIE, self._tid, self._span_name,
                            start, end, args=args)
            if failed:
                tracer.instant(PID_INJECT, TID_INJECT,
                               "injected:transfer_fault", start,
                               args={"bytes": size_bytes}, cat=CAT_INJECT)
            if multiplier != 1.0:
                tracer.instant(PID_INJECT, TID_INJECT,
                               "injected:latency_spike", start,
                               args={"multiplier": multiplier},
                               cat=CAT_INJECT)
        return Transfer(start, end, size_bytes, self.direction, failed)


class PcieLink:
    """Duplex PCI-e link: one read (H2D) and one write (D2H) channel."""

    def __init__(self, model: BandwidthModel, h2d_log: TransferLog,
                 d2h_log: TransferLog, injector=None,
                 tracer=NULL_TRACER) -> None:
        self.model = model
        self.read = PcieChannel(model, "h2d", h2d_log, injector, tracer)
        self.write = PcieChannel(model, "d2h", d2h_log, injector, tracer)

    def migrate(self, size_bytes: int, earliest_start_ns: float,
                note: dict | None = None) -> Transfer:
        """Host-to-device migration (demand or prefetch)."""
        return self.read.schedule(size_bytes, earliest_start_ns, note)

    def write_back(self, size_bytes: int, earliest_start_ns: float,
                   note: dict | None = None) -> Transfer:
        """Device-to-host eviction write-back."""
        return self.write.schedule(size_bytes, earliest_start_ns, note)
