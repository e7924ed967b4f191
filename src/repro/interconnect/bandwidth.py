"""Transfer-size-dependent PCI-e bandwidth.

The paper measures PCI-e 3.0 x16 read bandwidth for transfer sizes from 4 KB
to 1 MB (Table 1) and then "deduce[s] a function to express PCI-e bandwidth
as a function of transfer size" (Section 6.1).  We reproduce that function by
interpolating the measured bandwidths linearly in ``log2(size)`` — exact at
every Table 1 point, monotone between them, and clamped outside the measured
range (below 4 KB the 4 KB bandwidth applies; above 1 MB the link is treated
as saturated at the 1 MB bandwidth).

Physically the curve is explained by a constant per-transaction activation
overhead: ``latency(size) = alpha + size/beta``.  The fitted ``alpha``/
``beta`` are exposed for diagnostics and ablations even though the
interpolant is what the simulator uses.
"""

from __future__ import annotations

import math

from .. import constants


class BandwidthModel:
    """Latency/bandwidth as a function of transfer size (Table 1)."""

    def __init__(self) -> None:
        points = constants.PCIE_MEASURED_BANDWIDTH
        sizes = sorted(points)
        bandwidths = [points[s] for s in sizes]
        self._log_sizes = [math.log2(s) for s in sizes]
        self._bandwidths = bandwidths
        self.alpha_ns, self.ns_per_byte = self._fit_overhead_model(
            sizes, bandwidths
        )

    @staticmethod
    def _fit_overhead_model(
        sizes: list[int], bandwidths: list[float]
    ) -> tuple[float, float]:
        """Least-squares fit of ``latency = alpha + size/beta`` (diagnostic).

        The fit is weighted by 1/size so small transfers, whose latency is
        dominated by the activation overhead, are not drowned out.
        """
        # Weighted rows are (1/s, 1) against latency/s = 1e9/b, so the 2x2
        # normal equations need only n and four sums.
        n, inv = len(sizes), [1.0 / s for s in sizes]
        y = [1e9 / b for b in bandwidths]
        s1, s2 = math.fsum(inv), math.fsum(w * w for w in inv)
        t1, t2 = math.fsum(y), math.fsum(a * w for a, w in zip(y, inv))
        det = n * s2 - s1 * s1
        return (max((n * t2 - s1 * t1) / det, 0.0),
                max((s2 * t1 - s1 * t2) / det, 1e-12))

    @property
    def peak_bandwidth_gbps(self) -> float:
        """Bandwidth of the largest tabulated transfer, in GB/s."""
        return self._bandwidths[-1] / 1e9

    def bandwidth_bps(self, size_bytes: int) -> float:
        """Achieved bandwidth (bytes/s) for one transfer of ``size_bytes``."""
        if size_bytes <= 0:
            raise ValueError("transfer size must be positive")
        log_size = math.log2(size_bytes)
        log_sizes = self._log_sizes
        if log_size <= log_sizes[0]:
            return self._bandwidths[0]
        if log_size >= log_sizes[-1]:
            return self._bandwidths[-1]
        # Linear interpolation in log2(size).
        for i in range(1, len(log_sizes)):
            if log_size <= log_sizes[i]:
                span = log_sizes[i] - log_sizes[i - 1]
                frac = (log_size - log_sizes[i - 1]) / span
                return (self._bandwidths[i - 1]
                        + frac * (self._bandwidths[i]
                                  - self._bandwidths[i - 1]))
        return self._bandwidths[-1]

    def bandwidth_gbps(self, size_bytes: int) -> float:
        """Achieved bandwidth in GB/s for one transfer of ``size_bytes``."""
        return self.bandwidth_bps(size_bytes) / 1e9

    def latency_ns(self, size_bytes: int) -> float:
        """Transfer latency for one transaction of ``size_bytes``."""
        return size_bytes / self.bandwidth_bps(size_bytes) * 1e9
