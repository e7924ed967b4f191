"""Table 1: PCI-e read bandwidth measured for different transfer sizes.

Regenerates the paper's calibration table from the bandwidth model and
verifies the model against the measured points.
"""

from __future__ import annotations

from .. import constants
from ..interconnect.bandwidth import BandwidthModel
from .common import ExperimentResult

#: The transfer sizes of the paper's Table 1.
TRANSFER_SIZES_KB = (4, 16, 64, 256, 1024)


def run() -> ExperimentResult:
    """Evaluate the bandwidth model at the paper's transfer sizes."""
    model = BandwidthModel()
    result = ExperimentResult(
        name="Table 1",
        description="PCI-e read bandwidth vs transfer size",
        headers=["Transfer Size (KB)", "Paper (GB/s)", "Model (GB/s)",
                 "Latency (us)"],
    )
    for size_kb in TRANSFER_SIZES_KB:
        size = size_kb * constants.KIB
        paper = constants.PCIE_MEASURED_BANDWIDTH[size] / 1e9
        result.add_row(size_kb, paper, model.bandwidth_gbps(size),
                       model.latency_ns(size) / 1e3)
    result.notes.append(
        f"fitted per-transaction overhead alpha = {model.alpha_ns:.0f} ns"
    )
    return result


def main() -> None:
    print(run().to_table())


if __name__ == "__main__":
    main()
