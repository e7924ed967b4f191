"""Tests for the PCI-e bandwidth model and duplex link."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import constants
from repro.errors import ConfigurationError
from repro.interconnect.bandwidth import BandwidthModel
from repro.interconnect.pcie import PcieLink
from repro.stats import TransferLog

KIB = constants.KIB


class TestBandwidthModel:
    def test_fits_table1_within_tolerance(self):
        """The latency model reproduces every Table 1 bandwidth within 15%
        (it is a 2-parameter fit of 5 points)."""
        model = BandwidthModel()
        for size, measured in constants.PCIE_MEASURED_BANDWIDTH.items():
            predicted = model.bandwidth_gbps(size) * 1e9
            assert predicted == pytest.approx(measured, rel=0.15)

    def test_bandwidth_monotone_in_size(self):
        model = BandwidthModel()
        sizes = [4 * KIB * 2 ** i for i in range(10)]
        bandwidths = [model.bandwidth_gbps(s) for s in sizes]
        assert bandwidths == sorted(bandwidths)

    def test_latency_monotone_in_size(self):
        model = BandwidthModel()
        assert model.latency_ns(4 * KIB) < model.latency_ns(64 * KIB) \
            < model.latency_ns(1024 * KIB)

    def test_peak_bandwidth_near_pcie3_limit(self):
        model = BandwidthModel()
        # PCI-e 3.0 x16 practical limit is ~12 GB/s; Table 1 tops at 11.2.
        assert 10.0 <= model.peak_bandwidth_gbps <= 14.0

    def test_4kb_transfer_around_1_3us(self):
        # 4096 / 3.2219 GB/s = 1.27us; the fit should land in [0.9, 1.8]us.
        model = BandwidthModel()
        assert 900 <= model.latency_ns(4 * KIB) <= 1800

    def test_rejects_zero_size_transfer(self):
        model = BandwidthModel()
        with pytest.raises(ValueError):
            model.latency_ns(0)

    @given(st.integers(min_value=1, max_value=16 * constants.MIB))
    @settings(max_examples=100, deadline=None)
    def test_bandwidth_below_peak(self, size):
        model = BandwidthModel()
        assert model.bandwidth_gbps(size) <= model.peak_bandwidth_gbps


def make_link():
    model = BandwidthModel()
    return PcieLink(model, TransferLog(), TransferLog()), model


class TestPcieLink:
    def test_transfers_serialize_on_one_channel(self):
        link, model = make_link()
        t1 = link.migrate(4 * KIB, earliest_start_ns=0.0)
        t2 = link.migrate(4 * KIB, earliest_start_ns=0.0)
        assert t1.start_ns == 0.0
        assert t2.start_ns == t1.end_ns
        assert t2.latency_ns == pytest.approx(model.latency_ns(4 * KIB))

    def test_read_and_write_channels_independent(self):
        link, _ = make_link()
        t_read = link.migrate(64 * KIB, 0.0)
        t_write = link.write_back(64 * KIB, 0.0)
        assert t_read.start_ns == 0.0
        assert t_write.start_ns == 0.0  # no contention across directions

    def test_earliest_start_respected(self):
        link, _ = make_link()
        transfer = link.migrate(4 * KIB, earliest_start_ns=500.0)
        assert transfer.start_ns == 500.0

    def test_logs_accumulate(self):
        link, _ = make_link()
        link.migrate(4 * KIB, 0.0)
        link.migrate(64 * KIB, 0.0)
        link.write_back(4 * KIB, 0.0)
        assert link.read.log.total_transfers == 2
        assert link.read.log.total_bytes == 68 * KIB
        assert link.write.log.total_transfers == 1
        assert link.read.log.transfers_of_size(4 * KIB) == 1

    def test_average_bandwidth_between_extremes(self):
        link, model = make_link()
        for _ in range(10):
            link.migrate(64 * KIB, 0.0)
        avg = link.read.log.average_bandwidth_gbps
        assert avg == pytest.approx(model.bandwidth_gbps(64 * KIB), rel=1e-9)
