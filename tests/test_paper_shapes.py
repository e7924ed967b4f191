"""Fast assertions of the paper's qualitative results.

These restate a few of the claims of ``repro.validation`` on single runs
at a small footprint scale, so the plain test suite already guards the
reproduction without running whole experiments; ``repro validate`` and
``benchmarks/bench_paper.py`` check every claim on the full tables.
"""

import pytest

from repro import UvmRuntime, make_workload, oversubscribed
from repro.analysis.metrics import geomean
from repro.config import SimulatorConfig

SCALE = 0.25


def run(workload_name, prefetcher, eviction, percent=None,
        keep_prefetching=False, reservation=0.0):
    workload = make_workload(workload_name, scale=SCALE)
    if percent is None:
        config = SimulatorConfig(prefetcher=prefetcher, eviction=eviction,
                                 lru_reservation_fraction=reservation)
    else:
        config = oversubscribed(
            workload.footprint_bytes, percent,
            prefetcher=prefetcher, eviction=eviction,
            disable_prefetch_on_oversubscription=not keep_prefetching,
            lru_reservation_fraction=reservation,
        )
    return UvmRuntime(config).run_workload(workload)


class TestFigure3Shape:
    @pytest.mark.parametrize("workload", ["hotspot", "bfs"])
    def test_prefetchers_beat_on_demand(self, workload):
        none = run(workload, "none", "lru4k")
        tbn = run(workload, "tbn", "lru4k")
        assert tbn.total_kernel_time_ns < none.total_kernel_time_ns / 3
        assert tbn.far_faults < none.far_faults / 4
        assert tbn.h2d.average_bandwidth_gbps \
            > none.h2d.average_bandwidth_gbps * 1.5


class TestFigure6Shape:
    def test_oversubscription_hurts_reuse_workload(self):
        fits = run("srad", "tbn", "lru4k")
        oversub = run("srad", "tbn", "lru4k", percent=110.0)
        assert oversub.total_kernel_time_ns \
            > fits.total_kernel_time_ns * 2

    def test_streaming_immune(self):
        fits = run("backprop", "tbn", "lru4k")
        oversub = run("backprop", "tbn", "lru4k", percent=125.0)
        assert oversub.total_kernel_time_ns \
            <= fits.total_kernel_time_ns * 1.3


class TestFigure11Shape:
    def test_tbne_tbnp_beats_naive_baseline(self):
        ratios = []
        for name in ("hotspot", "srad", "bfs"):
            naive = run(name, "tbn", "lru4k", percent=110.0)
            combo = run(name, "tbn", "tbn", percent=110.0,
                        keep_prefetching=True)
            ratios.append(naive.total_kernel_time_ns
                          / combo.total_kernel_time_ns)
        assert geomean(ratios) > 1.5

    def test_combo_keeps_prefetching(self):
        combo = run("hotspot", "tbn", "tbn", percent=110.0,
                    keep_prefetching=True)
        naive = run("hotspot", "tbn", "lru4k", percent=110.0)
        assert combo.pages_prefetched > naive.pages_prefetched


class TestFigure15And16Shape:
    def test_tbne_thrashes_less_than_2mb(self):
        tbne = run("srad", "tbn", "tbn", percent=110.0,
                   keep_prefetching=True)
        big = run("srad", "tbn", "lru2mb", percent=110.0,
                  keep_prefetching=True)
        assert tbne.pages_thrashed < big.pages_thrashed
        assert tbne.total_kernel_time_ns < big.total_kernel_time_ns

    def test_no_thrash_for_streaming(self):
        stats = run("pathfinder", "tbn", "tbn", percent=110.0,
                    keep_prefetching=True)
        assert stats.pages_thrashed == 0


class TestAdaptiveGranularity:
    def test_tbne_eviction_units_between_64kb_and_1mb(self):
        stats = run("hotspot", "tbn", "tbn", percent=110.0,
                    keep_prefetching=True)
        sizes = [s for s in stats.d2h.histogram if s >= 64 * 1024]
        assert sizes, "TBNe produced block-or-larger write-backs"
        assert max(sizes) <= 2 * 1024 * 1024
        assert min(sizes) >= 64 * 1024
