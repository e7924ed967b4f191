"""Differential tests: the fast engine must match the reference engine.

The acceptance gate (``repro bench --compare`` / the ``fastpath-equiv``
validation claim) byte-compares the fixed cell matrix; these tests add a
randomized differential loop — a seeded stdlib-``random`` generator
drives both engines through identical synthetic workload/config draws
and asserts equal ``SimStats``, per-allocation residency maps, and
kernel times.  A small draw matrix runs in tier-1; the wide loop is
marked ``slow``.
"""

import json
import random

import pytest

from repro.bench import (
    BenchCell,
    compare_engines,
    equivalence_matrix,
    throughput_report,
)
from repro.config import SimulatorConfig, oversubscribed
from repro.core import make_simulator
from repro.core.fastpath import (
    WINDOW_OUTCOMES,
    FastSimulator,
    MaskedTlb,
    PageBitmap,
)
from repro.runtime import UvmRuntime
from repro.workloads import make_workload
from repro.workloads.synthetic import (
    CyclicScanWorkload,
    RandomWorkload,
    StreamingWorkload,
    StridedWorkload,
)

PAIRINGS = (
    ("tbn", "tbn"),
    ("sequential-local", "lru4k"),
    ("zheng512", "lru2mb"),
    ("none", "adaptive"),
    ("random", "random"),
)

#: TLB size of the second differential draw per seed (default: 512).
SMALL_TLB = 16

SHAPES = (StreamingWorkload, RandomWorkload, StridedWorkload,
          CyclicScanWorkload)


def _draw_cell(rng: random.Random):
    """One random (workload, config-overrides) draw."""
    shape = rng.choice(SHAPES)
    workload = shape(
        pages=rng.randrange(96, 512),
        iterations=rng.randrange(1, 4),
        write_fraction=rng.choice((0.0, 0.25, 0.6)),
        warps_per_tb=rng.choice((2, 4)),
        pages_per_warp=rng.choice((8, 16, 32)),
        seed=rng.randrange(1 << 16),
    )
    prefetcher, eviction = rng.choice(PAIRINGS)
    overrides = {
        "prefetcher": prefetcher,
        "eviction": eviction,
        "seed": rng.randrange(8),
    }
    percent = rng.choice((None, 110.0, 130.0, 160.0))
    return workload, overrides, percent


def _run(engine: str, shape, workload_kwargs, overrides, percent):
    workload = shape(**workload_kwargs)
    if percent is None:
        config = SimulatorConfig(engine=engine, **overrides)
    else:
        config = oversubscribed(workload.footprint_bytes, percent,
                                engine=engine, **overrides)
    runtime = UvmRuntime(config)
    stats = runtime.run_workload(workload, check_invariants=True)
    residency = {
        spec.name: runtime.simulator.residency_map(spec.name)
        for spec in workload.allocations()
    }
    return stats.to_json(), residency, list(stats.kernel_times_ns)


def _assert_engines_agree(seed: int, tlb_entries: int | None) -> None:
    rng = random.Random(seed)
    shape_workload, overrides, percent = _draw_cell(rng)
    if tlb_entries is not None:
        overrides["tlb_entries"] = tlb_entries
    kwargs = {
        "pages": shape_workload.pages,
        "iterations": shape_workload.iterations,
        "write_fraction": shape_workload.write_fraction,
        "warps_per_tb": shape_workload.warps_per_tb,
        "pages_per_warp": shape_workload.pages_per_warp,
        "seed": shape_workload.seed,
    }
    shape = type(shape_workload)
    ref_json, ref_res, ref_times = _run("reference", shape, kwargs,
                                        overrides, percent)
    fast_json, fast_res, fast_times = _run("fast", shape, kwargs,
                                           overrides, percent)
    context = (f"seed={seed} shape={shape.__name__} kwargs={kwargs} "
               f"overrides={overrides} percent={percent}")
    assert ref_times == fast_times, context
    assert ref_res == fast_res, context
    assert ref_json == fast_json, context


def _tlb_params(seeds):
    """Each seed at the default TLB size (id ``seed``) and at
    ``SMALL_TLB`` entries (id ``seed-tlb16``).  The small TLB adds
    capacity-miss windows, which the fast engine hands whole to the
    reference loop."""
    for seed in seeds:
        yield pytest.param(seed, None, id=str(seed))
        yield pytest.param(seed, SMALL_TLB, id=f"{seed}-tlb{SMALL_TLB}")


class TestRandomizedDifferential:
    @pytest.mark.parametrize(("seed", "tlb_entries"), _tlb_params(range(4)))
    def test_engines_agree_small_matrix(self, seed, tlb_entries):
        _assert_engines_agree(seed, tlb_entries)

    @pytest.mark.slow
    @pytest.mark.parametrize(("seed", "tlb_entries"),
                             _tlb_params(range(4, 40)))
    def test_engines_agree_wide(self, seed, tlb_entries):
        _assert_engines_agree(seed, tlb_entries)


class TestFixedMatrix:
    def test_matrix_covers_required_axes(self):
        cells = equivalence_matrix()
        assert any(cell.fault_profile for cell in cells)
        assert any(cell.trace for cell in cells)
        assert any(cell.record_access_trace for cell in cells)
        assert any(cell.oversubscription is None for cell in cells)
        assert len({cell.seed for cell in cells}) > 1
        assert len({cell.workload for cell in cells}) >= 8

    def test_one_tiny_cell_byte_identical(self):
        cell = BenchCell(name="tiny", workload="gemm",
                         prefetcher="tbn", eviction="tbn",
                         oversubscription=110.0, scale=0.15)
        (result,) = compare_engines([cell])
        assert result.identical, result.cell

    def test_fault_profile_cell_byte_identical(self):
        cell = BenchCell(name="tiny-faults", workload="gemm",
                         prefetcher="sequential-local", eviction="lru4k",
                         oversubscription=110.0, fault_profile="moderate",
                         scale=0.15)
        (result,) = compare_engines([cell])
        assert result.identical, result.cell


class TestFastEngineSelection:
    def test_factory_returns_fast_engine(self):
        sim = make_simulator(SimulatorConfig(engine="fast"))
        assert isinstance(sim, FastSimulator)
        assert sim._fast_issue
        assert all(isinstance(sm.tlb, MaskedTlb) for sm in sim.sms)

    def test_access_trace_mode_declines_fast_issue(self):
        sim = make_simulator(SimulatorConfig(engine="fast",
                                             record_access_trace=True))
        assert isinstance(sim, FastSimulator)
        assert not sim._fast_issue

    def test_default_engine_is_reference(self):
        sim = make_simulator(SimulatorConfig())
        assert not isinstance(sim, FastSimulator)


class TestPageBitmap:
    def test_set_clear_gather(self):
        import numpy as np

        bitmap = PageBitmap()
        bitmap.set(1_050_000)
        bitmap.set(5)
        got = bitmap.gather(np.array([5, 6, 1_050_000], dtype=np.int64))
        assert got.tolist() == [True, False, True]
        bitmap.clear(5)
        got = bitmap.gather(np.array([5, 1_050_000], dtype=np.int64))
        assert got.tolist() == [False, True]

    def test_growth_preserves_bits_both_directions(self):
        import numpy as np

        bitmap = PageBitmap()
        bitmap.set(1 << 20)
        bitmap.set((1 << 20) + (1 << 17))   # grow high
        bitmap.set((1 << 20) - (1 << 17))   # grow low
        pages = np.array([1 << 20, (1 << 20) + (1 << 17),
                          (1 << 20) - (1 << 17)], dtype=np.int64)
        assert bitmap.gather(pages).all()


class TestBenchReportShape:
    def test_compare_result_carries_payloads(self):
        cell = BenchCell(name="payload", workload="backprop",
                         oversubscription=None, scale=0.15)
        (result,) = compare_engines([cell])
        assert result.identical
        # The payloads are real canonical stats JSON, kept for diffing.
        assert json.loads(result.reference_json) == \
            json.loads(result.fast_json)

    def test_throughput_report_records_nominal_and_windows(self):
        cell = BenchCell(name="tiny", workload="bfs",
                         oversubscription=None, scale=0.1)
        (entry,) = throughput_report((cell,), repeats=1)["cells"]
        for engine in ("reference", "fast"):
            assert entry["engines"][engine]["nominal_accesses_per_sec"] > 0
        assert "windows" not in entry["engines"]["reference"]
        windows = entry["engines"]["fast"]["windows"]
        assert set(windows) == set(WINDOW_OUTCOMES)
        assert sum(windows.values()) > 0


class TestWindowCounters:
    """``FastSimulator.window_counts``: one outcome per issued quantum,
    outside ``SimStats``."""

    def _run_counted(self, monkeypatch, **overrides):
        calls = []
        issue = FastSimulator._issue_quantum

        def counted(self, sm, budget):
            calls.append(budget)
            issue(self, sm, budget)

        monkeypatch.setattr(FastSimulator, "_issue_quantum", counted)
        # Cold-start misses, then all-hit iterations: every outcome.
        workload = make_workload("hotspot", scale=0.2, iterations=4)
        config = SimulatorConfig(engine="fast", prefetcher="tbn",
                                 eviction="tbn", **overrides)
        runtime = UvmRuntime(config)
        runtime.run_workload(workload)
        return runtime.simulator, len(calls)

    def test_outcomes_sum_to_issued_quanta(self, monkeypatch):
        sim, calls = self._run_counted(monkeypatch)
        counts = sim.window_counts
        assert set(counts) == set(WINDOW_OUTCOMES)
        assert sum(counts.values()) == calls
        assert all(counts.values()), counts

    def test_counts_stay_out_of_stats(self, monkeypatch):
        sim, _ = self._run_counted(monkeypatch)
        payload = sim.stats.to_json()
        for outcome in WINDOW_OUTCOMES:
            assert outcome not in payload

    def test_declined_mode_counts_nothing(self, monkeypatch):
        sim, calls = self._run_counted(monkeypatch, l2_enabled=True)
        assert calls > 0
        assert sum(sim.window_counts.values()) == 0
