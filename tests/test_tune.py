"""Tests for the repro.tune policy auto-tuning subsystem."""

import json
import re

import pytest

from repro.cli import main
from repro.errors import ServeClientError, TuneError, WorkloadError
from repro.serve import ServeClient
from repro.stats import FailedRun, SimStats
from repro.sweep import RunCache, sweep_context
from repro.tune import (
    Candidate,
    GridSearch,
    RandomSearch,
    SearchSpace,
    SuccessiveHalving,
    TuneRequest,
    card_json,
    get_objective,
    load_card,
    make_driver,
    make_trial,
    metric_vector,
    pareto_frontier,
    recommendation_for,
    recommended_pairing,
    rung_scale,
    tune_workload,
    write_card,
)
from repro.workloads.registry import validate_scale

#: Small footprint keeps each tournament to a fraction of a second.
SCALE = 0.12


def stats(time_ns=1000.0, bytes_=4096, faults=10):
    s = SimStats(far_faults=faults)
    s.kernel_times_ns.append(time_ns)
    s.h2d.total_bytes = bytes_
    return s


def candidate(pairing="X", **kwargs):
    return Candidate(pairing=pairing, prefetcher="tbn", eviction="tbn",
                     keep_prefetching=True, **kwargs)


class TestValidateScale:
    def test_accepts_numbers_and_numeric_strings(self):
        assert validate_scale(0.5) == 0.5
        assert validate_scale(2) == 2.0
        assert validate_scale("0.25", "REPRO_BENCH_SCALE") == 0.25

    @pytest.mark.parametrize("bad", [
        0, -1, 0.0, -0.5, float("nan"), float("inf"), float("-inf"),
        "nan", "inf", "", "banana", None, True, [0.5],
    ])
    def test_rejects_degenerate_values(self, bad):
        with pytest.raises(WorkloadError):
            validate_scale(bad, "REPRO_BENCH_SCALE")

    def test_error_names_the_source(self):
        with pytest.raises(WorkloadError, match="REPRO_BENCH_SCALE"):
            validate_scale("nope", "REPRO_BENCH_SCALE")


class TestSearchSpace:
    def test_default_space_enumerates_the_fig11_pairings(self):
        names = [c.pairing for c in SearchSpace().candidates()]
        assert names == ["LRU4K+on-demand", "Re+Rp", "SLe+SLp",
                         "TBNe+TBNp"]

    def test_knob_axes_cross_multiply_deterministically(self):
        space = SearchSpace(tbn_thresholds=(0.25, 0.75),
                            fault_batch_limits=(0, 8))
        keys = [c.key() for c in space.candidates()]
        assert len(keys) == 16 and len(set(keys)) == 16
        assert keys[:4] == [
            "LRU4K+on-demand|thr=0.25|batch=0",
            "LRU4K+on-demand|thr=0.25|batch=8",
            "LRU4K+on-demand|thr=0.75|batch=0",
            "LRU4K+on-demand|thr=0.75|batch=8",
        ]

    @pytest.mark.parametrize("kwargs", [
        {"percents": ()},
        {"percents": (99.0,)},
        {"percents": (float("nan"),)},
        {"pairings": ()},
        {"pairings": (("A", "tbn", "tbn"),)},
        {"pairings": (("A", "warp-drive", "tbn", True),)},
        {"pairings": (("A", "tbn", "warp-drive", True),)},
        {"pairings": (("A", "tbn", "tbn", True),
                      ("A", "random", "random", True))},
        {"tbn_thresholds": ()},
        {"tbn_thresholds": (0.0,)},
        {"tbn_thresholds": (1.5,)},
        {"fault_batch_limits": ()},
        {"fault_batch_limits": (-1,)},
        {"fault_batch_limits": (2.5,)},
    ])
    def test_invalid_axes_raise_before_simulating(self, kwargs):
        with pytest.raises(TuneError):
            SearchSpace(**kwargs)

    def test_candidate_cell_matches_the_experiment_configs(self):
        cand = candidate(pairing="TBNe+TBNp", tbn_threshold=0.3,
                         fault_batch_limit=16)
        cell = cand.cell("gemm", SCALE, 110.0, seed=7)
        assert cell.workload_spec == {"name": "gemm", "scale": SCALE,
                                      "row_blocks": 8, "warps_per_tb": 4,
                                      "pages_per_warp": 16}
        assert cell.label == "TBNe+TBNp|thr=0.3|batch=16"
        assert cell.config.prefetcher == "tbn"
        assert cell.config.eviction == "tbn"
        assert cell.config.tbn_threshold == 0.3
        assert cell.config.fault_batch_limit == 16
        assert cell.config.seed == 7

    def test_cell_rejects_degenerate_fidelity_scale(self):
        with pytest.raises(WorkloadError):
            candidate().cell("gemm", 0.0, 110.0)


class TestObjective:
    def test_metric_vector_and_rank_order(self):
        objective = get_objective("far-faults")
        vector = metric_vector(stats(time_ns=5.0, bytes_=7, faults=3))
        assert vector == {"kernel_time_ns": 5.0, "migrated_bytes": 7.0,
                          "far_faults": 3.0}
        assert objective.rank_vector(stats(faults=3))[0] == 3.0

    def test_failed_run_scores_infinitely_bad(self):
        failed = FailedRun("gemm", "SimulationError", "boom")
        assert all(v == float("inf")
                   for v in metric_vector(failed).values())
        objective = get_objective("kernel-time")
        assert objective.score(failed) == float("inf")

    def test_ties_break_on_secondary_metrics_then_key(self):
        objective = get_objective("kernel-time")
        a = make_trial(candidate("A"), 1.0,
                       stats(time_ns=5.0, bytes_=100), objective)
        b = make_trial(candidate("B"), 1.0,
                       stats(time_ns=5.0, bytes_=50), objective)
        c = make_trial(candidate("C"), 1.0,
                       stats(time_ns=5.0, bytes_=50), objective)
        assert sorted([a, b, c], key=lambda t: t.rank) == [b, c, a]

    def test_unknown_objective_raises(self):
        with pytest.raises(TuneError, match="kernel-time"):
            get_objective("carbon-footprint")

    def test_pareto_frontier_drops_dominated_and_failed(self):
        metrics = {
            "fast": {"kernel_time_ns": 1.0, "migrated_bytes": 9.0,
                     "far_faults": 1.0},
            "lean": {"kernel_time_ns": 9.0, "migrated_bytes": 1.0,
                     "far_faults": 1.0},
            "dominated": {"kernel_time_ns": 9.0, "migrated_bytes": 9.0,
                          "far_faults": 9.0},
            "failed": {name: float("inf")
                       for name in ("kernel_time_ns", "migrated_bytes",
                                    "far_faults")},
        }
        frontier = pareto_frontier(list(metrics.items()))
        assert frontier == ["fast", "lean"]


class FakeEvaluate:
    """Deterministic evaluate fn: scripted time per (pairing, fidelity)."""

    def __init__(self, times):
        self.times = times
        self.calls = []

    def __call__(self, chosen, fidelity):
        self.calls.append((tuple(c.pairing for c in chosen), fidelity))
        objective = get_objective("kernel-time")
        return [
            make_trial(c, fidelity,
                       stats(time_ns=self.times[c.pairing]), objective)
            for c in chosen
        ]


class TestDrivers:
    def test_grid_evaluates_everyone_at_full_fidelity(self):
        evaluate = FakeEvaluate({"A": 3.0, "B": 1.0, "C": 2.0})
        outcome = GridSearch().search(
            [candidate(p) for p in "ABC"], evaluate)
        assert evaluate.calls == [(("A", "B", "C"), 1.0)]
        assert outcome.evaluations == 3

    def test_budget_slices_enumeration_order(self):
        evaluate = FakeEvaluate({"A": 3.0, "B": 1.0, "C": 2.0})
        GridSearch(budget=2).search(
            [candidate(p) for p in "ABC"], evaluate)
        assert evaluate.calls == [(("A", "B"), 1.0)]

    def test_random_sample_is_seeded_and_stable(self):
        pool = [candidate(p) for p in "ABCDE"]
        evaluate = FakeEvaluate({p: 1.0 for p in "ABCDE"})
        RandomSearch(budget=3, seed=42).search(pool, evaluate)
        again = FakeEvaluate({p: 1.0 for p in "ABCDE"})
        RandomSearch(budget=3, seed=42).search(pool, again)
        assert evaluate.calls == again.calls
        assert len(evaluate.calls[0][0]) == 3

    def test_halving_prunes_then_rejudges_at_full_scale(self):
        evaluate = FakeEvaluate({"A": 4.0, "B": 1.0, "C": 3.0, "D": 2.0})
        outcome = SuccessiveHalving(eta=2, fidelities=(0.5, 1.0)).search(
            [candidate(p) for p in "ABCD"], evaluate)
        assert evaluate.calls == [(("A", "B", "C", "D"), 0.5),
                                  (("B", "D"), 1.0)]
        assert [t.candidate.pairing for t in outcome.final_trials] == \
            ["B", "D"]
        assert outcome.rungs[0]["promoted"] == [
            "B|thr=0.5|batch=0", "D|thr=0.5|batch=0"]
        assert outcome.evaluations == 6

    @pytest.mark.parametrize("kwargs", [
        {"eta": 1},
        {"eta": 2.5},
        {"fidelities": ()},
        {"fidelities": (0.5, 0.5, 1.0)},
        {"fidelities": (1.0, 0.5)},
        {"fidelities": (0.25, 0.5)},
        {"fidelities": (0.0, 1.0)},
        {"fidelities": (float("nan"), 1.0)},
    ])
    def test_halving_rejects_bad_ladders(self, kwargs):
        with pytest.raises((TuneError, WorkloadError)):
            SuccessiveHalving(**kwargs)

    def test_make_driver_dispatch(self):
        assert make_driver("grid").name == "grid"
        assert make_driver("random", budget=2, seed=1).name == "random"
        assert make_driver("halving").fidelities == (0.5, 1.0)
        with pytest.raises(TuneError):
            make_driver("random")  # needs a budget
        with pytest.raises(TuneError):
            make_driver("bayesian")

    def test_rung_scale_rounds_float_noise(self):
        assert rung_scale(0.3, 0.7) == 0.21
        with pytest.raises(WorkloadError):
            rung_scale(0.3, float("inf"))


class TestTuneRequest:
    def test_rejects_unknown_workload(self):
        with pytest.raises(WorkloadError, match="unknown workload"):
            TuneRequest(workload="quantum-chess")

    def test_rejects_degenerate_scale_and_seed(self):
        with pytest.raises(WorkloadError):
            TuneRequest(workload="gemm", scale=-1.0)
        with pytest.raises(TuneError):
            TuneRequest(workload="gemm", seed="zero")


def request(driver=None, seed=0):
    return TuneRequest(
        workload="gemm",
        scale=SCALE,
        space=SearchSpace(percents=(110.0,)),
        driver=driver if driver is not None else GridSearch(),
        seed=seed,
    )


class TestTuneWorkload:
    def test_card_shape_and_ranking(self):
        card = tune_workload(request())
        assert card["format"] == 1
        assert card["workload"] == "gemm"
        assert card["driver"] == {"name": "grid", "budget": None}
        block = recommendation_for(card, 110.0)
        assert block["evaluations"] == 4
        ranking = [t["candidate"] for t in block["ranking"]]
        assert len(ranking) == 4
        assert block["winner"]["key"] == ranking[0]
        assert recommended_pairing(card, 110.0) == \
            block["winner"]["candidate"]["pairing"]
        assert block["pareto_frontier"]

    def test_same_seed_and_budget_is_byte_identical(self):
        first = card_json(tune_workload(request()))
        second = card_json(tune_workload(request()))
        assert first == second

    def test_halving_card_records_every_rung(self):
        card = tune_workload(request(driver=SuccessiveHalving()))
        block = recommendation_for(card, 110.0)
        assert [r["fidelity"] for r in block["rungs"]] == [0.5, 1.0]
        assert "promoted" in block["rungs"][0]
        assert block["evaluations"] == 6

    def test_warm_cache_executes_zero_simulations(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        with sweep_context(jobs=1, cache=cache) as cold:
            first = card_json(tune_workload(request()))
        assert cold.executed == 4 and cold.cached == 0
        with sweep_context(jobs=1, cache=cache) as warm:
            second = card_json(tune_workload(request()))
        assert warm.executed == 0 and warm.cached == 4
        assert first == second

    def test_failed_candidates_rank_last_not_fatal(self):
        class OneBadApple:
            def run_cells(self, cells):
                return [
                    FailedRun("gemm", "SimulationError", "boom")
                    if "TBNe" in cell.label else stats()
                    for cell in cells
                ]

        card = tune_workload(request(), evaluator=OneBadApple())
        block = recommendation_for(card, 110.0)
        last = block["ranking"][-1]
        assert last["candidate"].startswith("TBNe+TBNp")
        assert "boom" in last["failed"]
        assert not any(key.startswith("TBNe+TBNp")
                       for key in block["pareto_frontier"])

    def test_all_candidates_failing_is_a_clean_error(self):
        class Doom:
            def run_cells(self, cells):
                return [FailedRun("gemm", "SimulationError", "boom")
                        for _ in cells]

        with pytest.raises(TuneError, match="every candidate failed"):
            tune_workload(request(), evaluator=Doom())


class TestCards:
    def test_write_then_load_roundtrip(self, tmp_path):
        card = tune_workload(request())
        path = write_card(card, tmp_path)
        assert path == tmp_path / "gemm.json"
        assert load_card("gemm", tmp_path) == \
            json.loads(card_json(card))

    def test_missing_card_mentions_the_tune_command(self, tmp_path):
        with pytest.raises(TuneError, match="repro tune"):
            load_card("gemm", tmp_path)

    def test_corrupt_and_mismatched_cards_raise(self, tmp_path):
        (tmp_path / "gemm.json").write_text("{not json")
        with pytest.raises(TuneError, match="corrupt"):
            load_card("gemm", tmp_path)
        (tmp_path / "gemm.json").write_text('{"format": 99}')
        with pytest.raises(TuneError, match="format"):
            load_card("gemm", tmp_path)

    def test_unknown_level_lists_the_tuned_ones(self):
        card = tune_workload(request())
        with pytest.raises(TuneError, match="110"):
            recommendation_for(card, 142.0)


class TestParseServerUrl:
    """``repro tune --via-server`` parses its URL with
    :meth:`ServeClient.from_url`, like every other server address."""

    @pytest.mark.parametrize("url,expected", [
        ("http://127.0.0.1:8077", ("127.0.0.1", 8077)),
        ("localhost:9000", ("localhost", 9000)),
    ])
    def test_accepts_urls_and_host_port(self, url, expected):
        client = ServeClient.from_url(url)
        assert (client.host, client.port) == expected

    @pytest.mark.parametrize("url", [
        "", "   ", "https://example.test", "http://", "host:notaport",
        "http://example.test",
    ])
    def test_rejects_unusable_urls(self, url):
        with pytest.raises(ServeClientError):
            ServeClient.from_url(url)

    def test_cli_rejects_before_tuning(self, tmp_path):
        with pytest.raises(ServeClientError, match="https"):
            main(["tune", "gemm", "--via-server", "https://localhost:1",
                  "--out", str(tmp_path)])
        assert not any(tmp_path.iterdir())


@pytest.mark.serve
class TestServerBackedTuning:
    def test_server_card_is_byte_identical_to_local(self, tmp_path):
        from repro.serve import (
            JobJournal,
            ServeClient,
            SimulationService,
            shard_server,
        )
        from repro.sweep import execute_cell
        from repro.tune import ServerEvaluator

        cache = RunCache(tmp_path / "cache")
        service = SimulationService(
            jobs=2, queue_limit=16,
            journal=JobJournal(tmp_path / "journal"),
            runner=lambda cell: execute_cell(cell, cache=cache),
        )
        service.start()
        server = shard_server(service)
        server.start_background()
        try:
            client = ServeClient(port=server.port, timeout=30.0)
            via_server = card_json(tune_workload(
                request(), evaluator=ServerEvaluator(client,
                                                     timeout=120.0)))
        finally:
            server.shutdown(timeout=30)
            server.close()
        # Same cells, same cache keys: the warm cache now satisfies the
        # local run without executing anything, and the cards match.
        with sweep_context(jobs=1, cache=cache) as report:
            local = card_json(tune_workload(request()))
        assert report.executed == 0 and report.cached == 4
        assert via_server == local


class TestCli:
    def test_tune_writes_card_and_recommend_reads_it(
            self, tmp_path, capsys):
        cards = tmp_path / "cards"
        argv = ["tune", "gemm", "--scale", str(SCALE),
                "--percents", "110", "--out", str(cards),
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "110% oversubscribed" in out
        assert str(cards / "gemm.json") in out

        assert main(["recommend", "gemm", "--cards-dir", str(cards),
                     "--oversubscription", "110"]) == 0
        out = capsys.readouterr().out
        assert "gemm @ 110% over-subscription" in out

        assert main(["recommend", "gemm", "--cards-dir", str(cards),
                     "--json"]) == 0
        block = json.loads(capsys.readouterr().out)
        assert block["oversubscription_percent"] == 110.0

    def test_cli_cards_are_byte_identical_across_runs(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        for out in (first, second):
            assert main(["tune", "gemm", "--scale", str(SCALE),
                         "--percents", "110", "--no-cache",
                         "--out", str(out)]) == 0
        assert (first / "gemm.json").read_bytes() == \
            (second / "gemm.json").read_bytes()

    def test_warm_tune_executes_nothing_and_recovers_the_headline(
            self, tmp_path, capsys):
        def tune(out):
            assert main(["tune", "gemm", "--scale", "0.3",
                         "--percents", "110",
                         "--cache-dir", str(tmp_path / "cache"),
                         "--out", str(tmp_path / out)]) == 0
            return capsys.readouterr()

        cold = tune("cards_cold")
        warm = tune("cards_warm")
        assert re.search(r"^\[tune\] 0 simulation\(s\) executed",
                         warm.err, re.MULTILINE)
        assert (tmp_path / "cards_cold" / "gemm.json").read_bytes() == \
            (tmp_path / "cards_warm" / "gemm.json").read_bytes()

        # Only the card path line names the (different) --out dirs.
        def without_card_path(out):
            return [line for line in out.splitlines()
                    if not line.startswith("card -> ")]

        assert without_card_path(cold.out) == without_card_path(warm.out)
        assert "110% oversubscribed -> TBNe+TBNp" in cold.out

        assert main(["recommend", "gemm", "--oversubscription", "110",
                     "--cards-dir", str(tmp_path / "cards_cold")]) == 0
        assert "run TBNe+TBNp" in capsys.readouterr().out

    def test_recommend_without_a_card_exits_cleanly(self, tmp_path):
        with pytest.raises(TuneError, match="repro tune"):
            main(["recommend", "gemm", "--cards-dir", str(tmp_path)])
