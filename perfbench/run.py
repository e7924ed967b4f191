"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME ...``.

Runs one workload from ``BENCHMARK.json`` and prints, as the last line
of standard output, ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A human-readable summary goes to standard error.  See
``perfbench/NOTES.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    ROOT,
    WORK,
    HostClock,
    Outcome,
    import_repro,
    import_seconds,
    load_digests,
    peak_rss_mb,
    quantile,
)

WORKLOADS = ("faultbound", "steady", "fig11-sweep", "serve-zipf")
#: Traced runs reject a cell whose layer self times miss its wall time
#: by more than this share.
RECONCILE_LIMIT_PCT = 3.0
#: The open-loop latencies only count when the generator kept schedule.
GEN_LAG_LIMIT_MS = 25.0


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def until(seconds: float, minimum: int):
    """Yield round numbers while another round of the average length
    still ends within ``seconds`` (at least ``minimum`` rounds)."""
    start = time.perf_counter()
    index = 0
    while True:
        spent = time.perf_counter() - start
        if index >= minimum and spent * (index + 1) / index > seconds:
            return
        yield index
        index += 1


def e2e(setup_s: float, rates: dict[str, list[float]], sweep_s: list[float],
        latency_ms: list[list[float]], rss_mb: float) -> dict:
    """End-to-end metrics from nominal figures.

    ``rates`` and ``sweep_s`` hold values whose median is reported;
    ``latency_ms`` holds one sample list per round: each percentile is
    taken per round, then the median over rounds is reported.
    """
    return {
        "setup_s": setup_s,
        **{f"accesses_per_s.{engine}": quantile(values, 0.5)
           for engine, values in rates.items()},
        "sweep_s": quantile(sweep_s, 0.5),
        **{f"latency_p{q}_ms": quantile(
            [quantile(samples, q / 100) for samples in latency_ms], 0.5)
           for q in (50, 95)},
        "peak_rss_mb": rss_mb,
    }


def rates(rounds) -> dict[str, list[float]]:
    """Per engine: the round's accesses over the sum, across cells, of
    each cell's median seconds over all rounds (a single value, so a
    slow burst during one cell of one round does not move it)."""
    per_engine = {}
    for engine in ("reference", "fast"):
        cells = rounds[0].cell_seconds[engine]
        seconds = sum(quantile([r.cell_seconds[engine][cell]
                                for r in rounds], 0.5) for cell in cells)
        per_engine[engine] = [rounds[0].accesses[engine] / seconds]
        print(f"accesses/s by round, {engine}: " + " ".join(
            f"{r.accesses[engine] / r.seconds[engine]:.0f}"
            for r in rounds), file=sys.stderr)
    return per_engine


# ------------------------------------------------------------- untraced
def setup_total(cells, args, clock: HostClock) -> float:
    """Imports in a fresh interpreter plus materializing every cell."""
    from simcells import setup_seconds

    repeats = 1 if args.quick else 5
    return import_seconds(clock, repeats) \
        + setup_seconds(cells, repeats, clock)


def cells_e2e(name: str, args, clock: HostClock, outcome: Outcome) -> dict:
    from simcells import CELLS, CellRound

    cells = CELLS[name]
    digests = load_digests()[name]
    setup_s = setup_total(cells, args, clock)
    rounds = [CellRound(cells, digests, outcome, clock).run()
              for _ in until(args.seconds, 1 if args.quick else 3)]
    return e2e(setup_s, rates(rounds), [r.wall for r in rounds],
               [r.cell_ms for r in rounds], peak_rss_mb())


def fig11_e2e(args, clock: HostClock, outcome: Outcome) -> dict:
    from simcells import Fig11Round, fig11_setup_cells

    digests = load_digests()["fig11"]
    setup_s = setup_total(fig11_setup_cells(), args, clock)
    rounds = [Fig11Round(digests, outcome, clock).run()
              for _ in until(args.seconds, 1 if args.quick else 2)]
    print(f"fig11 TBNe+TBNp vs LRU4K+on-demand gain "
          f"{rounds[0].gain_pct:.1f}% (paper 93%)", file=sys.stderr)
    return e2e(setup_s,
               {engine: [r.accesses[engine] / r.seconds[engine]
                         for r in rounds]
                for engine in ("reference", "fast")},
               [r.seconds["reference"] for r in rounds],
               [r.cell_ms for r in rounds], peak_rss_mb())


def serve_checks(raw: dict, quick: bool, outcome: Outcome) -> None:
    """Open-loop validity: the generator kept schedule, and enough
    requests completed for ten samples beyond p95."""
    lag_p95 = quantile(raw["lag_ms"], 0.95)
    samples = raw["latency_ms"]
    beyond = sum(ms > quantile(samples, 0.95) for ms in samples)
    print(f"serve-zipf: {len(samples)} latency samples, {beyond} beyond "
          f"p95; generator lag p95 {lag_p95:.3f} ms", file=sys.stderr)
    if lag_p95 > GEN_LAG_LIMIT_MS:
        outcome.errors.append(f"generator lag p95 {lag_p95:.1f} ms")
        outcome.valid = False
    if not quick and beyond < 10:
        outcome.errors.append(f"only {beyond} samples beyond p95")
        outcome.valid = False


def serve_e2e(args, clock: HostClock, outcome: Outcome) -> dict:
    import serve_zipf

    raw = serve_zipf.run(args.seed, args.seconds, args.quick, outcome, clock)
    serve_checks(raw, args.quick, outcome)
    passes = raw["passes"]
    rates: dict[str, list[float]] = {}
    for engine in ("reference", "fast"):
        ranks = [rank for rank, (cell_engine, _, _) in
                 passes[0]["cells"].items() if cell_engine == engine]
        accesses = sum(passes[0]["cells"][rank][1] for rank in ranks)
        seconds = sum(quantile([p["cells"][rank][2] for p in passes], 0.5)
                      for rank in ranks)
        rates[engine] = [accesses / seconds]
    return e2e(raw["setup_s"], rates, [p["wall"] for p in passes],
               [raw["latency_ms"]], raw["peak_rss_mb"])


# --------------------------------------------------------------- traced
def reconcile(recorder, roots: tuple[str, ...], outcome: Outcome) -> float:
    """Largest gap (% of wall) between a root's wall and its self times."""
    worst = 0.0
    for root in roots:
        for cell, wall, summed in recorder.reconcile(root):
            gap = abs(wall - summed) / wall * 100.0 if wall else 0.0
            worst = max(worst, gap)
            if gap > RECONCILE_LIMIT_PCT:
                outcome.errors.append(f"{cell}: self times {summed:.4f}s "
                                      f"vs wall {wall:.4f}s")
                outcome.valid = False
    return worst


def traced_rounds(one_round, recorder, quick: bool) -> tuple:
    """Warm-up, untraced, traced and untraced rounds; ``one_round``
    returns (measured, nominal) seconds.  Returns the traced round's
    measured and nominal seconds and the untraced rounds' mean nominal."""
    from tracing import instrument

    if not quick:
        one_round()  # warm-up
    before = one_round()[1]
    with instrument(recorder):
        traced_s, traced_nominal = one_round(recorder)
    return traced_s, traced_nominal, (before + one_round()[1]) / 2


def traced(name: str, args, clock: HostClock, outcome: Outcome) -> dict:
    """Per-layer metrics from one traced round (or pass).

    Per-layer seconds and ``trace.traced_wall_s`` are measured times, so
    they add up.  The overhead compares the traced round with the
    untraced rounds around it, all in nominal seconds, so a change of
    host speed between rounds does not show as overhead.
    """
    from tracing import SpanRecorder, layer_metrics

    recorder = SpanRecorder()
    extra: dict[str, float] = {}
    roots: tuple[str, ...] = ("bench:cell",)
    if name in ("faultbound", "steady"):
        from simcells import CELLS, CellRound

        def cell_round(recorder=None) -> tuple[float, float]:
            round_ = CellRound(CELLS[name], load_digests()[name], outcome,
                               clock, recorder).run()
            return round_.raw_wall, round_.wall

        traced_s, traced_nominal, untraced_nominal = \
            traced_rounds(cell_round, recorder, args.quick)
    elif name == "fig11-sweep":
        from simcells import PAPER_FIG11_GAIN_PCT, Fig11Round

        gains = []

        def fig11_round(recorder=None) -> tuple[float, float]:
            round_ = Fig11Round(load_digests()["fig11"], outcome, clock,
                                with_fast=False)
            gains.append(round_.run(recorder).gain_pct)
            return round_.raw_sweep_s, round_.seconds["reference"]

        traced_s, traced_nominal, untraced_nominal = \
            traced_rounds(fig11_round, recorder, args.quick)
        extra["experiments.fig11_gain_err_pp"] = \
            abs(gains[-1] - PAPER_FIG11_GAIN_PCT)
        roots = ("bench:cell", "bench:pass")
    else:
        import serve_zipf

        raw = serve_zipf.run(args.seed, args.seconds, args.quick, outcome,
                             clock, recorder)
        serve_checks(raw, args.quick, outcome)
        untraced_nominal = quantile([p["wall"] for p in raw["passes"][:-1]],
                                    0.5)
        traced_s = raw["passes"][-1]["raw_wall"]
        traced_nominal = raw["passes"][-1]["wall"]
        extra.update(raw["phases"])
        extra.update({
            "serve.submit_ms": quantile(raw["submit_ms"], 0.5),
            "serve.coalesce_rate": raw["coalesce_rate"],
            "serve.gen_lag_ms": quantile(raw["lag_ms"], 0.95),
            "serve.latency_samples": len(raw["latency_ms"]),
        })
    metrics = layer_metrics(recorder)
    metrics.update(extra)
    metrics["trace.traced_wall_s"] = traced_s
    overhead = traced_nominal - untraced_nominal
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_pct"] = overhead / untraced_nominal * 100
    metrics["trace.reconcile_err_pct"] = reconcile(recorder, roots, outcome)
    dump = WORK / f"spans-{name}.jsonl"
    recorder.dump(dump)
    print(f"{name}: {len(recorder.spans)} spans written to "
          f"{dump.relative_to(ROOT)}; tracing overhead "
          f"{metrics['trace.overhead_s']:+.3f} s "
          f"({metrics['trace.overhead_pct']:+.1f}%)", file=sys.stderr)
    return metrics


# ----------------------------------------------------------------- main
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one round per workload (self-test)")
    args = parser.parse_args(argv)

    import_repro()
    clock = HostClock()
    description = spec()
    WORK.mkdir(exist_ok=True)
    outcome = Outcome()
    name = args.workload
    if args.trace:
        metrics = traced(name, args, clock, outcome)
        wanted = description["per_layer"]
    elif name == "serve-zipf":
        metrics = serve_e2e(args, clock, outcome)
        wanted = description["end_to_end"]
    elif name == "fig11-sweep":
        metrics = fig11_e2e(args, clock, outcome)
        wanted = description["end_to_end"]
    else:
        metrics = cells_e2e(name, args, clock, outcome)
        wanted = description["end_to_end"]
    for error in outcome.errors:
        print(f"perfbench: FAILED {error}", file=sys.stderr)
    result = {
        "correct": outcome.failed == 0 and outcome.valid,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        # A per-layer metric of a layer the workload never enters is 0;
        # every end-to-end metric is measured on every workload.
        "metrics": {m["name"]: {"value": metrics[m["name"]] if not args.trace
                                else metrics.get(m["name"], 0),
                                "unit": m["unit"]} for m in wanted},
    }
    for key, entry in result["metrics"].items():
        print(f"  {key:34s} {entry['value']:>16.6g} {entry['unit']}",
              file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
