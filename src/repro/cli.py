"""Command-line interface.

::

    python -m repro list
    python -m repro run hotspot --prefetcher tbn --eviction tbn \
        --oversubscription 110 --scale 0.5
    python -m repro experiment fig11 --scale 0.4
    python -m repro experiment all --out results/ --jobs 4
    python -m repro sweep srad --percents 105 110 125 --jobs 2
    python -m repro run hotspot --fault-profile moderate
    python -m repro faults bfs --rates 0 0.05 0.2
    python -m repro trace bfs -o run.trace.json
    python -m repro report bfs --oversubscription 110 --top 10

``run`` executes one workload under one setting and prints the counters;
``experiment`` regenerates the paper's tables/figures; ``sweep`` is the
over-subscription sensitivity matrix for one workload; ``faults`` sweeps
a workload across fault-injection rates and prints a resilience table
(see docs/ROBUSTNESS.md); ``trace`` runs a workload with span tracing on
and exports a Perfetto-loadable Chrome trace plus a flat metrics JSON;
``report`` prints the human-readable run report — stall attribution and
the slowest fault batches (see docs/OBSERVABILITY.md).

``experiment`` and ``sweep`` accept ``--jobs N`` to fan simulations out
over a process pool and consult an on-disk run cache under
``results/.runcache/`` so repeated invocations re-execute nothing
(``--no-cache`` bypasses it, ``--cache-dir`` relocates it, the
``REPRO_CACHE_DIR`` environment variable changes the default; see
docs/SWEEP.md).  The cache/pool summary goes to stderr so tables on
stdout stay byte-identical to serial, uncached runs.

``serve`` boots the resident simulation service (JSON HTTP API, bounded
job queue with 429 backpressure, shared run cache, SIGTERM drain with a
queued-job journal); ``submit`` sends one cell to a server and waits for
the result; ``jobs`` lists/polls/cancels server jobs.  See
docs/SERVICE.md.

``tune`` searches the policy space (prefetcher x eviction x driver
knobs) for one workload across over-subscription levels — exhaustive
grid, seeded random, or multi-fidelity successive halving — and writes
a byte-stable recommendation card under ``results/tune/``; with
``--via-server URL`` the evaluations run on a ``repro serve`` daemon
instead of in-process.  ``recommend`` answers "which pair should I
run?" from an existing card without simulating anything.  See
docs/TUNING.md.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__
from .analysis.charts import grouped_bars
from .analysis.report import format_table
from .config import SimulatorConfig, oversubscribed
from .errors import ConfigurationError
from .core.evict import EVICTION_REGISTRY
from .core.prefetch import PREFETCHER_REGISTRY
from .experiments import (
    ablations,
    extension_adaptive,
    extension_autotune,
    extension_colocation,
    extension_learned,
    extension_resilience,
    fig2_microbench,
    fig3_prefetch_time,
    fig4_bandwidth,
    fig5_farfaults,
    fig6_oversub_sensitivity,
    fig7_transfer_counts,
    fig9_eviction,
    fig10_evicted_pages,
    fig11_combinations,
    fig12_nw_pattern,
    fig13_oversub_scaling,
    fig14_reservation,
    fig15_tbne_vs_2mb,
    fig16_thrashing,
    table1_pcie,
)
from .presets import PRESETS, preset_config
from .runtime import UvmRuntime
from .serve.client import DEFAULT_PORT as SERVE_DEFAULT_PORT
from .stats import FailedRun
from .tune import (
    DRIVERS as TUNE_DRIVERS,
    OBJECTIVES as TUNE_OBJECTIVES,
    SearchSpace,
    ServerEvaluator,
    TuneRequest,
    format_card,
    get_objective,
    load_card,
    make_driver,
    pairings_axis,
    recommendation_for,
    tune_workload,
    write_card,
)
from .sweep import (
    DEFAULT_CACHE_DIR,
    RunCache,
    SweepCell,
    decode_result,
    execute_cells,
    resolve_cache_dir,
    sweep_context,
)
from .workloads.registry import SUITE_ORDER, WORKLOAD_REGISTRY, \
    make_workload, validate_scale

#: Experiment name -> zero-or-scale-argument runner.
EXPERIMENTS = {
    "table1": lambda scale: table1_pcie.run(),
    "fig2": lambda scale: fig2_microbench.run(),
    "fig3": lambda scale: fig3_prefetch_time.run(scale=scale),
    "fig4": lambda scale: fig4_bandwidth.run(scale=scale),
    "fig5": lambda scale: fig5_farfaults.run(scale=scale),
    "fig6": lambda scale: fig6_oversub_sensitivity.run(scale=scale),
    "fig7": lambda scale: fig7_transfer_counts.run(scale=scale),
    "fig9": lambda scale: fig9_eviction.run(scale=scale),
    "fig10": lambda scale: fig10_evicted_pages.run(scale=scale),
    "fig11": lambda scale: fig11_combinations.run(scale=scale),
    "fig12": lambda scale: fig12_nw_pattern.run(scale=scale),
    "fig13": lambda scale: fig13_oversub_scaling.run(scale=scale),
    "fig14": lambda scale: fig14_reservation.run(scale=scale),
    "fig15": lambda scale: fig15_tbne_vs_2mb.run(scale=scale),
    "fig16": lambda scale: fig16_thrashing.run(scale=scale),
    "ablation-batching": lambda scale: ablations.run_fault_batching(
        scale=scale),
    "ablation-threshold": lambda scale: ablations.run_tbn_threshold(
        scale=scale),
    "ablation-lru": lambda scale: ablations.run_lru_insertion(scale=scale),
    "ablation-walk": lambda scale: ablations.run_page_walk_model(
        scale=scale),
    "ablation-buffer": lambda scale: ablations.run_fault_buffer(
        scale=scale),
    "ablation-latency": lambda scale: ablations.run_fault_latency(
        scale=scale),
    "ext-adaptive": lambda scale: extension_adaptive.run(scale=scale),
    # Pinned to the validated tuning regime: the pairing interplay is
    # scale-sensitive, and the autotune table demonstrates search
    # recovery at the operating point where the ground truth is known.
    "ext-autotune": lambda scale: extension_autotune.run(),
    "ext-colocation": lambda scale: extension_colocation.run(scale=scale),
    # Pinned for the same reason as ext-autotune: the learned policies'
    # epoch/window knobs are sized for the validated 0.3 regime.
    "ext-learned": lambda scale: extension_learned.run(),
    "ext-resilience": lambda scale: extension_resilience.run(scale=scale),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="UVM prefetcher/eviction interplay simulator "
                    "(ISCA 2019 reproduction)",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cache_flags(p) -> None:
        """The run-cache knobs shared by experiment/sweep/serve."""
        p.add_argument("--no-cache", action="store_true",
                       help="do not consult or populate the on-disk run "
                            "cache")
        p.add_argument("--cache-dir", type=Path, default=None,
                       help="run-cache directory (default: "
                            "$REPRO_CACHE_DIR or "
                            f"{DEFAULT_CACHE_DIR})")

    def add_sweep_flags(p) -> None:
        """The process-pool/run-cache knobs shared by experiment/sweep."""
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for the simulation fan-out "
                            "(default: 1, in-process)")
        add_cache_flags(p)

    sub.add_parser("list", help="list workloads, policies, experiments")

    def add_setting_flags(p, default_scale: float) -> None:
        """The workload and setting flags every single-run command
        declares first; `_flags_config` reads them."""
        p.add_argument("workload", choices=sorted(WORKLOAD_REGISTRY))
        p.add_argument("--scale", type=float, default=default_scale)
        p.add_argument("--prefetcher", default="tbn",
                       choices=sorted(PREFETCHER_REGISTRY))
        p.add_argument("--eviction", default="lru4k",
                       choices=sorted(EVICTION_REGISTRY))
        p.add_argument("--oversubscription", type=float, default=None,
                       metavar="PERCENT",
                       help="working set as %% of device memory")
        p.add_argument("--keep-prefetching", action="store_true",
                       help="do not disable the prefetcher under "
                            "over-subscription")

    def add_cell_flags(p) -> None:
        """The cell flags `run` and `submit` share; `_flags_config`
        turns them into the cache key both commands agree on."""
        add_setting_flags(p, default_scale=0.5)
        p.add_argument("--reservation", type=float, default=0.0,
                       help="LRU-head reservation fraction")
        p.add_argument("--buffer", type=float, default=0.0,
                       help="free-page buffer fraction")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--engine", default="reference",
                       choices=("reference", "fast"),
                       help="simulation engine; 'fast' defers recency "
                            "updates (result-identical, see "
                            "docs/PERFORMANCE.md)")
        p.add_argument("--preset", default=None,
                       choices=sorted(PRESETS),
                       help="named paper setting; overrides the policy "
                            "and memory flags")

    run_p = sub.add_parser("run", help="run one workload")
    add_cell_flags(run_p)
    run_p.add_argument("--config-file", type=Path, default=None,
                       help="JSON file of SimulatorConfig fields; its "
                            "values override the policy flags")
    run_p.add_argument("--fault-profile", default=None,
                       help="fault-injection profile: a named severity "
                            "(light|moderate|heavy), a key=value[,...] "
                            "list, or a JSON file of FaultProfile fields")
    run_p.add_argument("--json", action="store_true",
                       help="print the run's SimStats as canonical JSON "
                            "instead of the counter table (comparable "
                            "byte-for-byte with `repro submit` output)")

    exp_p = sub.add_parser("experiment",
                           help="regenerate a paper table/figure")
    exp_p.add_argument("name", choices=sorted(EXPERIMENTS) + ["all"])
    exp_p.add_argument("--scale", type=float, default=0.4)
    exp_p.add_argument("--chart", action="store_true",
                       help="also render an ASCII bar chart")
    exp_p.add_argument("--out", type=Path, default=None,
                       help="directory to write tables into")
    exp_p.add_argument("--include-learned", action="store_true",
                       help="extend ext-autotune's pairing axis with "
                            "the learned policies (cards stay "
                            "byte-stable without it)")
    add_sweep_flags(exp_p)

    sweep_p = sub.add_parser("sweep",
                             help="over-subscription sweep for a workload")
    sweep_p.add_argument("workload", choices=sorted(WORKLOAD_REGISTRY))
    sweep_p.add_argument("--scale", type=float, default=0.5)
    sweep_p.add_argument("--percents", type=float, nargs="+",
                         default=[105.0, 110.0, 125.0])
    sweep_p.add_argument("--prefetcher", default="tbn",
                         choices=sorted(PREFETCHER_REGISTRY))
    sweep_p.add_argument("--eviction", default="tbn",
                         choices=sorted(EVICTION_REGISTRY))
    add_sweep_flags(sweep_p)

    faults_p = sub.add_parser(
        "faults",
        help="resilience sweep: one workload across fault-injection rates",
    )
    faults_p.add_argument("workload", choices=sorted(WORKLOAD_REGISTRY))
    faults_p.add_argument("--scale", type=float, default=0.4)
    faults_p.add_argument("--rates", type=float, nargs="+",
                          default=[0.0, 0.02, 0.05, 0.10],
                          help="transfer-failure probabilities to sweep")
    faults_p.add_argument("--prefetcher", default="tbn",
                          choices=sorted(PREFETCHER_REGISTRY))
    faults_p.add_argument("--eviction", default="tbn",
                          choices=sorted(EVICTION_REGISTRY))
    faults_p.add_argument("--oversubscription", type=float, default=110.0,
                          metavar="PERCENT")
    faults_p.add_argument("--seed", type=int, default=0)

    def add_workload_flags(p, default_scale: float) -> None:
        """The shared single-run knobs (trace/report mirror run)."""
        add_setting_flags(p, default_scale)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--fault-profile", default=None,
                       help="fault-injection profile (as in `run`)")

    trace_p = sub.add_parser(
        "trace",
        help="run one workload with span tracing; export a Perfetto/"
             "Chrome trace and a flat metrics JSON",
    )
    add_workload_flags(trace_p, default_scale=0.3)
    trace_p.add_argument("-o", "--out", type=Path, default=None,
                         help="trace output path (default: "
                              "<workload>.trace.json)")
    trace_p.add_argument("--metrics-out", type=Path, default=None,
                         help="metrics output path (default: "
                              "<workload>.metrics.json next to the "
                              "trace)")
    trace_p.add_argument("--max-events", type=int, default=0,
                         help="cap stored trace events (0 = unbounded)")
    trace_p.add_argument("--report", action="store_true",
                         help="also print the run report")

    report_p = sub.add_parser(
        "report",
        help="run one workload with tracing and print the run report "
             "(stall attribution, slowest fault batches)",
    )
    add_workload_flags(report_p, default_scale=0.3)
    report_p.add_argument("--top", type=int, default=5,
                          help="slowest fault batches to list")

    serve_p = sub.add_parser(
        "serve",
        help="run the resident simulation service (JSON HTTP API; see "
             "docs/SERVICE.md)",
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=SERVE_DEFAULT_PORT,
                         help="listen port (0 picks a free one; default: "
                              f"{SERVE_DEFAULT_PORT})")
    serve_p.add_argument("--jobs", type=int, default=2, metavar="N",
                         help="workers executing jobs (default: 2)")
    serve_p.add_argument("--queue-limit", type=int, default=64,
                         metavar="N",
                         help="max queued jobs before submissions get "
                              "429 (default: 64)")
    serve_p.add_argument("--journal-dir", type=Path, default=None,
                         help="queued-job journal directory (default: "
                              "results/.servejournal)")
    serve_p.add_argument("--worker-mode", default="process",
                         choices=["process", "thread"],
                         help="what fills the supervised worker "
                              "slots: processes (crash isolation, the "
                              "default) or in-process threads (no "
                              "crash isolation)")
    serve_p.add_argument("--max-attempts", type=int, default=3,
                         metavar="K",
                         help="lease grants per job before a "
                              "worker-killing job is quarantined "
                              "(process mode; default: 3)")
    serve_p.add_argument("--job-timeout", type=float, default=0.0,
                         metavar="SECONDS",
                         help="kill a worker whose job runs longer "
                              "than this (process mode; 0 disables)")
    serve_p.add_argument("--events-dir", type=Path, default=None,
                         help="structured event-log directory (default: "
                              "results/.servelog)")
    serve_p.add_argument("--no-events", action="store_true",
                         help="disable the structured JSONL event log")
    serve_p.add_argument("--service-trace", action="store_true",
                         help="record a merged cross-process job trace, "
                              "served at GET /v1/trace")
    serve_p.add_argument("--verbose", action="store_true",
                         help="log every HTTP request to stderr")
    serve_p.add_argument("--join", default=None, metavar="URL",
                         help="register with a cluster coordinator "
                              "(http://host:port) and heartbeat load; "
                              "see docs/SERVICE.md")
    serve_p.add_argument("--shard-id", default=None, metavar="ID",
                         help="stable shard id to join as (default: "
                              "generated from the advertised address)")
    serve_p.add_argument("--advertise-host", default=None,
                         metavar="HOST",
                         help="address the coordinator dials back "
                              "(default: --host)")
    serve_p.add_argument("--heartbeat-interval", type=float,
                         default=2.0, metavar="SECONDS",
                         help="seconds between cluster heartbeats "
                              "(default: 2)")
    add_cache_flags(serve_p)

    cluster_p = sub.add_parser(
        "cluster",
        help="run the cluster coordinator federating repro serve "
             "shards: consistent-hash routing, work-stealing, failover "
             "(see docs/SERVICE.md)",
    )
    cluster_p.add_argument("--host", default="127.0.0.1")
    cluster_p.add_argument("--port", type=int,
                           default=SERVE_DEFAULT_PORT + 1,
                           help="listen port (0 picks a free one; "
                                f"default: {SERVE_DEFAULT_PORT + 1})")
    cluster_p.add_argument("--seed", type=int, default=0,
                           help="hash-ring seed; same seed, same "
                                "key->shard assignment (default: 0)")
    cluster_p.add_argument("--vnodes", type=int, default=64,
                           metavar="N",
                           help="virtual nodes per shard on the ring "
                                "(default: 64)")
    cluster_p.add_argument("--heartbeat-timeout", type=float,
                           default=5.0, metavar="SECONDS",
                           help="silence after which a shard is "
                                "declared dead (default: 5)")
    cluster_p.add_argument("--steal-threshold", type=int, default=4,
                           metavar="N",
                           help="queue depth at which a shard donates "
                                "work to idle shards (default: 4)")
    cluster_p.add_argument("--steal-batch", type=int, default=4,
                           metavar="N",
                           help="max jobs moved per donor per pass "
                                "(default: 4)")
    cluster_p.add_argument("--tick", type=float, default=0.5,
                           metavar="SECONDS",
                           help="maintenance period: reap, failover, "
                                "rebalance (default: 0.5)")
    cluster_p.add_argument("--events-dir", type=Path, default=None,
                           help="structured event-log directory "
                                "(default: results/.servelog)")
    cluster_p.add_argument("--no-events", action="store_true",
                           help="disable the structured JSONL event "
                                "log")
    cluster_p.add_argument("--verbose", action="store_true",
                           help="log routing/steal/failover decisions "
                                "to stderr")

    chaos_p = sub.add_parser(
        "chaos",
        help="boot a process-mode service under an injected service "
             "fault profile and assert the recovery invariants "
             "(see docs/SERVICE.md)",
    )
    chaos_p.add_argument("--workloads", nargs="+", default=["hotspot"],
                         choices=sorted(WORKLOAD_REGISTRY),
                         help="job mix (default: hotspot)")
    chaos_p.add_argument("--scale", type=float, default=0.12,
                         help="workload scale (default: 0.12, small "
                              "on purpose)")
    chaos_p.add_argument("--seeds", type=int, nargs="+", default=[1, 2],
                         help="config seeds per workload; the "
                              "profile's poison seeds are appended")
    chaos_p.add_argument("--profile", default=None,
                         help="fault profile: a name, key=value list, "
                              "or JSON file (default: worker-kill, or "
                              "shard-kill with --cluster)")
    chaos_p.add_argument("--cluster", action="store_true",
                         help="run the cluster chaos harness instead: "
                              "coordinator + shard subprocesses under "
                              "a ClusterFaultProfile (shard SIGKILL, "
                              "heartbeat stalls, ring churn)")
    chaos_p.add_argument("--shards", type=int, default=3, metavar="N",
                         help="shard daemons to boot with --cluster "
                              "(default: 3)")
    chaos_p.add_argument("--workers-per-shard", type=int, default=1,
                         metavar="N",
                         help="workers per shard with --cluster "
                              "(default: 1)")
    chaos_p.add_argument("--workers", type=int, default=2, metavar="N",
                         help="worker processes (default: 2)")
    chaos_p.add_argument("--max-attempts", type=int, default=3,
                         metavar="K",
                         help="lease grants before quarantine "
                              "(default: 3)")
    chaos_p.add_argument("--job-timeout", type=float, default=0.0,
                         metavar="SECONDS",
                         help="per-job deadline; required > 0 for "
                              "stalling profiles (0 disables)")
    chaos_p.add_argument("--deadline", type=float, default=120.0,
                         help="wall seconds for all jobs to reach a "
                              "terminal state (default: 120)")
    chaos_p.add_argument("--dir", type=Path, default=None,
                         help="keep the run's cache+journal here "
                              "(default: a removed temp dir)")
    chaos_p.add_argument("--json", action="store_true",
                         help="print the report as JSON instead of a "
                              "table")
    chaos_p.add_argument("--verbose", action="store_true")

    def add_remote_flags(p) -> None:
        """Where submit/jobs find the server."""
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=SERVE_DEFAULT_PORT)
        p.add_argument("--timeout", type=float, default=300.0,
                       help="seconds to wait for the result "
                            "(default: 300)")

    def add_cluster_flag(p) -> None:
        """Point a client command at a coordinator instead."""
        p.add_argument("--cluster", default=None, metavar="URL",
                       help="cluster coordinator URL "
                            "(http://host:port); overrides "
                            "--host/--port")

    def add_fleet_flags(p) -> None:
        """Fan a read-only command out over many servers."""
        add_cluster_flag(p)
        p.add_argument("--endpoint", action="append", default=None,
                       metavar="HOST:PORT",
                       help="extra server to include (repeatable); "
                            "with --cluster, added after the live "
                            "shards")

    submit_p = sub.add_parser(
        "submit",
        help="submit one workload cell to a running server and print "
             "the resulting SimStats JSON",
    )
    add_cell_flags(submit_p)
    submit_p.add_argument("--no-wait", action="store_true",
                          help="print the job id and return without "
                               "waiting for the result")
    add_remote_flags(submit_p)
    add_cluster_flag(submit_p)

    jobs_p = sub.add_parser(
        "jobs",
        help="list jobs on a running server, show one, or cancel one",
    )
    jobs_p.add_argument("job_id", nargs="?", default=None,
                        help="job id to inspect (omit to list all)")
    jobs_p.add_argument("--cancel", action="store_true",
                        help="cancel the given queued job")
    add_remote_flags(jobs_p)
    add_fleet_flags(jobs_p)

    loadgen_p = sub.add_parser(
        "loadgen",
        help="replay a seeded zipf submission trace against a running "
             "server and report latency quantiles + cache-hit rate "
             "(see docs/SERVICE.md)",
    )
    loadgen_p.add_argument("--seed", type=int, default=7)
    loadgen_p.add_argument("--duration", type=float, default=10.0,
                           metavar="SECONDS",
                           help="submission window (default: 10)")
    loadgen_p.add_argument("--rate", type=float, default=4.0,
                           metavar="PER_SECOND",
                           help="open-loop arrival rate (default: 4)")
    loadgen_p.add_argument("--concurrency", type=int, default=8,
                           metavar="N",
                           help="waiter threads polling for results "
                                "(default: 8)")
    loadgen_p.add_argument("--workload", default="hotspot",
                           choices=sorted(WORKLOAD_REGISTRY))
    loadgen_p.add_argument("--scale", type=float, default=0.08)
    loadgen_p.add_argument("--distinct", type=int, default=8,
                           metavar="N",
                           help="catalog size the zipf draws from "
                                "(default: 8)")
    loadgen_p.add_argument("--zipf-s", type=float, default=1.1,
                           help="zipf exponent; 0 = uniform "
                                "(default: 1.1)")
    loadgen_p.add_argument("--pattern", default="zipf",
                           choices=["zipf", "unique"],
                           help="zipf-skewed repeats (default) or "
                                "round-robin distinct configs")
    loadgen_p.add_argument("--prefetcher", default=None,
                           choices=sorted(PREFETCHER_REGISTRY))
    loadgen_p.add_argument("--eviction", default=None,
                           choices=sorted(EVICTION_REGISTRY))
    loadgen_p.add_argument("--out", type=Path,
                           default=Path("BENCH_serve.json"),
                           help="report path (default: "
                                "BENCH_serve.json)")
    loadgen_p.add_argument("--trace-out", type=Path, default=None,
                           help="also fetch GET /v1/trace into this "
                                "file (needs --service-trace on the "
                                "daemon)")
    loadgen_p.add_argument("--json", action="store_true",
                           help="print the full report JSON instead of "
                                "the summary")
    add_remote_flags(loadgen_p)
    add_cluster_flag(loadgen_p)

    top_p = sub.add_parser(
        "top",
        help="one-shot or interval snapshot of a running server: queue "
             "depth, per-worker state, latency quantiles",
    )
    top_p.add_argument("--interval", type=float, default=0.0,
                       metavar="SECONDS",
                       help="refresh period (0 = print once and exit)")
    top_p.add_argument("--count", type=int, default=0, metavar="N",
                       help="frames to print with --interval "
                            "(0 = until interrupted)")
    add_remote_flags(top_p)
    add_fleet_flags(top_p)

    tune_p = sub.add_parser(
        "tune",
        help="search the policy space for one workload and write a "
             "recommendation card (see docs/TUNING.md)",
    )
    tune_p.add_argument("workload", choices=sorted(WORKLOAD_REGISTRY))
    tune_p.add_argument("--scale", type=float, default=0.3)
    tune_p.add_argument("--percents", type=float, nargs="+",
                        default=[105.0, 110.0, 125.0],
                        help="over-subscription levels; each gets its "
                             "own tournament")
    tune_p.add_argument("--driver", default="grid",
                        choices=list(TUNE_DRIVERS),
                        help="search driver (default: grid)")
    tune_p.add_argument("--budget", type=int, default=None, metavar="N",
                        help="max candidates admitted per tournament "
                             "(required for random; default: all)")
    tune_p.add_argument("--objective", default="kernel-time",
                        choices=sorted(TUNE_OBJECTIVES),
                        help="scalar score to minimize "
                             "(default: kernel-time)")
    tune_p.add_argument("--seed", type=int, default=0)
    tune_p.add_argument("--eta", type=int, default=2,
                        help="halving keep-fraction denominator "
                             "(default: 2)")
    tune_p.add_argument("--fidelities", type=float, nargs="+",
                        default=None, metavar="F",
                        help="halving rung ladder as fractions of "
                             "--scale, ending at 1.0 (default: 0.5 1.0)")
    tune_p.add_argument("--thresholds", type=float, nargs="+",
                        default=[0.5], metavar="T",
                        help="TBN threshold axis (default: 0.5)")
    tune_p.add_argument("--batch-limits", type=int, nargs="+",
                        default=[0], metavar="N",
                        help="fault-batch-limit axis (default: 0 = "
                             "unlimited)")
    tune_p.add_argument("--include-learned", action="store_true",
                        help="extend the pairing axis with the learned "
                             "policies (cards stay byte-stable without "
                             "it)")
    tune_p.add_argument("--via-server", default=None, metavar="URL",
                        help="evaluate cells on a running `repro serve` "
                             "daemon instead of in-process")
    tune_p.add_argument("--server-timeout", type=float, default=600.0,
                        help="seconds to wait per server job "
                             "(default: 600)")
    tune_p.add_argument("--out", type=Path, default=None,
                        help="card directory (default: results/tune)")
    add_sweep_flags(tune_p)

    rec_p = sub.add_parser(
        "recommend",
        help="print the tuned policy recommendation for a workload "
             "from its card (no simulation)",
    )
    rec_p.add_argument("workload", choices=sorted(WORKLOAD_REGISTRY))
    rec_p.add_argument("--oversubscription", type=float, default=None,
                       metavar="PERCENT",
                       help="over-subscription level to answer for "
                            "(default: the card's first level)")
    rec_p.add_argument("--cards-dir", type=Path, default=None,
                       help="card directory (default: results/tune)")
    rec_p.add_argument("--json", action="store_true",
                       help="print the full recommendation block as "
                            "canonical JSON")

    val_p = sub.add_parser("validate",
                           help="check the paper's claims against "
                                "measured results")
    val_p.add_argument("--scale", type=float, default=0.3)

    cmp_p = sub.add_parser("compare",
                           help="run one workload under two presets "
                                "side by side")
    cmp_p.add_argument("workload", choices=sorted(WORKLOAD_REGISTRY))
    cmp_p.add_argument("preset_a", choices=sorted(PRESETS))
    cmp_p.add_argument("preset_b", choices=sorted(PRESETS))
    cmp_p.add_argument("--scale", type=float, default=0.5)

    bench_p = sub.add_parser(
        "bench",
        help="run the fastpath-equiv differential matrix on both engines "
             "and exit 1 on any byte-level mismatch",
    )
    bench_p.add_argument("--scale", type=float, default=1.0,
                         help="workload footprint scale")
    return parser


def cmd_list() -> int:
    from .policy import learned_names
    print("workloads :", ", ".join(SUITE_ORDER))
    print("prefetch  :", ", ".join(sorted(PREFETCHER_REGISTRY)))
    print("eviction  :", ", ".join(sorted(EVICTION_REGISTRY)))
    learned = sorted(set(learned_names("prefetch"))
                     | set(learned_names("evict")))
    print("learned   :", ", ".join(learned),
          "(reference engine only; see docs/POLICIES.md)")
    print("experiments:", ", ".join(sorted(EXPERIMENTS)), "+ all")
    return 0


def _print_resilience(stats) -> None:
    rows = [[key, value]
            for key, value in stats.resilience_dict().items()]
    print(format_table(["resilience counter", "value"], rows))


def _flags_config(args: argparse.Namespace, workload,
                  overrides: dict | None = None) -> SimulatorConfig:
    """Build the config of one run from the policy flags.

    One recipe for `run`, `submit`, `trace` and `report`, so a cell
    submitted to a server hashes identically to the same cell run
    in-process — the cache-hit and coalescing guarantees depend on it.
    Flags a command does not have take their `run` defaults.
    ``overrides`` (a `--config-file`, or trace settings) win over the
    policy flags.
    """
    profile = None
    if getattr(args, "fault_profile", None) is not None:
        from .faultinject.profile import FaultProfile
        profile = FaultProfile.load(args.fault_profile, seed=args.seed)
    if getattr(args, "preset", None) is not None:
        config = preset_config(args.preset, workload)
        if profile is not None:
            config = config.replace(fault_profile=profile)
        return config
    common = dict(
        engine=getattr(args, "engine", "reference"),
        prefetcher=args.prefetcher,
        eviction=args.eviction,
        disable_prefetch_on_oversubscription=not args.keep_prefetching,
        lru_reservation_fraction=getattr(args, "reservation", 0.0),
        free_page_buffer_fraction=getattr(args, "buffer", 0.0),
        seed=args.seed,
        fault_profile=profile,
    )
    if overrides is not None:
        common.update(overrides)
    if args.oversubscription is None:
        return SimulatorConfig(**common)
    return oversubscribed(workload.footprint_bytes,
                          args.oversubscription, **common)


def _stats_json(stats_dict: dict) -> str:
    """Canonical SimStats JSON shared by `run --json` and `submit`."""
    return json.dumps(stats_dict, sort_keys=True, indent=2)


def cmd_run(args: argparse.Namespace) -> int:
    workload = make_workload(args.workload, scale=args.scale)
    file_fields = None
    if args.config_file is not None:
        file_fields = json.loads(args.config_file.read_text())
        if not isinstance(file_fields, dict):
            raise SystemExit("--config-file must contain a JSON object")
    config = _flags_config(args, workload, file_fields)
    stats = UvmRuntime(config).run_workload(workload)
    if args.json:
        print(_stats_json(stats.to_json_dict()))
        return 0
    if args.preset is not None:
        print(f"{workload.name} under preset {args.preset!r}")
    else:
        print(f"{workload.name}: "
              f"{workload.footprint_bytes / 2**20:.1f} MB "
              f"working set, prefetcher={config.prefetcher}, "
              f"eviction={config.eviction}")
    rows = [[key, value] for key, value in stats.as_dict().items()]
    print(format_table(["counter", "value"], rows))
    if config.fault_profile is not None:
        _print_resilience(stats)
    return 0


def _traced_runtime(args: argparse.Namespace,
                    max_events: int = 0):
    """Run one workload with span tracing on; returns (workload, runtime)."""
    workload = make_workload(args.workload, scale=args.scale)
    runtime = UvmRuntime(_flags_config(
        args, workload, {"trace": True, "trace_max_events": max_events}))
    runtime.run_workload(workload)
    return workload, runtime


def cmd_trace(args: argparse.Namespace) -> int:
    from .obs import run_report, write_chrome_trace, write_metrics

    workload, runtime = _traced_runtime(args,
                                        max_events=args.max_events)
    out = args.out if args.out is not None \
        else Path(f"{workload.name}.trace.json")
    if args.metrics_out is not None:
        metrics_out = args.metrics_out
    else:
        stem = out.name.removesuffix(".json").removesuffix(".trace")
        metrics_out = out.with_name(stem + ".metrics.json")
    tracer = runtime.tracer
    write_chrome_trace(tracer, out)
    write_metrics(runtime.stats, metrics_out)
    dropped = f" ({tracer.dropped_events} dropped)" \
        if tracer.dropped_events else ""
    print(f"{workload.name}: {len(tracer)} trace events{dropped} -> {out}")
    print(f"metrics -> {metrics_out}")
    print("open the trace in https://ui.perfetto.dev or chrome://tracing")
    if args.report:
        print()
        print(run_report(runtime.stats, tracer,
                         title=f"{workload.name} run report"), end="")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .obs import run_report

    workload, runtime = _traced_runtime(args)
    print(run_report(runtime.stats, runtime.tracer, top=args.top,
                     title=f"{workload.name} run report"), end="")
    return 0


def _run_cache(args: argparse.Namespace) -> RunCache | None:
    """The run cache the experiment/sweep/serve flags select (None = off).

    ``--cache-dir`` wins, then ``$REPRO_CACHE_DIR``, then the default —
    so a server and ad-hoc CLI runs share one cache without repeating
    the flag.
    """
    if args.no_cache:
        return None
    return RunCache(resolve_cache_dir(args.cache_dir))


def _check_jobs(jobs: int) -> None:
    """Reject nonsensical worker counts before any pool sees them."""
    if jobs < 1:
        raise ConfigurationError(
            f"--jobs must be a positive integer, got {jobs}"
        )


def cmd_experiment(args: argparse.Namespace) -> int:
    _check_jobs(args.jobs)
    names = sorted(EXPERIMENTS) if args.name == "all" else [args.name]
    with sweep_context(jobs=args.jobs, cache=_run_cache(args)) as report:
        for name in names:
            if name == "ext-autotune" and args.include_learned:
                result = extension_autotune.run(include_learned=True)
            else:
                result = EXPERIMENTS[name](args.scale)
            print(result.to_table())
            if args.chart:
                print()
                print(grouped_bars(result))
            print()
            if args.out is not None:
                args.out.mkdir(parents=True, exist_ok=True)
                (args.out / f"{name}.txt").write_text(
                    result.to_table() + "\n")
    # Stderr on purpose: stdout must stay byte-identical across
    # --jobs/cache settings so runs can be diffed.
    print(f"[sweep] {report.summary()}", file=sys.stderr)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    _check_jobs(args.jobs)
    workload = make_workload(args.workload, scale=args.scale)
    cells = [
        SweepCell(
            workload_spec={"name": args.workload, "scale": args.scale},
            config=oversubscribed(
                workload.footprint_bytes, percent,
                prefetcher=args.prefetcher, eviction=args.eviction,
                disable_prefetch_on_oversubscription=False,
            ),
            label=percent,
        )
        for percent in args.percents
    ]
    with sweep_context(jobs=args.jobs, cache=_run_cache(args)) as report:
        outcomes = execute_cells(cells)
    rows = []
    for percent, stats in zip(args.percents, outcomes):
        rows.append([f"{percent:.0f}%",
                     stats.total_kernel_time_ns / 1e6,
                     stats.far_faults, stats.pages_evicted,
                     stats.pages_thrashed])
    print(format_table(
        ["oversub", "time (ms)", "faults", "evicted", "thrashed"], rows,
        title=f"{args.workload} sweep ({args.prefetcher}+{args.eviction})",
    ))
    print(f"[sweep] {report.summary()}", file=sys.stderr)
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    """Resilience table: one workload swept across injection rates."""
    from .experiments.extension_resilience import profile_for_rate

    workload = make_workload(args.workload, scale=args.scale)
    cells = [
        SweepCell(
            workload_spec={"name": args.workload, "scale": args.scale},
            config=oversubscribed(
                workload.footprint_bytes, args.oversubscription,
                prefetcher=args.prefetcher, eviction=args.eviction,
                disable_prefetch_on_oversubscription=False,
                seed=args.seed,
                fault_profile=profile_for_rate(rate, seed=args.seed),
            ),
        )
        for rate in args.rates
    ]
    rows = []
    for rate, stats in zip(args.rates,
                           execute_cells(cells, isolate_failures=True)):
        if isinstance(stats, FailedRun):
            rows.append([f"{rate:.2f}", f"FAILED({stats.error_type})",
                         "-", "-", "-", "-", "-"])
            continue
        rows.append([
            f"{rate:.2f}",
            stats.total_kernel_time_ns / 1e6,
            stats.injected_faults,
            stats.migration_retries,
            stats.retry_backoff_ns / 1e6,
            stats.recovered_faults,
            stats.degradation_events,
        ])
    print(format_table(
        ["fault rate", "time (ms)", "injected", "retries",
         "backoff (ms)", "recovered", "degraded"], rows,
        title=f"{args.workload} resilience sweep "
              f"({args.prefetcher}+{args.eviction} at "
              f"{args.oversubscription:.0f}%)",
    ))
    return 0


def _event_log(args: argparse.Namespace):
    """The structured event log ``--events-dir``/``--no-events`` select
    for ``repro serve`` and ``repro cluster`` (None = off)."""
    from .serve import DEFAULT_EVENTS_DIR, ServeEventLog

    if args.no_events:
        return None
    return ServeEventLog(args.events_dir if args.events_dir is not None
                         else DEFAULT_EVENTS_DIR)


def cmd_serve(args: argparse.Namespace) -> int:
    from .serve import (
        DEFAULT_JOURNAL_DIR,
        FleetOptions,
        JobJournal,
        ServiceTracer,
        run_server,
    )

    _check_jobs(args.jobs)
    if args.queue_limit < 1:
        raise ConfigurationError(
            f"--queue-limit must be a positive integer, got "
            f"{args.queue_limit}"
        )
    journal_dir = args.journal_dir if args.journal_dir is not None \
        else DEFAULT_JOURNAL_DIR
    tracer = ServiceTracer(workers=args.jobs) if args.service_trace \
        else None
    return run_server(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        queue_limit=args.queue_limit,
        cache=_run_cache(args),
        journal=JobJournal(journal_dir),
        verbose=args.verbose,
        worker_mode=args.worker_mode,
        fleet=FleetOptions(max_attempts=args.max_attempts,
                           job_timeout=args.job_timeout),
        events=_event_log(args),
        tracer=tracer,
        join=args.join,
        shard_id=args.shard_id,
        advertise_host=args.advertise_host,
        heartbeat_interval=args.heartbeat_interval,
    )


def cmd_cluster(args: argparse.Namespace) -> int:
    from .cluster import run_coordinator

    return run_coordinator(
        host=args.host,
        port=args.port,
        seed=args.seed,
        vnodes=args.vnodes,
        heartbeat_timeout=args.heartbeat_timeout,
        steal_threshold=args.steal_threshold,
        steal_batch=args.steal_batch,
        tick=args.tick,
        events=_event_log(args),
        verbose=args.verbose,
    )


def cmd_chaos(args: argparse.Namespace) -> int:
    from .chaos import run_chaos

    if not args.cluster:
        _check_jobs(args.workers)
    default_profile = "shard-kill" if args.cluster else "worker-kill"
    report = run_chaos(
        workloads=args.workloads,
        scale=args.scale,
        seeds=args.seeds,
        profile=args.profile or default_profile,
        cluster=args.cluster,
        workers=args.workers,
        max_attempts=args.max_attempts,
        job_timeout=args.job_timeout,
        shards=args.shards,
        workers_per_shard=args.workers_per_shard,
        deadline=args.deadline,
        root_dir=args.dir,
        verbose=args.verbose,
    )
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2,
                         sort_keys=True))
    else:
        print(report.to_table())
    return 0 if report.ok else 1


def cmd_submit(args: argparse.Namespace) -> int:
    from .serve import ServeClient

    workload = make_workload(args.workload, scale=args.scale)
    config = _flags_config(args, workload)
    if args.cluster is not None:
        client = ServeClient.from_url(args.cluster)
    else:
        client = ServeClient(host=args.host, port=args.port)
    spec = {"name": args.workload, "scale": args.scale}
    job = client.submit(spec, config=config.to_dict())
    coalesced = " (coalesced into an active job)" if job.get("coalesced") \
        else ""
    print(f"[serve] job {job['id']} {job['state']}{coalesced}",
          file=sys.stderr)
    if args.no_wait:
        print(job["id"])
        return 0
    outcome = client.wait(job["id"], timeout=args.timeout)
    print(f"[serve] job {job['id']} {outcome['state']}, "
          f"cache_hit: {'true' if outcome['cache_hit'] else 'false'}",
          file=sys.stderr)
    result = decode_result(outcome["result"])
    if result is None or isinstance(result, FailedRun):
        print(json.dumps(outcome["result"], sort_keys=True, indent=2))
        return 1
    print(_stats_json(result.to_json_dict()))
    return 0


def _fleet_endpoints(args: argparse.Namespace) -> list:
    """Resolve ``--cluster``/``--endpoint`` into ``(label, client)``
    pairs; falls back to the single ``--host``/``--port`` server."""
    from .serve import ServeClient

    # Parse every --endpoint before the first connection.
    extra = [(spec, ServeClient.from_url(spec, timeout=args.timeout))
             for spec in args.endpoint or []]
    endpoints = []
    if args.cluster is not None:
        coordinator = ServeClient.from_url(args.cluster,
                                           timeout=args.timeout)
        for shard in coordinator.cluster_shards()["shards"]:
            if shard["state"] != "alive":
                continue
            endpoints.append((
                f"{shard['id']} ({shard['host']}:{shard['port']})",
                ServeClient(host=shard["host"], port=shard["port"],
                            timeout=args.timeout)))
    endpoints += extra
    if not endpoints:
        endpoints.append((f"{args.host}:{args.port}",
                          ServeClient(host=args.host, port=args.port,
                                      timeout=args.timeout)))
    return endpoints


def cmd_jobs(args: argparse.Namespace) -> int:
    from .serve import ServeClient

    if args.job_id is not None or args.cancel:
        # Single-job operations go to one server: the coordinator
        # (which proxies by its own job id) or --host/--port.
        if args.cluster is not None:
            client = ServeClient.from_url(args.cluster,
                                          timeout=args.timeout)
        else:
            client = ServeClient(host=args.host, port=args.port,
                                 timeout=args.timeout)
        if args.cancel:
            if args.job_id is None:
                raise SystemExit("jobs --cancel needs a job id")
            status = client.cancel(args.job_id)
            print(f"{status['id']}: {status['state']}")
            return 0
        print(json.dumps(client.status(args.job_id), sort_keys=True,
                         indent=2))
        return 0
    endpoints = _fleet_endpoints(args)
    if args.cluster is not None:
        # The coordinator's own table first: cluster job ids with the
        # shard each one currently lives on.
        coordinator = ServeClient.from_url(args.cluster,
                                           timeout=args.timeout)
        rows = [
            [job["id"], job["state"], job["workload"],
             job.get("shard", "-")]
            for job in coordinator.jobs()
        ]
        print(format_table(
            ["job", "state", "workload", "shard"], rows,
            title=f"{len(rows)} cluster job(s) via {args.cluster}",
        ))
    for label, client in endpoints:
        rows = [
            [job["id"], job["state"], job["workload"],
             "-" if job["cache_hit"] is None
             else ("hit" if job["cache_hit"] else "miss")]
            for job in client.jobs()
        ]
        health = client.healthz()
        print(format_table(
            ["job", "state", "workload", "cache"], rows,
            title=f"{len(rows)} job(s) on {label} "
                  f"(status {health['status']}, "
                  f"{health.get('queue_depth', '?')} queued, "
                  f"{health.get('running_jobs', '?')} running)",
        ))
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    from .loadgen import (
        LoadgenPlan,
        report_to_json,
        run_loadgen,
        summarize_report,
        write_report,
    )

    if args.cluster is not None and args.trace_out is not None:
        raise ConfigurationError(
            "--trace-out needs a single daemon (--host/--port): the "
            "cluster coordinator serves no /v1/trace"
        )
    plan = LoadgenPlan(
        seed=args.seed,
        duration=args.duration,
        rate=args.rate,
        concurrency=args.concurrency,
        workload=args.workload,
        scale=args.scale,
        distinct=args.distinct,
        zipf_s=args.zipf_s,
        pattern=args.pattern,
        prefetcher=args.prefetcher,
        eviction=args.eviction,
        timeout=args.timeout,
    )
    if args.cluster is not None:
        from .serve import ServeClient

        coordinator = ServeClient.from_url(args.cluster,
                                           timeout=plan.timeout,
                                           backpressure_retries=0)
        report = run_loadgen(plan, client=coordinator, cluster=True)
    else:
        report = run_loadgen(plan, host=args.host, port=args.port)
    path = write_report(report, args.out)
    if args.json:
        print(report_to_json(report))
    else:
        print(summarize_report(report))
    print(f"report -> {path}", file=sys.stderr)
    if args.trace_out is not None:
        from .serve import ServeClient

        trace = ServeClient(host=args.host, port=args.port).trace()
        trace_path = Path(args.trace_out)
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps(
            trace, indent=1, sort_keys=True,
            separators=(",", ": ")) + "\n")
        print(f"trace -> {trace_path}", file=sys.stderr)
    measured = report["measured"]
    ok = measured["completed"] > 0 and measured["failed_jobs"] == 0 \
        and measured["wait_errors"] == 0
    return 0 if ok else 1


def cmd_top(args: argparse.Namespace) -> int:
    from .loadgen import fetch_cluster_top, fetch_top
    from .serve import ServeClient

    endpoints = [ServeClient.from_url(spec) for spec in args.endpoint or []]

    def _frame() -> str:
        panels = []
        if args.cluster is not None:
            panels.append(fetch_cluster_top(args.cluster,
                                            timeout=args.timeout))
        for endpoint in endpoints:
            panels.append(fetch_top(host=endpoint.host,
                                    port=endpoint.port,
                                    timeout=args.timeout))
        if not panels:
            panels.append(fetch_top(host=args.host, port=args.port,
                                    timeout=args.timeout))
        return "\n\n".join(panels)

    if args.interval <= 0:
        print(_frame())
        return 0
    frames = 0
    try:
        while True:
            print(_frame())
            frames += 1
            if args.count and frames >= args.count:
                return 0
            print()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def cmd_tune(args: argparse.Namespace) -> int:
    space = SearchSpace(
        percents=tuple(args.percents),
        pairings=pairings_axis(args.include_learned),
        tbn_thresholds=tuple(args.thresholds),
        fault_batch_limits=tuple(args.batch_limits),
    )
    request = TuneRequest(
        workload=args.workload,
        scale=args.scale,
        space=space,
        driver=make_driver(args.driver, budget=args.budget,
                           seed=args.seed, eta=args.eta,
                           fidelities=args.fidelities),
        objective=get_objective(args.objective),
        seed=args.seed,
    )
    if args.via_server is not None:
        from .serve import ServeClient

        client = ServeClient.from_url(args.via_server)
        card = tune_workload(
            request,
            evaluator=ServerEvaluator(client,
                                      timeout=args.server_timeout),
        )
        print(f"[tune] evaluated via http://{client.host}:{client.port}",
              file=sys.stderr)
    else:
        _check_jobs(args.jobs)
        with sweep_context(jobs=args.jobs,
                           cache=_run_cache(args)) as report:
            card = tune_workload(request)
        # Stderr on purpose: the card and summary on stdout stay
        # byte-identical across --jobs/cache settings.
        print(f"[tune] {report.summary()}", file=sys.stderr)
    path = write_card(card, args.out)
    print(format_card(card))
    print(f"card -> {path}")
    return 0


def cmd_recommend(args: argparse.Namespace) -> int:
    card = load_card(args.workload, args.cards_dir)
    block = recommendation_for(card, args.oversubscription)
    if args.json:
        print(json.dumps(block, sort_keys=True, indent=2))
        return 0
    winner = block["winner"]
    candidate = winner["candidate"]
    percent = block["oversubscription_percent"]
    time_ms = winner["metrics"]["kernel_time_ns"] / 1e6
    print(f"{card['workload']} @ {percent:g}% over-subscription: "
          f"run {candidate['pairing']}")
    print(f"  prefetcher={candidate['prefetcher']} "
          f"eviction={candidate['eviction']} "
          f"tbn_threshold={candidate['tbn_threshold']:g} "
          f"fault_batch_limit={candidate['fault_batch_limit']}")
    print(f"  kernel time {time_ms:.3f} ms, "
          f"migrated {winner['metrics']['migrated_bytes']} bytes, "
          f"{winner['metrics']['far_faults']} far-faults "
          f"({card['objective']['name']} objective, "
          f"{block['evaluations']} evaluations)")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    columns = {}
    for preset_name in (args.preset_a, args.preset_b):
        workload = make_workload(args.workload, scale=args.scale)
        config = preset_config(preset_name, workload)
        stats = UvmRuntime(config).run_workload(workload)
        columns[preset_name] = stats.as_dict()
    counters = list(columns[args.preset_a])
    rows = []
    for counter in counters:
        a = columns[args.preset_a][counter]
        b = columns[args.preset_b][counter]
        ratio = (a / b) if b else float("inf") if a else 1.0
        rows.append([counter, a, b, f"{ratio:.2f}x"])
    print(format_table(
        ["counter", args.preset_a, args.preset_b, "A/B"], rows,
        title=f"{args.workload} (scale {args.scale})",
    ))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from . import bench

    results = bench.compare_engines(scale=args.scale)
    print(bench.format_compare(results))
    return 0 if all(r.identical for r in results) else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return cmd_list()
    if args.command == "run":
        return cmd_run(args)
    if args.command == "experiment":
        return cmd_experiment(args)
    if args.command == "sweep":
        return cmd_sweep(args)
    if args.command == "faults":
        return cmd_faults(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "cluster":
        return cmd_cluster(args)
    if args.command == "chaos":
        return cmd_chaos(args)
    if args.command == "submit":
        return cmd_submit(args)
    if args.command == "jobs":
        return cmd_jobs(args)
    if args.command == "loadgen":
        return cmd_loadgen(args)
    if args.command == "top":
        return cmd_top(args)
    if args.command == "tune":
        return cmd_tune(args)
    if args.command == "recommend":
        return cmd_recommend(args)
    if args.command == "trace":
        return cmd_trace(args)
    if args.command == "report":
        return cmd_report(args)
    if args.command == "validate":
        from .validation import format_report, validate_claims
        checks = validate_claims(scale=validate_scale(args.scale))
        print(format_report(checks))
        return 0 if all(c.passed for c in checks) else 1
    if args.command == "compare":
        return cmd_compare(args)
    if args.command == "bench":
        return cmd_bench(args)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
