"""Programmatic validation of the paper's headline claims.

``python -m repro validate`` (or :func:`validate_claims`) runs a curated,
fast subset of the evaluation and checks each qualitative claim of the
paper against the measured results, returning structured
:class:`ClaimCheck` records.  This is the machine-checkable counterpart of
the EXPERIMENTS.md scoreboard.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis.metrics import geomean
from .errors import ReproError
from .experiments import (
    fig3_prefetch_time,
    fig5_farfaults,
    fig6_oversub_sensitivity,
    fig11_combinations,
    fig13_oversub_scaling,
    fig15_tbne_vs_2mb,
    fig16_thrashing,
    table1_pcie,
)

#: Workloads treated as streaming (no reuse) in claim checks.
STREAMING = ("backprop", "pathfinder")


@dataclass
class ClaimCheck:
    """One claim of the paper and its measured verdict."""

    claim_id: str
    description: str
    paper: str
    measured: str
    passed: bool


def _check_table1(checks: list[ClaimCheck], scale: float) -> None:
    table1 = table1_pcie.run()
    max_err = max(
        abs(model - paper) / paper
        for paper, model in zip(table1.column("Paper (GB/s)"),
                                table1.column("Model (GB/s)"))
    )
    checks.append(ClaimCheck(
        "table1", "PCI-e bandwidth model matches the measured points",
        "3.22..11.22 GB/s", f"max relative error {max_err:.1e}",
        max_err < 1e-6,
    ))


def _check_fig3_fig5(checks: list[ClaimCheck], scale: float) -> None:
    fig3 = fig3_prefetch_time.run(scale=scale)
    none_t = fig3.column("none")
    tbn_t = fig3.column("tbn")
    sl_t = fig3.column("sequential-local")
    speedup = geomean([n / t for n, t in zip(none_t, tbn_t)])
    checks.append(ClaimCheck(
        "fig3-prefetch",
        "TBNp dramatically outperforms on-demand paging",
        "orders-of-magnitude slowdown for naive handling",
        f"geomean speedup {speedup:.1f}x", speedup > 5.0,
    ))
    checks.append(ClaimCheck(
        "fig3-ordering", "TBNp never loses to SLp",
        "TBNp best overall",
        f"max tbn/sl ratio "
        f"{max(t / s for t, s in zip(tbn_t, sl_t)):.2f}",
        all(t <= s * 1.001 for t, s in zip(tbn_t, sl_t)),
    ))
    fig5 = fig5_farfaults.run(scale=scale)
    none_f = fig5.column("none")
    tbn_f = fig5.column("tbn")
    checks.append(ClaimCheck(
        "fig5-faults", "TBNp cuts far-faults by >4x on every workload",
        "locality prefetch avoids faults entirely for prefetched pages",
        f"min reduction {min(n / t for n, t in zip(none_f, tbn_f)):.1f}x",
        all(t <= n / 4 for n, t in zip(none_f, tbn_f)),
    ))


def _check_fig6(checks: list[ClaimCheck], scale: float) -> None:
    fig6 = fig6_oversub_sensitivity.run(scale=scale)
    rows = {row[0]: row[1:] for row in fig6.rows}
    reuse_degrades = all(
        rows[name][2] > rows[name][0] * 1.5
        for name in ("bfs", "hotspot", "srad", "nw")
    )
    streaming_flat = all(
        rows[name][3] <= rows[name][0] * 1.5 for name in STREAMING
    )
    checks.append(ClaimCheck(
        "fig6-oversub",
        "small over-subscription drastically degrades reuse workloads; "
        "streaming ones are immune",
        "drastic degradation even at small percentages",
        f"srad 110%/fits = {rows['srad'][2] / rows['srad'][0]:.1f}x",
        reuse_degrades and streaming_flat,
    ))
    buffer_hurts = sum(
        1 for name in ("bfs", "hotspot", "nw")
        if rows[name][4] > rows[name][2]
    )
    checks.append(ClaimCheck(
        "fig6-buffer", "the free-page buffer hurts, not helps",
        "it actually hurts the performance",
        f"buf5 worse than plain 110% on {buffer_hurts}/3 reuse workloads",
        buffer_hurts >= 2,
    ))


def _check_fig11(checks: list[ClaimCheck], scale: float) -> None:
    fig11 = fig11_combinations.run(scale=scale)
    names = fig11.column("workload")
    lru4k = dict(zip(names, fig11.column("LRU4K+on-demand")))
    rerp = dict(zip(names, fig11.column("Re+Rp")))
    sle = dict(zip(names, fig11.column("SLe+SLp")))
    tbne = dict(zip(names, fig11.column("TBNe+TBNp")))
    reuse = [n for n in names if n not in STREAMING and n != "gemm"]
    combos_win = all(
        min(sle[n], tbne[n]) < min(lru4k[n], rerp[n]) for n in reuse
    )
    improvement = geomean([lru4k[n] / tbne[n] for n in names]) - 1.0
    checks.append(ClaimCheck(
        "fig11-combos",
        "locality-aware pairings drastically beat the naive pairings",
        "average 93% improvement for TBNe+TBNp",
        f"geomean improvement {improvement:+.0%}",
        combos_win and improvement > 0.4,
    ))


def _check_fig13(checks: list[ClaimCheck], scale: float) -> None:
    fig13 = fig13_oversub_scaling.run(scale=scale)
    rows13 = {row[0]: row[1:] for row in fig13.rows}
    checks.append(ClaimCheck(
        "fig13-scaling",
        "streaming workloads insensitive to over-subscription under "
        "TBNe+TBNp; nw degrades steeply",
        "nw degrades an order of magnitude",
        f"nw 150%/fits = {rows13['nw'][4] / rows13['nw'][0]:.1f}x",
        all(rows13[n][4] <= rows13[n][0] * 2.0 for n in STREAMING)
        and rows13["nw"][4] > rows13["nw"][0] * 3.0,
    ))


def _check_fig15_fig16(checks: list[ClaimCheck], scale: float) -> None:
    fig15 = fig15_tbne_vs_2mb.run(scale=scale)
    speedups = fig15.column("TBNe speedup")
    gain = geomean(speedups) - 1.0
    checks.append(ClaimCheck(
        "fig15-2mb", "TBNe beats static 2MB LRU eviction on average",
        "18.5% average, up to 52%",
        f"geomean {gain:+.0%}, max {max(speedups) - 1:+.0%}",
        gain > 0.05 and max(speedups) > 1.2,
    ))
    fig16 = fig16_thrashing.run(scale=scale)
    rows16 = {row[0]: row[1:] for row in fig16.rows}
    streaming_zero = all(rows16[n][0] == 0 for n in STREAMING)
    tbne_less = sum(
        1 for n in ("bfs", "hotspot", "nw", "srad")
        if rows16[n][0] <= rows16[n][1]
    )
    checks.append(ClaimCheck(
        "fig16-thrash",
        "no thrashing for streaming workloads; TBNe thrashes fewer pages "
        "than 2MB eviction",
        "significant reduction in page thrashing",
        f"TBNe <= 2MB on {tbne_less}/4 reuse workloads",
        streaming_zero and tbne_less >= 3,
    ))


def _check_tune(checks: list[ClaimCheck], scale: float) -> None:
    """The auto-tuner must recover the headline pairing *by search*.

    Runs :mod:`repro.tune` tournaments — exhaustive grid and
    multi-fidelity successive halving — over the Figure-11 pairings on a
    regular workload at 110% over-subscription; both drivers must crown
    TBNe+TBNp.  The tournament runs at a pinned scale (0.3): the check
    verifies the *search machinery* recovers a known ground truth, and
    0.3 is the operating point where that ground truth holds — at tiny
    or large scales the pairings tie and the winner is a tie-break.
    """
    from .tune import (
        GridSearch,
        SearchSpace,
        SuccessiveHalving,
        TuneRequest,
        recommended_pairing,
        tune_workload,
    )

    tune_scale = 0.3
    winners = {}
    for driver in (GridSearch(), SuccessiveHalving()):
        card = tune_workload(TuneRequest(
            workload="gemm",
            scale=tune_scale,
            space=SearchSpace(percents=(110.0,)),
            driver=driver,
            seed=0,
        ))
        winners[driver.name] = recommended_pairing(card, 110.0)
    checks.append(ClaimCheck(
        "tune-recover",
        "the auto-tuner recovers TBNe+TBNp on a regular workload at "
        "110% over-subscription, by search rather than assertion",
        "TBNe+TBNp wins on regular workloads at 110%",
        f"grid -> {winners['grid']}, halving -> {winners['halving']}",
        all(w == "TBNe+TBNp" for w in winners.values()),
    ))


def _check_fastpath(checks: list[ClaimCheck], scale: float) -> None:
    """Both engines must produce byte-identical results.

    Runs the fixed :func:`repro.bench.equivalence_matrix` — seeds ×
    workloads × policy pairings × over-subscription levels, plus
    fault-profile, tracing and L2 cells — under ``engine="reference"`` and
    ``engine="fast"`` and byte-compares ``SimStats.to_json()`` per cell.
    This is not a statistical claim about the paper but the correctness
    gate that makes the fast engine's numbers *mean* anything: every
    figure reproduced above may be produced by either engine only
    because this claim holds.
    """
    from .bench import compare_engines

    results = compare_engines(scale=scale)
    mismatched = [r.cell.name for r in results if not r.identical]
    passed = sum(1 for r in results if r.identical)
    measured = f"{passed}/{len(results)} cells byte-identical"
    if mismatched:
        measured += f"; mismatched: {', '.join(mismatched[:4])}"
    checks.append(ClaimCheck(
        "fastpath-equiv",
        "the batched fast engine is result-identical to the reference "
        "discrete-event engine across workloads, policy pairings, "
        "over-subscription levels, fault profiles, tracing modes and L2",
        "engine selection must never change simulation results",
        measured,
        not mismatched,
    ))


def _check_learned(checks: list[ClaimCheck], scale: float) -> None:
    """The learned policies must be competitive — and deterministic.

    Competitive: at least one learned pairing ties or beats the paper's
    headline TBNe+TBNp kernel time on at least one workload at 110%
    over-subscription (tie tolerance 0.1%).  Runs at a pinned scale
    (0.3) like the tune check: the learned baselines' epoch/window
    knobs are sized for that regime.

    Deterministic: two fresh same-seed runs of each learned pairing
    must produce byte-identical ``SimStats.to_json()`` — online
    training is inside the simulation, so it must be as reproducible
    as the simulation itself.
    """
    from .experiments.common import combo_config, run_workload_setting
    from .policy import LEARNED_PAIRINGS
    from .workloads.registry import make_workload

    learned_scale = 0.3
    percent = 110.0
    workload_names = ("gemm", "bfs")
    pairings = (("TBNe+TBNp", "tbn", "tbn", True),) + LEARNED_PAIRINGS

    times: dict[tuple[str, str], float] = {}
    for name in workload_names:
        for label, prefetcher, eviction, keep in pairings:
            workload = make_workload(name, scale=learned_scale)
            config = combo_config(workload, prefetcher, eviction,
                                  oversubscription_percent=percent,
                                  prefetch_under_pressure=keep)
            stats = run_workload_setting(workload, config)
            times[(label, name)] = stats.total_kernel_time_ns

    competitive = []
    for label, _, _, _ in LEARNED_PAIRINGS:
        for name in workload_names:
            baseline = times[("TBNe+TBNp", name)]
            if times[(label, name)] <= baseline * 1.001:
                competitive.append(f"{label} on {name}")
    best = min(
        (times[(label, name)] / times[("TBNe+TBNp", name)], label, name)
        for label, _, _, _ in LEARNED_PAIRINGS
        for name in workload_names
    )
    checks.append(ClaimCheck(
        "learned-competitive",
        "at least one online-learned policy ties or beats TBNe+TBNp "
        "kernel time on at least one workload at 110% over-subscription",
        "hand-built policies are good but not unconditionally optimal",
        f"{len(competitive)} competitive learned cells "
        f"(best: {best[1]} on {best[2]} at {best[0]:.3f}x baseline)",
        bool(competitive),
    ))

    mismatched = []
    for label, prefetcher, eviction, keep in LEARNED_PAIRINGS:
        runs = []
        for _ in range(2):
            workload = make_workload("gemm", scale=learned_scale)
            config = combo_config(workload, prefetcher, eviction,
                                  oversubscription_percent=percent,
                                  prefetch_under_pressure=keep)
            runs.append(run_workload_setting(workload, config).to_json())
        if runs[0] != runs[1]:
            mismatched.append(label)
    checks.append(ClaimCheck(
        "learned-deterministic",
        "same-seed runs of every learned pairing are byte-identical "
        "(online training is part of the reproducible simulation)",
        "simulation results are deterministic functions of the config",
        "all learned pairings byte-identical" if not mismatched
        else f"mismatched: {', '.join(mismatched)}",
        not mismatched,
    ))


#: (claim-id-prefix, section description, section runner).  Sections are
#: isolated: one crashing experiment yields a failed ClaimCheck, not a
#: crashed validation run.
_SECTIONS = (
    ("table1", "PCI-e bandwidth model", _check_table1),
    ("fig3/5", "prefetcher time & far-fault figures", _check_fig3_fig5),
    ("fig6", "over-subscription sensitivity", _check_fig6),
    ("fig11", "prefetcher/eviction pairings", _check_fig11),
    ("fig13", "over-subscription scaling", _check_fig13),
    ("fig15/16", "TBNe vs 2MB + thrashing", _check_fig15_fig16),
    ("tune", "policy auto-tuner paper fidelity", _check_tune),
    ("fastpath", "engine differential equivalence", _check_fastpath),
    ("learned", "learned policy competitiveness", _check_learned),
)


def validate_claims(scale: float = 0.3) -> list[ClaimCheck]:
    """Run the checks; ``scale`` trades fidelity for speed.

    Sections run isolated: a section whose experiments raise a
    :class:`~repro.errors.ReproError` contributes one *failed*
    :class:`ClaimCheck` describing the error, and the rest still run.
    """
    checks: list[ClaimCheck] = []
    for claim_id, description, section in _SECTIONS:
        try:
            section(checks, scale)
        except ReproError as exc:
            checks.append(ClaimCheck(
                f"{claim_id}-error",
                f"{description} (experiment crashed)",
                "experiments complete without errors",
                f"{type(exc).__name__}: {exc}",
                False,
            ))
    return checks


def format_report(checks: list[ClaimCheck]) -> str:
    """Human-readable validation report."""
    lines = ["claim            ok  measured", "-" * 72]
    for check in checks:
        mark = "PASS" if check.passed else "FAIL"
        lines.append(f"{check.claim_id:16s} {mark}  {check.measured}")
        lines.append(f"  paper: {check.paper}")
        lines.append(f"  claim: {check.description}")
    passed = sum(1 for c in checks if c.passed)
    lines.append("-" * 72)
    lines.append(f"{passed}/{len(checks)} claims reproduced")
    return "\n".join(lines)
