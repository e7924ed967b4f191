"""Tests for the claim-validation module and its CLI command."""

import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ReproError, WorkloadError
from repro.experiments import registry
from repro.validation import (
    CLAIMS,
    ClaimCheck,
    format_report,
    validate_claims,
)

#: Tiny scale keeps this fast; some scale-sensitive claims may not hold
#: down here, so structural properties are what these tests check.
SCALE = 0.15

ROOT = Path(__file__).resolve().parent.parent

#: (claim_id, passed, measured) of the claims ``validate_claims(0.15)``
#: made before the claims became one table, recorded with that code.
PINNED = ROOT / "tests" / "data" / "validate" / "claims_0.15.json"


@pytest.fixture(scope="module")
def checks():
    return validate_claims(scale=SCALE)


class TestValidateClaims:
    def test_covers_all_claim_ids(self, checks):
        ids = [check.claim_id for check in checks]
        assert ids == [
            "table1", "table1-monotone", "fig2-signatures",
            "fig3-prefetch", "fig3-ordering", "fig3-every",
            "fig4-ondemand", "fig4-blocks",
            "fig5-faults", "fig5-ordering",
            "fig6-oversub", "fig6-buffer", "fig6-reuse", "fig7-4kb",
            "fig9-random", "fig10-correlation",
            "fig11-combos", "fig11-nw", "fig12-sparse", "fig12-moves",
            "fig13-scaling", "fig13-reuse",
            "fig14-streaming", "fig14-helps", "fig14-hurts",
            "fig15-2mb", "fig15-floor", "fig16-thrash", "fig16-pressure",
            "ablation-batching", "ablation-threshold", "ablation-lru",
            "ablation-walk", "ablation-buffer",
            "ext-adaptive", "ext-autotune", "ext-colocation",
            "optimality-bound", "optimality-srad",
            "tune-recover", "fastpath-equiv",
            "learned-competitive", "learned-deterministic",
        ]

    def test_pinned_claims_unchanged(self, checks):
        pinned = [tuple(entry) for entry in json.loads(PINNED.read_text())]
        by_id = {check.claim_id: check for check in checks}
        assert [(claim_id, by_id[claim_id].passed, by_id[claim_id].measured)
                for claim_id, _, _ in pinned] == pinned

    def test_every_check_is_populated(self, checks):
        for check in checks:
            assert check.description
            assert check.paper
            assert check.measured
            assert isinstance(check.passed, bool)

    def test_scale_independent_claims_pass_even_tiny(self, checks):
        by_id = {check.claim_id: check for check in checks}
        assert by_id["table1"].passed
        assert by_id["fig3-prefetch"].passed
        assert by_id["fig3-ordering"].passed
        assert by_id["fig5-faults"].passed
        # The tune check runs at a pinned scale, so it passes too.
        assert by_id["tune-recover"].passed
        # Engine equivalence is exact at every scale by construction.
        assert by_id["fastpath-equiv"].passed
        # The learned checks run at a pinned scale, so they pass too.
        assert by_id["learned-competitive"].passed
        assert by_id["learned-deterministic"].passed

    def test_majority_reproduced_at_tiny_scale(self, checks):
        assert sum(1 for check in checks if check.passed) >= 7


class TestClaimTable:
    """Structure of the claim table; nothing here simulates."""

    def test_claims_read_registry_experiments(self):
        for claim in CLAIMS:
            for name in claim.experiments:
                assert name in registry.EXPERIMENTS, (claim.claim_id, name)

    def test_each_experiment_runs_once(self, monkeypatch):
        calls = Counter()

        def stub(name):
            def run(scale):
                calls[name] += 1
                raise ReproError(f"stub {name}")
            return run

        monkeypatch.setattr(registry, "EXPERIMENTS",
                            {name: stub(name)
                             for name in registry.EXPERIMENTS})
        monkeypatch.setattr("repro.validation.CLAIMS",
                            tuple(c for c in CLAIMS if c.experiments))
        checks = validate_claims(scale=SCALE)
        read = {name for claim in CLAIMS for name in claim.experiments}
        assert calls == Counter({name: 1 for name in read})
        assert all(check.claim_id.endswith("-error") and not check.passed
                   for check in checks)

    def test_each_distinct_cell_executes_once(self, monkeypatch):
        """Experiments that share cells simulate each one once per call;
        the run cache behind that is removed on return."""
        from repro.experiments import common
        from repro.stats import SimStats
        from repro.sweep import executor

        runs = Counter()
        roots = set()

        def runner(cell):
            runs[cell.cache_key()] += 1
            roots.add(executor._active.cache.root)
            return SimStats()

        def experiment(names):
            def run(scale):
                common.run_settings(scale, names, [
                    ("tbn", {"prefetcher": "tbn", "eviction": "tbn"}),
                    ("sl", {"prefetcher": "sequential-local",
                            "eviction": "sequential-local"}),
                ])
                raise ReproError("stub")
            return run

        monkeypatch.setattr(common, "_local_runner", runner)
        monkeypatch.setattr(registry, "EXPERIMENTS", {
            "first": experiment(["bfs", "hotspot"]),
            "second": experiment(["hotspot", "srad"]),
        })
        monkeypatch.setattr("repro.validation.CLAIMS", tuple(
            dataclasses.replace(CLAIMS[0], claim_id=name,
                                experiments=(name,))
            for name in ("first", "second")))
        validate_claims(scale=SCALE)
        assert len(runs) == 6
        assert set(runs.values()) == {1}
        assert len(roots) == 1 and not roots.pop().exists()

    def test_bench_paper_runs_every_claimed_experiment(self):
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "benchmarks/bench_paper.py",
             "--collect-only", "-p", "no:cacheprovider"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert done.returncode == 0, done.stdout + done.stderr
        params = [line.split("[", 1)[1].rstrip("]")
                  for line in done.stdout.splitlines() if "::" in line]
        claimed = {name for claim in CLAIMS for name in claim.experiments}
        assert sorted(params) == sorted(claimed)

    def test_importing_experiments_leaves_the_registry_out(self):
        code = ("import sys, repro.experiments; "
                "print('repro.experiments.registry' in sys.modules)")
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=60, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert done.stdout.strip() == "False", done.stderr


class TestFormatReport:
    def test_report_mentions_every_claim(self, checks):
        report = format_report(checks)
        for check in checks:
            assert check.claim_id in report
        assert "claims reproduced" in report

    def test_columns_align_on_the_longest_id(self):
        report = format_report([
            ClaimCheck("x", "d", "p", "short", True),
            ClaimCheck("learned-deterministic", "d", "p", "long", False),
        ])
        lines = report.splitlines()
        assert lines[2].index("PASS") == lines[5].index("FAIL") \
            == lines[0].index("ok")
        assert lines[2].index("short") == lines[5].index("long") \
            == lines[0].index("measured")

    def test_report_marks_failures(self):
        failing = [ClaimCheck("x", "d", "p", "m", False)]
        report = format_report(failing)
        assert "FAIL" in report
        assert "0/1" in report


class TestCliValidate:
    def test_exit_code_reflects_results(self, capsys, monkeypatch):
        calls = {}

        def fake_validate(scale):
            calls["scale"] = scale
            return [ClaimCheck("x", "d", "p", "m", True)]

        monkeypatch.setattr("repro.validation.validate_claims",
                            fake_validate)
        assert main(["validate", "--scale", "0.2"]) == 0
        assert calls["scale"] == 0.2
        assert "1/1" in capsys.readouterr().out

    def test_exit_code_one_on_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "repro.validation.validate_claims",
            lambda scale: [ClaimCheck("x", "d", "p", "m", False)],
        )
        assert main(["validate"]) == 1

    @pytest.mark.parametrize("scale, message", [
        ("0", "scale must be > 0, got 0.0"),
        ("-1", "scale must be > 0, got -1.0"),
        ("nan", "scale must be finite, got nan"),
    ])
    def test_bad_scale_rejected_before_any_claim(self, scale, message,
                                                 monkeypatch, repro_cli):
        def no_claims(scale):
            raise AssertionError("a claim ran")

        monkeypatch.setattr("repro.validation.validate_claims", no_claims)
        with pytest.raises(WorkloadError, match=message):
            main(["validate", "--scale", scale])
        done = repro_cli("validate", "--scale", scale)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == f"repro: error: {message}\n"
