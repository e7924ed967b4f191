"""Tests for the claim-validation module and its CLI command."""

import pytest

from repro.cli import main
from repro.errors import WorkloadError
from repro.validation import ClaimCheck, format_report, validate_claims

#: Tiny scale keeps this fast; some scale-sensitive claims may not hold
#: down here, so structural properties are what these tests check.
SCALE = 0.15


@pytest.fixture(scope="module")
def checks():
    return validate_claims(scale=SCALE)


class TestValidateClaims:
    def test_covers_all_claim_ids(self, checks):
        ids = [check.claim_id for check in checks]
        assert ids == [
            "table1", "fig3-prefetch", "fig3-ordering", "fig5-faults",
            "fig6-oversub", "fig6-buffer", "fig11-combos",
            "fig13-scaling", "fig15-2mb", "fig16-thrash",
            "tune-recover", "fastpath-equiv",
            "learned-competitive", "learned-deterministic",
        ]

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


class TestFormatReport:
    def test_report_mentions_every_claim(self, checks):
        report = format_report(checks)
        for check in checks:
            assert check.claim_id in report
        assert "claims reproduced" in report

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
