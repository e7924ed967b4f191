"""Bench: every table and figure of the paper's evaluation that has claims.

One test per experiment of ``repro.experiments.registry`` that a claim of
``repro.validation`` reads.  Each runs its experiment once under
pytest-benchmark timing at ``REPRO_BENCH_SCALE``, writes
``results/<name>.txt`` as ``repro experiment <name> --out results`` does,
and asserts the claims that name the experiment first, reporting each
failure with its measured value.  A claim that also reads another
experiment takes that experiment's result from its own test.
"""

import pytest

from repro.experiments.registry import EXPERIMENTS, write_result
from repro.validation import CLAIMS, check_claim

from conftest import RESULTS_DIR, SCALE

#: Registry names that some claim reads, in the registry's order.
NAMES = [name for name in EXPERIMENTS
         if any(name in claim.experiments for claim in CLAIMS)]

_results = {}


def _result_of(name):
    if name not in _results:
        _results[name] = EXPERIMENTS[name](SCALE)
    return _results[name]


@pytest.mark.parametrize("name", NAMES)
def test_paper_claims(benchmark, name):
    _results[name] = benchmark.pedantic(EXPERIMENTS[name], args=(SCALE,),
                                        rounds=1, iterations=1)
    write_result(name, _results[name], RESULTS_DIR)
    checks = [check_claim(claim, _result_of, SCALE) for claim in CLAIMS
              if claim.experiments[:1] == (name,)]
    failed = [f"{c.claim_id}: {c.measured}" for c in checks if not c.passed]
    assert not failed, "; ".join(failed)
