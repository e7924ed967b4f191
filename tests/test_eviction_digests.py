"""Golden digests for every eviction policy under pressure.

Each policy in ``EVICTION_REGISTRY`` runs two inputs at 115%
over-subscription with TBNp kept on under pressure: ``hotspot`` at scale
0.1 and a cyclic scan that re-reads its footprint six times.  The
SHA-256 of ``SimStats.to_json()`` is pinned per (input, policy) and must
be the same on both engines wherever the pairing allows the fast one.

The fast-vs-reference differential cannot see a behaviour change both
engines share, and the perfbench digests only cover the policies its
cells evict with; these pins catch a refactor of any policy's
bookkeeping or victim selection that moves a single counter.  They are
a behaviour contract: re-record them only for a deliberate model change,
and say so in the change log.
"""

import hashlib

import pytest

from repro.config import oversubscribed
from repro.core.evict import EVICTION_REGISTRY
from repro.experiments.common import combo_config
from repro.policy.registry import pair_supports_fastpath
from repro.runtime import UvmRuntime
from repro.workloads import make_workload
from repro.workloads.synthetic import CyclicScanWorkload

PREFETCHER = "tbn"
PERCENT = 115.0

INPUTS = {
    "hotspot": lambda: make_workload("hotspot", scale=0.1),
    "cyclic": lambda: CyclicScanWorkload(pages=640, iterations=6),
}

GOLDEN = {
    ("hotspot", "adaptive"):
        "03c725a59ae0a0c40efed96af9bbbd5ee9d2ec54b6a26333106464f01d56dd98",
    ("hotspot", "bandit"):
        "de391e225b368a318629df9bd1da6f2e8444985023b0a9a9a21503bab4fa589f",
    ("hotspot", "logistic"):
        "17a52550c41d4269040f4ec510fb15cb348ab18426b0a348c607b62ff20bab0a",
    ("hotspot", "lru2mb"):
        "6669cb83b3d53a6f7b50f5cc4f087845033e4acd13001f6ee865f3fd2c2d594e",
    ("hotspot", "lru4k"):
        "4186024ecc1c693cf7dbdd5314bf703182a352961194ab2af64dcf2661db44f4",
    ("hotspot", "lru4k-validated"):
        "9be54a8ca92fa4a5e1f592438e3abe8c0b215ac55aea5335dc0d5cb1808f69a2",
    ("hotspot", "random"):
        "405519a178235a40a6e62d86ee93e3da3758cd3887deddeb67f592fb38be6c72",
    ("hotspot", "sequential-local"):
        "5992972b299e2795faa35070f72048b908c4fbf16189305459c724a236956333",
    ("hotspot", "tbn"):
        "0583307041d5d5b7961847ffc743a4e93e4c3f3ed0c76f6baef0649afde09d4b",
    ("cyclic", "adaptive"):
        "794609e9da40e2742d42b6748899ba8fca391f1a1c44cd366a8325134d3e71d1",
    ("cyclic", "bandit"):
        "f9d8a12d36a9568bd3c02bef8ae73a918e7755ec74b8111ba8387cff80703100",
    ("cyclic", "logistic"):
        "d4234577ecb9fc91e7eea1574c613ec39ac79609f13d7cd1a39a9081bc353e12",
    ("cyclic", "lru2mb"):
        "9cdf09d7aa74e0f252b8ad25a90a37d5c3d64087d44d9eec09e3e4a5c5250b1e",
    ("cyclic", "lru4k"):
        "1fec301badc4f949ca695219519ff84356ec2d10dcc12cce858666b7b988f6ed",
    ("cyclic", "lru4k-validated"):
        "1fec301badc4f949ca695219519ff84356ec2d10dcc12cce858666b7b988f6ed",
    ("cyclic", "random"):
        "620366285c578303588fc70f0c42d64762147ca69fd6c0094b05d4fc1d4d2d83",
    ("cyclic", "sequential-local"):
        "a2959a04b84b528bcb61e5ef934f3bd971597619949b87457eac072918f6bd1c",
    ("cyclic", "tbn"):
        "f9d8a12d36a9568bd3c02bef8ae73a918e7755ec74b8111ba8387cff80703100",
}


def _digest(input_name: str, eviction: str, engine: str) -> str:
    workload = INPUTS[input_name]()
    config = oversubscribed(
        workload.footprint_bytes, PERCENT,
        num_sms=4, prefetcher=PREFETCHER, eviction=eviction, engine=engine,
        disable_prefetch_on_oversubscription=False,
    )
    stats = UvmRuntime(config).run_workload(workload)
    return hashlib.sha256(stats.to_json().encode()).hexdigest()


def test_every_registered_policy_is_pinned():
    assert {ev for _, ev in GOLDEN} == set(EVICTION_REGISTRY)
    assert {name for name, _ in GOLDEN} == set(INPUTS)


def test_adaptive_switch_fires_on_both_inputs():
    """The pins exercise adaptive's throttle: were its cascade never
    switched off, it would replay TBNe exactly."""
    for input_name in INPUTS:
        assert GOLDEN[(input_name, "adaptive")] != \
            GOLDEN[(input_name, "tbn")]


@pytest.mark.parametrize("input_name,eviction", sorted(GOLDEN))
def test_golden_digest(input_name, eviction):
    engines = ["reference"]
    if pair_supports_fastpath(PREFETCHER, eviction):
        engines.append("fast")
    for engine in engines:
        assert _digest(input_name, eviction, engine) == \
            GOLDEN[(input_name, eviction)], engine


def test_logistic_score_is_summation_order_free():
    """The logistic evictor's score must not depend on the order its
    products are summed in: a left-to-right ``sum`` moves this cell's
    digest while every pin above stays put."""
    workload = make_workload("bfs", scale=0.2)
    config = combo_config(workload, "ngram", "logistic",
                          oversubscription_percent=150.0,
                          prefetch_under_pressure=True)
    stats = UvmRuntime(config).run_workload(workload)
    assert hashlib.sha256(stats.to_json().encode()).hexdigest() == \
        "ffe8a51b5f40a0a2aa2f78641961183420403216cf61b890762ba00b16810ddc"
