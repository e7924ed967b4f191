"""Golden digests for every eviction policy under pressure.

Each policy in ``EVICTION_REGISTRY`` runs two inputs at 115%
over-subscription with TBNp kept on under pressure: ``hotspot`` at scale
0.1 and a cyclic scan that re-reads its footprint six times.  The
SHA-256 of ``SimStats.to_json()`` is pinned per (input, policy).

The perfbench digests only cover the policies its cells evict with;
these pins catch a refactor of any policy's bookkeeping or victim
selection that moves a single counter.  They are
a behaviour contract: re-record them only for a deliberate model change,
and say so in the change log.

Every pin of that matrix prefetches with TBNp, so none of them would
notice a non-tree prefetcher's planned pages reaching TBNe's buddy
trees.  ``TREE_PATHS`` pins the other ways pages reach or leave the
trees: non-tree prefetchers, threshold pre-eviction outside a batch, the
on-demand fallback behind a closed prefetch gate, retried and degraded
migrations, and the user-prefetch and host-invalidation paths.
"""

import hashlib

import pytest

from repro.config import oversubscribed
from repro.core.evict import EVICTION_REGISTRY
from repro.experiments.common import combo_config
from repro.faultinject import FaultProfile
from repro.runtime import UvmRuntime
from repro.workloads import make_workload
from repro.workloads.base import AddressResolver
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


def _run_with_host_calls(runtime: UvmRuntime, workload):
    """Run ``workload`` with a ``cudaMemPrefetchAsync`` of one allocation
    before every third kernel and a host read or write of another after
    every odd one."""
    names = []
    for spec in workload.allocations():
        runtime.malloc_managed(spec.name, spec.size_bytes)
        names.append(spec.name)
    resolver = AddressResolver(runtime.simulator.allocator)
    for index, kernel in enumerate(workload.kernel_specs(resolver)):
        if index % 3 == 0:
            runtime.mem_prefetch_async(names[index % len(names)])
        runtime.launch_kernel(kernel)
        if index % 2:
            runtime.cpu_access(names[(index + 1) % len(names)],
                               is_write=index % 4 == 1)
    runtime.device_synchronize()
    return runtime.stats


def _run(runtime: UvmRuntime, workload):
    return runtime.run_workload(workload)


def _bfs():
    return make_workload("bfs", scale=0.2)


#: label -> (input, prefetcher, eviction, over-subscription %, config
#: overrides, run).
TREE_PATHS = {
    "none+tbn": (INPUTS["hotspot"], "none", "tbn", PERCENT, {}, _run),
    "sequential-local+adaptive": (INPUTS["hotspot"], "sequential-local",
                                  "adaptive", PERCENT, {}, _run),
    "zheng512+tbn": (INPUTS["hotspot"], "zheng512", "tbn", PERCENT, {},
                     _run),
    "random+tbn": (INPUTS["hotspot"], "random", "tbn", PERCENT, {}, _run),
    "tbn+tbn-free-page-buffer": (
        INPUTS["hotspot"], "tbn", "tbn", PERCENT,
        {"free_page_buffer_fraction": 0.1}, _run),
    "tbn+tbn-gate-closed": (
        INPUTS["hotspot"], "tbn", "tbn", PERCENT,
        {"disable_prefetch_on_oversubscription": True}, _run),
    "tbn+tbn-faults": (
        _bfs, "tbn", "tbn", 125.0,
        {"fault_profile": FaultProfile(
            transfer_fault_rate=0.2, fault_drop_rate=0.05,
            degrade_after_failures=3, seed=3)}, _run),
    "tbn+tbn-host-calls": (INPUTS["hotspot"], "tbn", "tbn", PERCENT, {},
                           _run_with_host_calls),
}

TREE_GOLDEN = {
    "none+tbn":
        "f734793312f0f05c3f02a95e0c22ac4fdee6745063d3787bb9c87e211fbaab77",
    "sequential-local+adaptive":
        "0689ad22b383af3c00904ed7870b2efa066127dbb862038b8686ae07a6ce91ae",
    "zheng512+tbn":
        "d154d7ec7f73f74f94e4559cdb64326b75fc7e77217cb75cf22881109a62645a",
    "random+tbn":
        "6c2a5da7bce1a965ffd8123a86ced784ec6ffaaa8f99c6fdc0a9bcff84ec7a58",
    "tbn+tbn-free-page-buffer":
        "54c32c4541d866a4790e08fc8ce7c11ffe025be541fe4c892c22cde893957579",
    "tbn+tbn-gate-closed":
        "0ba8b093c3c8aff9fe0b3acaad03afe46b9725d934daf89be22aab739bfd9fbd",
    "tbn+tbn-faults":
        "bdf9dce8066eecd574f1866c27527396b24820d27bf9812016d99db3f099feca",
    "tbn+tbn-host-calls":
        "ec85b739824af31d43d4f97548415d551a149eadbb9058b279963fd4593aaf12",
}

#: Input name of the ``TREE_PATHS`` cells in the parametrized test.
TREE_INPUT = "tree-paths"


def _cell(input_name: str, name: str):
    """(input, prefetcher, eviction, percent, overrides, run) of a pin."""
    if input_name == TREE_INPUT:
        return TREE_PATHS[name]
    return INPUTS[input_name], PREFETCHER, name, PERCENT, {}, _run


def _digest(input_name: str, name: str) -> str:
    make, prefetcher, eviction, percent, overrides, run = \
        _cell(input_name, name)
    workload = make()
    config = oversubscribed(
        workload.footprint_bytes, percent,
        num_sms=4, prefetcher=prefetcher, eviction=eviction,
        **{"disable_prefetch_on_oversubscription": False, **overrides},
    )
    stats = run(UvmRuntime(config), workload)
    return hashlib.sha256(stats.to_json().encode()).hexdigest()


def _golden(input_name: str, name: str) -> str:
    if input_name == TREE_INPUT:
        return TREE_GOLDEN[name]
    return GOLDEN[(input_name, name)]


def test_every_registered_policy_is_pinned():
    assert {ev for _, ev in GOLDEN} == set(EVICTION_REGISTRY)
    assert {name for name, _ in GOLDEN} == set(INPUTS)
    assert set(TREE_GOLDEN) == set(TREE_PATHS)


def test_adaptive_switch_fires_on_both_inputs():
    """The pins exercise adaptive's throttle: were its cascade never
    switched off, it would replay TBNe exactly."""
    for input_name in INPUTS:
        assert GOLDEN[(input_name, "adaptive")] != \
            GOLDEN[(input_name, "tbn")]


@pytest.mark.parametrize(
    "input_name,name",
    sorted(GOLDEN) + [(TREE_INPUT, label) for label in sorted(TREE_GOLDEN)])
def test_golden_digest(input_name, name):
    assert _digest(input_name, name) == _golden(input_name, name)


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
