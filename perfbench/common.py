"""Shared helpers: locating the sources, clocks, quantiles, digests.

The benchmark drives the simulator only through its public entry points
(``make_workload``, ``UvmRuntime``, ``repro.experiments``,
``repro.sweep``, ``repro serve``), so the only coupling to the package is
that ``src/`` sits next to this directory.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Checkout root (the directory holding ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for run caches, service state and span dumps.
WORK = ROOT / ".perfbench"
DIGESTS = Path(__file__).resolve().parent / "digests.json"


#: Seconds :func:`calibrate` takes on the nominal host.  Host times are
#: reported in nominal seconds (see NOTES.md, "Host speed").
NOMINAL_CAL_S = 0.010


def calibrate() -> float:
    """Time a fixed loop of heap, dict and random-number traffic, the kind
    of interpreter work the simulator's event loop does, and which no
    change to the program can speed up or slow down; returns seconds."""
    rng = random.Random(7)
    heap: list = []
    table: dict = {}
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(12000):
            heapq.heappush(heap, (rng.random(), i))
            table[i & 1023] = table.get(i & 1023, 0) + 1
            if len(heap) > 256:
                heapq.heappop(heap)
        return time.perf_counter() - start
    finally:
        gc.enable()


class HostClock:
    """Converts measured seconds to nominal seconds.

    On a host shared with other tenants, the same code runs up to 40%
    slower for seconds to minutes at a time.  Timed units
    are bracketed by calls to :meth:`tick`; :meth:`local` is the nominal
    to observed calibration ratio around the last unit, by which its
    measured seconds are scaled.
    """

    def __init__(self) -> None:
        #: The last two calibration times (seconds).
        self.samples: list[float] = []

    def tick(self) -> None:
        """Collect the garbage the last unit left, so each unit starts
        from the same collector state, then run one calibration."""
        gc.collect()
        self.samples = self.samples[-1:] + [calibrate()]

    def local(self) -> float:
        """Scale factor for the unit timed between the last two ticks."""
        return 2 * NOMINAL_CAL_S / sum(self.samples)

    def bracket(self, measure):
        """Tick, call ``measure()`` (returning measured seconds), tick;
        returns the nominal seconds."""
        self.tick()
        seconds = measure()
        self.tick()
        return seconds * self.local()


#: What a simulation command imports before it can run anything.
MODULES = ("repro.experiments.common", "repro.runtime")


def import_repro() -> None:
    """Put ``src/`` on the path and import the package.

    Raises ``SystemExit(2)`` when the sources are missing, so a copy of
    the benchmark without the program fails loudly and prints no result.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for module in MODULES:
        importlib.import_module(module)


def import_seconds(clock: HostClock, repeats: int) -> float:
    """Median nominal seconds for a fresh interpreter to import the
    package (interpreter start included, as for any ``repro`` command)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def once() -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import " + ", ".join(MODULES)],
                       env=env, cwd=ROOT, check=True)
        return time.perf_counter() - start

    return quantile([clock.bracket(once) for _ in range(repeats)], 0.5)


def quantile(values: list[float], q: float) -> float:
    """Inclusive-method quantile (``q`` in (0, 1)); the median for 0.5."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())


def digest_matches(stats_json: str, expected: str) -> bool:
    """The correctness check: SHA-256 of ``SimStats.to_json()``."""
    return sha256(stats_json) == expected


def retired_accesses(stats) -> int:
    """Warp accesses retired, from the counters of one run.

    Every issue is one TLB lookup; a lookup that far-faults (new fault or
    MSHR merge) blocks the warp and is replayed, so it retires nothing.
    Exact for runs without a fault-injection profile.
    """
    return (stats.tlb_hits + stats.tlb_misses
            - stats.far_faults - stats.mshr_merges)


def peak_rss_mb() -> float:
    """Peak resident set of this process, MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` and its children, MB."""
    total = 0.0
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            status = Path(f"/proc/{current}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total += int(line.split()[1]) / 1024.0
        task_dir = Path(f"/proc/{current}/task")
        try:
            tasks = list(task_dir.iterdir())
        except OSError:
            tasks = []
        for task in tasks:
            try:
                children = (task / "children").read_text().split()
            except OSError:
                continue
            pending.extend(int(child) for child in children)
    return total


def work_dir(name: str) -> Path:
    """A fresh per-process scratch directory under :data:`WORK`."""
    path = WORK / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=False)
    return path


class Outcome:
    """Operations attempted and failed in one workload run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: False when a run-level check (not one operation) failed.
        self.valid = True

    def check(self, ok: bool, what: str) -> None:
        """Count one operation; a false ``ok`` counts it as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
