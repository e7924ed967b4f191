"""Pinned transition history of one shard and one coordinator.

Each job, worker and shard transition shows up in three places: a
counter, an event-log line and (on a shard with tracing on) a span or
instant of the service trace.  Two scripted histories drive every kind
of transition the service tier reports, and their canonical event lines,
canonical trace lines, counters, ``/v1/metrics`` bodies (json, prom and
state, minus the wall-clock latency samples) and ``healthz`` body must
equal the golden files under ``tests/data/transitions/``.  Those were
written by the code from before the three views shared one record, so a
refactor of how a transition is reported cannot change what is reported.
Regenerate them (``PYTHONPATH=src python tests/test_transitions.py``)
only for an intended change to the event schema, a metric or the trace.

* **Shard** (thread mode, one slot): a fake worker that holds each job
  until the script lets it go and crashes the cells it is told to.  It
  covers journal replay with a restored lease (``resumed``), submit,
  journal, coalesce, cancel, steal, lease, cache miss then hit, a failed
  run, revoke then requeue, revoke then quarantine and worker restarts.
* **Coordinator** on the fake shards of ``tests/test_cluster.py``:
  register, route, coalesce, steal, shard death on contact and on
  heartbeat silence, each followed by failover.
"""

import itertools
import json
import sys
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path

from repro.cluster.ring import HashRing
from repro.config import SimulatorConfig
from repro.errors import WorkerCrashError
from repro.obs.prom import prometheus_text
from repro.serve import supervisor
from repro.serve.api import build_cell
from repro.serve.events import (
    ServeEventLog,
    ServiceTracer,
    canonical_event_lines,
    canonical_trace_lines,
)
from repro.serve.journal import JobJournal
from repro.serve.server import SimulationService
from repro.serve.supervisor import FleetOptions
from repro.serve.worker import execute_timed
from repro.stats import FailedRun, SimStats
from repro.sweep import SweepCell

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "transitions"

#: Wall-clock samples: the latency histogram's buckets and moments.
LATENCY = "serve.service_latency_ns"
PROM_LATENCY = "serve_service_latency_ns"

#: Seeds of the scripted shard cells.
REPLAYED = (1, 2)
A, B, C, D = 10, 11, 12, 13
FLAKY, POISON = 20, 21
#: Worker crashes each cell causes before it runs cleanly.
CRASHES = {FLAKY: 1, POISON: 2}
#: The cell whose runner returns a FailedRun.
FAILING = C


def shard_cell(seed: int) -> SweepCell:
    return SweepCell(workload_spec={"name": "gemm", "scale": 0.05},
                     config=SimulatorConfig(seed=seed))


@contextmanager
def scripted_worker():
    """Fill thread-mode slots with a worker the script steps by hand:
    each ``run`` signals ``entered`` and blocks on ``gate``; a cell with
    crashes left in ``CRASHES`` raises :class:`WorkerCrashError` as a
    dying worker process would.  Yields the worker class."""
    crashes = dict(CRASHES)

    class ScriptedWorker:
        entered = threading.Semaphore(0)
        gate = threading.Semaphore(0)

        def __init__(self, runner) -> None:
            self._runner = runner

        def run(self, cell, job_timeout=0.0, heartbeat_timeout=0.0):
            self.entered.release()
            assert self.gate.acquire(timeout=30), "script stalled"
            seed = cell.config.seed
            if crashes.get(seed, 0):
                crashes[seed] -= 1
                raise WorkerCrashError(f"scripted crash of seed {seed}",
                                       worker=0)
            return execute_timed(self._runner, cell)

        def is_alive(self) -> bool:
            return True

        def heartbeat_age(self) -> float:
            return 0.0

        def kill(self) -> None:
            pass

        def stop(self, timeout: float = 2.0) -> None:
            pass

    original = supervisor.InProcessWorker
    supervisor.InProcessWorker = ScriptedWorker
    try:
        yield ScriptedWorker
    finally:
        supervisor.InProcessWorker = original


def _runner():
    """Stats for every cell, a FailedRun for ``FAILING``; a cell seen
    before is a cache hit."""
    seen: set[str] = set()

    def run(cell):
        key = cell.cache_key()
        hit = key in seen
        seen.add(key)
        if cell.config.seed == FAILING:
            return FailedRun("gemm", "SimulationError", "scripted"), hit
        stats = SimStats()
        stats.far_faults = cell.config.seed
        return stats, hit

    return run


def _metric_views(state: dict, snapshot: dict, prom: str) -> dict:
    """The three ``/v1/metrics`` bodies minus the latency samples (the
    histogram keeps its sample count)."""
    state = {name: ({"kind": value["kind"], "help": value["help"],
                     "count": value["count"]}
                    if value["kind"] == "histogram" else value)
             for name, value in state.items()}
    snapshot = {name: value for name, value in snapshot.items()
                if not name.startswith(LATENCY)
                or name == f"{LATENCY}_count"}
    prom_lines = [line for line in prom.splitlines()
                  if not line.startswith(PROM_LATENCY)
                  or line.startswith(f"{PROM_LATENCY}_count")]
    return {"state": state, "json": snapshot, "prom": prom_lines}


def shard_history(root: Path) -> dict:
    """Run the scripted shard history; returns its canonical views."""
    with scripted_worker() as worker:
        return _shard_history(root, worker)


def _shard_history(root: Path, worker) -> dict:
    journal = JobJournal(root / "journal")
    events = ServeEventLog(root / "servelog")
    tracer = ServiceTracer(workers=1)
    fleet = FleetOptions(max_attempts=2, backoff_base=0.0)

    # A previous generation journaled two jobs and died holding a lease
    # on the first: the next generation resumes both, the first with its
    # attempt restored.
    previous = SimulationService(jobs=1, journal=journal, events=events,
                                 tracer=tracer, runner=_runner(),
                                 fleet=fleet)
    first, _ = previous.admit(shard_cell(REPLAYED[0]))
    previous.admit(shard_cell(REPLAYED[1]))
    first.attempts = 1
    journal.record(first)

    service = SimulationService(jobs=1, journal=journal, events=events,
                                tracer=tracer, runner=_runner(),
                                fleet=fleet)
    assert service.start() == 2

    def hold() -> None:
        assert worker.entered.acquire(timeout=30), "dispatcher stalled"

    def let_go() -> None:
        worker.gate.release()

    hold()                                      # first replayed job
    service.admit(shard_cell(A))
    _, coalesced = service.admit(shard_cell(A))
    assert coalesced
    cancelled, _ = service.admit(shard_cell(B))
    service.admit(shard_cell(C))
    service.admit(shard_cell(D))
    service.cancel(cancelled.id)
    stolen = service.steal({"max": 1})["stolen"]
    assert [item["config"]["seed"] for item in stolen] == [D]
    for _ in range(3):                          # replayed 1, 2 and A
        let_go()
        hold()
    # C (a FailedRun) is running; queue the crashing cells and a repeat
    # of the finished A, which the runner answers from its cache.
    service.admit(shard_cell(FLAKY))
    service.admit(shard_cell(POISON))
    service.admit(shard_cell(A))
    # C; FLAKY crash, rerun; POISON crash, crash -> quarantine; A again.
    for _ in range(5):
        let_go()
        hold()
    let_go()
    assert service.drain(timeout=30)

    jobs = service.jobs()
    assert [job["state"] for job in jobs] == [
        "done", "done", "done", "cancelled", "failed", "cancelled",
        "done", "failed", "done"]
    return {
        "events": canonical_event_lines(ServeEventLog.read(
            root / "servelog")),
        "trace": canonical_trace_lines(tracer.trace_dict()),
        "metrics": {
            **_metric_views(service.metrics_state(),
                            service.metrics_snapshot(),
                            service.prometheus_metrics()),
            "health": service.health(),
            "previous_health": previous.health(),
            "previous_json": _metric_views(
                previous.metrics_state(), previous.metrics_snapshot(),
                previous.prometheus_metrics())["json"],
        },
    }


#: Where each scripted coordinator job lands: its ring owner among the
#: three shards, then its owner once ``VICTIM`` has died.  The seeds are
#: chosen to match, so a change to every cache key (a config field added
#: or removed) moves job ids but not the history.
VICTIM = "s1"
PLACEMENT = (("s0", "s0"), ("s2", "s2"), ("s1", "s2"), ("s0", "s0"),
             ("s2", "s2"), ("s2", "s2"), ("s2", "s2"), ("s0", "s0"),
             ("s1", "s0"))


def placed_seeds(ring) -> list[int]:
    """The lowest seeds whose cells land as :data:`PLACEMENT` says."""
    from tests.test_cluster import spec_for

    survivors = HashRing(seed=ring.seed, vnodes=ring.vnodes)
    for shard_id in ring.members():
        if shard_id != VICTIM:
            survivors.add_shard(shard_id)
    seeds: list[int] = []
    candidates = itertools.count()
    for want in PLACEMENT:
        for seed in candidates:
            key = build_cell(spec_for(seed)).cache_key()
            if (ring.owner(key), survivors.owner(key)) == want:
                seeds.append(seed)
                break
    return seeds


def coordinator_history(root: Path) -> dict:
    """Run the scripted coordinator history; returns its views."""
    from tests.test_cluster import FakeCluster, spec_for

    events = ServeEventLog(root / "clusterlog")
    cluster = FakeCluster(count=3, auto_done=False, steal_threshold=2,
                          steal_batch=2, events=events)
    coordinator = cluster.coordinator
    seeds = placed_seeds(coordinator.registry.ring)
    routed = [coordinator.submit(spec_for(seed)) for seed in seeds]
    assert [job["shard"] for job in routed] == \
        [owner for owner, _ in PLACEMENT]
    assert coordinator.submit(spec_for(seeds[0]))["coalesced"] is True
    by_shard: dict[str, list[dict]] = {}
    for job in routed:
        by_shard.setdefault(job["shard"], []).append(job)
    donor = max(sorted(by_shard), key=lambda shard: len(by_shard[shard]))
    assert len(by_shard[donor]) >= 2
    for shard_id in sorted(cluster.shards):
        depth = len(by_shard.get(shard_id, [])) if shard_id == donor \
            else 0
        coordinator.heartbeat({"id": shard_id, "queue_depth": depth,
                               "running": 0})
    assert coordinator.rebalance() >= 1

    # One job finishes and one is cancelled before any shard dies.
    finished, doomed = routed[0], routed[1]
    owner = cluster.shards[coordinator.status(finished["id"])["shard"]]
    remote = coordinator.status(finished["id"])["remote_id"]
    owner.jobs[remote]["state"] = "done"
    assert coordinator.status(finished["id"])["state"] == "done"
    coordinator.cancel(doomed["id"])

    # Death on contact: touching a job on a dead shard fails it over.
    victim = coordinator.status(routed[2]["id"])["shard"]
    assert victim == VICTIM
    cluster.shards[victim].dead = True
    coordinator.status(routed[2]["id"])
    # Death on silence: every shard but one goes quiet.
    alive = [shard.id for shard in coordinator.registry.alive()]
    keeper = sorted(alive)[0]
    for shard_id in alive:
        if shard_id != keeper:
            cluster.shards[shard_id].dead = True
    coordinator.registry.get(keeper).last_heartbeat = 1e9
    coordinator.reap(now=1e9)
    assert [shard.id for shard in coordinator.registry.alive()] == [keeper]

    return {
        "events": canonical_event_lines(ServeEventLog.read(
            root / "clusterlog")),
        "metrics": {
            "json": coordinator.metrics.snapshot(),
            "prom": prometheus_text(coordinator.metrics).splitlines(),
            "health": coordinator.health(),
            "jobs": coordinator.jobs(),
        },
    }


def write_transitions(root: Path) -> dict[str, str]:
    """Every pinned view, keyed by golden file name."""
    shard = shard_history(root / "shard")
    coordinator = coordinator_history(root / "coordinator")
    files = {}
    for prefix, views in (("shard", shard),
                          ("coordinator", coordinator)):
        for name, view in views.items():
            if isinstance(view, list):
                text = "".join(line + "\n" for line in view)
                files[f"{prefix}-{name}.txt"] = text
            else:
                files[f"{prefix}-{name}.json"] = \
                    json.dumps(view, indent=1, sort_keys=True) + "\n"
    return files


def test_transitions_match_the_golden_files(tmp_path):
    files = write_transitions(tmp_path)
    assert sorted(files) == sorted(p.name for p in GOLDEN.iterdir())
    for name, text in files.items():
        assert text == (GOLDEN / name).read_text(encoding="utf-8"), name


def test_shard_trace_validates():
    from repro.obs import validate_chrome_trace

    with scripted_worker() as worker:
        service = SimulationService(
            jobs=1, runner=_runner(), tracer=ServiceTracer(workers=1),
            fleet=FleetOptions(max_attempts=2, backoff_base=0.0))
        service.start()
        for seed in (A, FLAKY, POISON):
            service.admit(shard_cell(seed))
        for _ in range(5):  # A; FLAKY crash + rerun; POISON twice
            assert worker.entered.acquire(timeout=30)
            worker.gate.release()
        assert service.drain(timeout=30)
    assert validate_chrome_trace(service.trace()) == []


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))  # for tests.test_cluster
    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.mkdir(parents=True, exist_ok=True)
        for name, text in write_transitions(Path(scratch)).items():
            (GOLDEN / name).write_text(text, encoding="utf-8")
            print(f"wrote {GOLDEN / name}", file=sys.stderr)
