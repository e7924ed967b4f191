"""The ``serve-zipf`` workload: an open-loop zipf trace against ``repro serve``.

One daemon with one process worker and fresh cache, journal and event
directories.  The trace draws each request's catalog rank from a zipf
law seeded by ``--seed``; requests are sent on a fixed schedule
(``RATE`` per second) whatever the service does, and each request's
latency runs from the moment it was *due*, so a stall shows in every
request it delays.  Two threads, one connection each: the sender, and a
poller that asks for every outstanding job once per ``TICK``.

Every served result is compared byte for byte with the in-process
``execute_cell`` result of the same cell.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import (
    ROOT,
    SRC,
    HostClock,
    Outcome,
    proc_peak_rss_mb,
    quantile,
    retired_accesses,
    work_dir,
)

#: Distinct catalog entries and the zipf exponent over their ranks:
#: about a quarter of the requests are first occurrences (executions).
CATALOG_SIZE = 96
ZIPF_S = 1.0
#: Open-loop arrival rate (requests per second), below saturation.
RATE = 25.0
#: Poll period of the completion poller (seconds): far below the miss
#: latency, yet few enough requests not to load the two cores the
#: daemon, its worker and this process share.
TICK = 0.005
#: Workload families the catalog cycles through (name, scale).  Both
#: execute in about 10-15 ms, so misses keep the worker far below
#: saturation even while first occurrences cluster early.
FAMILIES = (("bfs", 0.08), ("gemm", 0.08))
#: In-process reference passes over the requested cells.
PASSES = 2
ENGINES = ("reference", "fast")
#: A request still outstanding this long after the last one was due
#: counts as timed out.
DRAIN_TIMEOUT = 60.0
TERMINAL = ("done", "failed", "cancelled")


def catalog() -> list[dict]:
    """Job specs by rank: TBNe+TBNp at 110%, both engines, distinct seeds."""
    from repro.experiments.common import combo_config
    from repro.workloads.registry import make_workload

    specs = []
    for rank in range(CATALOG_SIZE):
        name, scale = FAMILIES[rank % len(FAMILIES)]
        engine = ENGINES[(rank // len(FAMILIES)) % len(ENGINES)]
        workload = make_workload(name, scale=scale)
        config = combo_config(workload, "tbn", "tbn", 110.0,
                              prefetch_under_pressure=True, engine=engine)
        specs.append({"workload": {"name": name, "scale": scale},
                      "config": config.to_dict(), "seed": rank})
    return specs


def schedule(seed: int, count: int) -> list[int]:
    """Catalog rank of each request, zipf-distributed (rank 0 hottest)."""
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(CATALOG_SIZE)]
    return random.Random(seed).choices(range(CATALOG_SIZE),
                                       weights=weights, k=count)


def call(port: int, method: str, path: str, body: dict | None = None,
         timeout: float = 30.0) -> tuple[int, dict]:
    """One request on a fresh connection, as ``ServeClient`` sends it."""
    payload = None if body is None else json.dumps(body).encode("utf-8")
    headers = {"Content-Type": "application/json"} if payload else {}
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=timeout)
    try:
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        raw = response.read()
        return response.status, (json.loads(raw) if raw else {})
    finally:
        connection.close()


# ------------------------------------------------------------ the daemon
class Daemon:
    """One ``repro serve`` process with its own state directories."""

    def __init__(self, state: Path, clock: HostClock) -> None:
        self.state = state
        state.mkdir(parents=True)
        self.log = state / "serve.log"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        clock.tick()
        start = time.perf_counter()
        with self.log.open("w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--jobs", "1", "--worker-mode", "process",
                 "--cache-dir", str(state / "cache"),
                 "--journal-dir", str(state / "journal"),
                 "--events-dir", str(state / "events")],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=log)
        try:
            self.port = self._wait_port()
            self._wait_healthy()
            self.warmup_job = self._warm_worker()
        except BaseException:
            self.stop()
            raise
        measured = time.perf_counter() - start
        clock.tick()
        #: Nominal seconds from spawn to a served warm-up job.
        self.setup_s = measured * clock.local()

    def _wait_port(self) -> int:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            match = re.search(r"listening on http://[^:]+:(\d+)",
                              self.log.read_text())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError(f"repro serve did not start: "
                           f"{self.log.read_text()[-500:]}")

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + 30.0
        while True:
            try:
                status, _ = call(self.port, "GET", "/v1/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve never answered /v1/healthz")
            time.sleep(0.002)

    def _warm_worker(self) -> str:
        """Run one job outside the catalog: the worker process is spawned
        lazily by the first job, a cost paid once per daemon."""
        status, job = call(self.port, "POST", "/v1/jobs", {
            "workload": {"name": "gemm", "scale": 0.05}, "seed": 10 ** 6})
        if status != 202:
            raise RuntimeError(f"warm-up job refused: {status} {job}")
        deadline = time.monotonic() + 60.0
        while call(self.port, "GET", f"/v1/jobs/{job['id']}")[1] \
                .get("state") not in TERMINAL:
            if time.monotonic() > deadline:
                raise RuntimeError("warm-up job never finished")
            time.sleep(0.002)
        return job["id"]

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def events(self) -> list[dict]:
        records = []
        for path in sorted((self.state / "events").glob("events*.jsonl")):
            records.extend(json.loads(line)
                           for line in path.read_text().splitlines()
                           if line.strip())
        return records

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()


# ---------------------------------------------------------- verification
def reference_pass(specs: list[dict], ranks: list[int], outcome: Outcome,
                   scratch: Path, clock: HostClock, recorder=None) -> dict:
    """Run each distinct cell in-process via ``execute_cell``, against a
    fresh run cache (a miss), then once more (a hit).

    Returns the expected ``to_json()`` per rank and the pass's timings in
    nominal seconds (``clock`` calibrates between cells).
    """
    from repro.serve.api import build_cell
    from repro.sweep import RunCache, execute_cell

    cache = RunCache(scratch)
    expected: dict[int, str] = {}
    #: rank -> (engine, retired accesses, nominal execute seconds)
    cells: dict[int, tuple[str, int, float]] = {}
    wall = raw_wall = 0.0
    clock.tick()
    for rank in sorted(set(ranks)):
        start = time.perf_counter()
        cell = build_cell(specs[rank])
        engine = cell.config.engine
        if recorder is None:
            result, _ = execute_cell(cell, cache)
            executed = time.perf_counter() - start
            again, hit = execute_cell(cell, cache)
        else:
            with recorder.span("bench:cell", cell=f"rank{rank}"):
                result, _ = execute_cell(cell, cache)
                executed = time.perf_counter() - start
                again, hit = execute_cell(cell, cache)
        expected[rank] = result.to_json()
        outcome.check(hit and again.to_json() == expected[rank],
                      f"rank {rank}: cached result differs from executed")
        total = time.perf_counter() - start
        clock.tick()
        cells[rank] = (engine, retired_accesses(result),
                       executed * clock.local())
        raw_wall += total
        wall += total * clock.local()
    return {"expected": expected, "cells": cells, "wall": wall,
            "raw_wall": raw_wall}


# ------------------------------------------------------------- the load
class OpenLoop:
    """Sends ``ranks`` at ``RATE`` and records due→terminal latency."""

    def __init__(self, port: int, specs: list[dict],
                 ranks: list[int]) -> None:
        self.port = port
        self.specs = specs
        self.ranks = ranks
        n = len(ranks)
        self.due = [0.0] * n
        self.lag_ms = [0.0] * n
        self.submit_ms = [0.0] * n
        self.job: list[str | None] = [None] * n
        self.done_at: list[float | None] = [None] * n
        self.error: list[str | None] = [None] * n
        self.coalesced = 0
        self._lock = threading.Lock()
        #: job id -> indices of the requests waiting on it
        self._outstanding: dict[str, list[int]] = {}
        self._sent_all = threading.Event()

    def _poll(self) -> None:
        deadline = None
        while True:
            with self._lock:
                waiting = list(self._outstanding)
            if not waiting and self._sent_all.is_set():
                return
            if self._sent_all.is_set():
                deadline = deadline or time.perf_counter() + DRAIN_TIMEOUT
                if time.perf_counter() > deadline:
                    return
            for job_id in waiting:
                try:
                    status, body = call(self.port, "GET",
                                        f"/v1/jobs/{job_id}")
                except OSError as exc:
                    status, body = 0, {"error": str(exc)}
                if status == 200 and body.get("state") not in TERMINAL:
                    continue
                now = time.perf_counter()
                with self._lock:
                    for index in self._outstanding.pop(job_id, []):
                        self.done_at[index] = now
                        if status != 200 or body["state"] != "done":
                            self.error[index] = f"job {job_id}: {body}"
            time.sleep(TICK)

    def run(self) -> None:
        poller = threading.Thread(target=self._poll, name="perfbench-poll")
        poller.start()
        clock = time.perf_counter
        t0 = clock() + 0.1
        try:
            for index, rank in enumerate(self.ranks):
                due = t0 + index / RATE
                self.due[index] = due
                wait = due - clock()
                if wait > 0:
                    time.sleep(wait)
                sent = clock()
                self.lag_ms[index] = (sent - due) * 1e3
                try:
                    status, body = call(self.port, "POST", "/v1/jobs",
                                        self.specs[rank])
                except OSError as exc:
                    status, body = 0, {"error": str(exc)}
                self.submit_ms[index] = (clock() - sent) * 1e3
                if status != 202:
                    self.error[index] = f"submit refused: {status} {body}"
                    continue
                self.coalesced += bool(body.get("coalesced"))
                self.job[index] = body["id"]
                with self._lock:
                    self._outstanding.setdefault(body["id"], []).append(index)
        finally:
            self._sent_all.set()
            poller.join()
        for index, done in enumerate(self.done_at):
            if done is None and self.error[index] is None:
                self.error[index] = "timed out"

    def latencies_ms(self) -> list[float]:
        return [(done - due) * 1e3
                for done, due, error in zip(self.done_at, self.due,
                                            self.error)
                if error is None]


def served_results(loop: OpenLoop) -> dict[str, str | None]:
    """Job id -> the served stats, decoded and re-serialized."""
    from repro.stats import SimStats

    served: dict[str, str | None] = {}
    for job_id in {job for job in loop.job if job is not None}:
        status, body = call(loop.port, "GET", f"/v1/jobs/{job_id}/result")
        result = body.get("result", {}) if status == 200 else {}
        served[job_id] = SimStats.from_json_dict(result["stats"]).to_json() \
            if result.get("kind") == "stats" else None
    return served


def check_results(loop: OpenLoop, served: dict[str, str | None],
                  expected: dict[int, str], outcome: Outcome) -> None:
    """Every request must have been served the in-process bytes."""
    for index, rank in enumerate(loop.ranks):
        job_id = loop.job[index]
        ok = loop.error[index] is None \
            and served.get(job_id) == expected[rank]
        outcome.check(ok, loop.error[index]
                      or f"request {index}: served result differs")


def event_phases(events: list[dict], skip: set[str]) -> dict[str, float]:
    """Median service phases per job from the daemon's event log (ms)."""
    first: dict[str, dict[str, float]] = {}
    hits = misses = 0
    for event in events:
        job = event.get("job")
        if job is None or job in skip:
            continue
        first.setdefault(job, {}).setdefault(event["kind"], event["ts"])
        hits += event["kind"] == "cache_hit"
        misses += event["kind"] == "cache_miss"

    def median_gap(a: str, b: str) -> float:
        gaps = [(marks[b] - marks[a]) * 1e3 for marks in first.values()
                if a in marks and b in marks]
        return quantile(gaps, 0.5) if gaps else 0.0

    return {
        "serve.queue_wait_ms": median_gap("submitted", "leased"),
        "serve.dispatch_ms": median_gap("leased", "executing"),
        "serve.execute_ms": median_gap("executing", "terminal"),
        "serve.cache_hit_rate": hits / (hits + misses)
        if hits + misses else 0.0,
    }


def run(seed: int, seconds: float, quick: bool, outcome: Outcome,
        clock: HostClock, recorder=None) -> dict:
    """The whole workload; returns measured figures for ``run.py``."""
    scratch = work_dir("serve")
    daemons: list[Daemon] = []
    try:
        specs = catalog()
        # The load phase takes about 55% of the measuring time.
        count = max(20, int(RATE * seconds * (0.25 if quick else 0.55)))
        ranks = schedule(seed, count)
        # Set up several times; the last daemon serves the load.
        spawns = 1 if quick else 3
        for index in range(spawns):
            daemons.append(Daemon(scratch / f"daemon-{index}", clock))
            if index < spawns - 1:
                daemons[-1].stop()
        daemon = daemons[-1]
        loop = OpenLoop(daemon.port, specs, ranks)
        loop.run()
        served = served_results(loop)
        rss = daemon.peak_rss_mb()
        phases = event_phases(daemon.events(), {daemon.warmup_job})
        daemon.stop()
        # The in-process reference runs only after the load, so their
        # garbage cannot pause the sender or the poller.
        passes = [reference_pass(specs, ranks, outcome,
                                 scratch / f"pass-{index}", clock)
                  for index in range(1 if quick else PASSES)]
        for other in passes[1:]:
            outcome.check(other["expected"] == passes[0]["expected"],
                          "reference passes disagree")
        if recorder is not None:
            from tracing import instrument
            with instrument(recorder):
                passes.append(reference_pass(specs, ranks, outcome,
                                             scratch / "pass-traced", clock,
                                             recorder))
        check_results(loop, served, passes[0]["expected"], outcome)
        accepted = sum(job is not None for job in loop.job)
        return {
            "setup_s": quantile([d.setup_s for d in daemons], 0.5),
            "latency_ms": loop.latencies_ms(),
            "lag_ms": loop.lag_ms,
            "submit_ms": loop.submit_ms,
            "coalesce_rate": loop.coalesced / accepted if accepted else 0.0,
            "phases": phases,
            "passes": passes,
            "peak_rss_mb": rss,
        }
    finally:
        for daemon in daemons:
            daemon.stop()
        shutil.rmtree(scratch, ignore_errors=True)
