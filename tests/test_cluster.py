"""Tests for the multi-host cluster tier (`repro.cluster`).

Unmarked tests run in the tier-1 suite: the seeded hash ring
(cross-process determinism, minimal disruption), the shard registry
under an injected clock, cluster fault profiles, histogram merging,
and the coordinator's routing/coalescing/failover/stealing logic
against fake in-memory shard clients.  The ``serve``-marked class
boots a real coordinator + shard HTTP stack in-process; the
``cluster``-marked class runs the full chaos harness with shard
*subprocesses* and a mid-wave SIGKILL.
"""

import json
import subprocess
import sys
import itertools
import pathlib

import pytest

from repro.cluster.ring import HashRing
from repro.cluster.registry import ShardRegistry
from repro.cluster.coordinator import ClusterCoordinator
from repro.errors import (
    ConfigurationError,
    NoShardAvailableError,
    ServeClientError,
    ShardNotFoundError,
)
from repro.faultinject import CLUSTER_PROFILES, ClusterFaultProfile
from repro.obs.metrics import Histogram
from repro.serve.api import build_cell

KEYS = [f"key-{i:04d}" for i in range(400)]


# --- hash ring ---------------------------------------------------------------

class TestHashRing:
    def make(self, members=("a", "b", "c"), seed=7, vnodes=32):
        ring = HashRing(seed=seed, vnodes=vnodes)
        for member in members:
            ring.add_shard(member)
        return ring

    def test_deterministic_across_insertion_order(self):
        forward = self.make(members=["a", "b", "c"])
        backward = self.make(members=["c", "b", "a"])
        assert forward.assignment(KEYS) == backward.assignment(KEYS)

    def test_deterministic_across_processes(self):
        """Same seed, same members -> byte-identical assignment even in
        a fresh interpreter (no reliance on PYTHONHASHSEED)."""
        local = self.make()
        script = (
            "import json, sys\n"
            "from repro.cluster.ring import HashRing\n"
            "ring = HashRing(seed=7, vnodes=32)\n"
            "for m in ('a', 'b', 'c'):\n"
            "    ring.add_shard(m)\n"
            "keys = [f'key-{i:04d}' for i in range(400)]\n"
            "json.dump(ring.assignment(keys), sys.stdout,"
            " sort_keys=True)\n"
        )
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True,
            text=True, check=True, env={"PYTHONPATH": str(src),
                                        "PYTHONHASHSEED": "random"},
        ).stdout
        remote = json.loads(out)
        assert remote == local.assignment(KEYS)

    def test_seed_changes_assignment(self):
        a = self.make(seed=1).assignment(KEYS)
        b = self.make(seed=2).assignment(KEYS)
        assert a != b

    def test_minimal_disruption_on_removal(self):
        """Removing one of N shards re-homes exactly the keys it owned
        (~1/N of the corpus); every other key keeps its owner."""
        members = [f"s{i}" for i in range(5)]
        ring = self.make(members=members)
        before = ring.assignment(KEYS)
        victim = "s2"
        owned = {key for key, owner in before.items()
                 if owner == victim}
        ring.remove_shard(victim)
        after = ring.assignment(KEYS)
        moved = {key for key in KEYS if before[key] != after[key]}
        assert moved == owned
        # Roughly 1/5 of the corpus, not everything and not nothing.
        assert 0.05 < len(moved) / len(KEYS) < 0.45

    def test_rejoin_restores_assignment(self):
        ring = self.make()
        before = ring.assignment(KEYS)
        ring.remove_shard("b")
        ring.add_shard("b")
        assert ring.assignment(KEYS) == before

    def test_empty_ring_raises(self):
        ring = HashRing(seed=0)
        with pytest.raises(NoShardAvailableError):
            ring.owner("anything")

    def test_membership_helpers(self):
        ring = self.make()
        assert len(ring) == 3
        assert "a" in ring and "z" not in ring
        assert ring.members() == ["a", "b", "c"]
        ring.add_shard("a")  # idempotent
        assert len(ring) == 3

    def test_vnodes_validated(self):
        with pytest.raises(ValueError):
            HashRing(vnodes=0)


# --- shard registry ----------------------------------------------------------

class FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestShardRegistry:
    def make(self, timeout=5.0):
        clock = FakeClock()
        registry = ShardRegistry(seed=0, vnodes=16,
                                 heartbeat_timeout=timeout,
                                 clock=clock)
        return registry, clock

    def test_register_and_route(self):
        registry, _ = self.make()
        registry.register("s0", "127.0.0.1", 1000)
        registry.register("s1", "127.0.0.1", 1001)
        shard = registry.route("some-key")
        assert shard.id in ("s0", "s1")
        assert shard.alive

    def test_heartbeat_unknown_shard_raises(self):
        registry, _ = self.make()
        with pytest.raises(ShardNotFoundError):
            registry.heartbeat("ghost")

    def test_reap_on_silence(self):
        registry, clock = self.make(timeout=5.0)
        registry.register("s0", "127.0.0.1", 1000)
        registry.register("s1", "127.0.0.1", 1001)
        clock.advance(3.0)
        registry.heartbeat("s1")
        clock.advance(3.0)   # s0 silent for 6s, s1 for 3s
        reaped = registry.reap()
        assert [shard.id for shard in reaped] == ["s0"]
        assert [shard.id for shard in registry.alive()] == ["s1"]
        assert "s0" not in registry.ring
        # Reaping again is a no-op: only *newly* dead shards return.
        assert registry.reap() == []

    def test_heartbeat_after_reap_rejoins(self):
        registry, clock = self.make(timeout=1.0)
        registry.register("s0", "127.0.0.1", 1000)
        clock.advance(2.0)
        assert [s.id for s in registry.reap()] == ["s0"]
        registry.heartbeat("s0", queue_depth=2, running=1)
        shard = registry.get("s0")
        assert shard.alive
        assert shard.queue_depth == 2
        assert "s0" in registry.ring

    def test_reregistration_updates_address(self):
        registry, _ = self.make()
        registry.register("s0", "127.0.0.1", 1000)
        generation = registry.generation
        registry.register("s0", "10.0.0.9", 2000, workers=4)
        shard = registry.get("s0")
        assert (shard.host, shard.port, shard.workers) == \
            ("10.0.0.9", 2000, 4)
        assert registry.generation > generation

    def test_mark_dead_reroutes_keyspace(self):
        registry, _ = self.make()
        registry.register("s0", "127.0.0.1", 1000)
        registry.register("s1", "127.0.0.1", 1001)
        key = "victim-key"
        owner = registry.route(key).id
        registry.mark_dead(owner)
        assert registry.route(key).id != owner


# --- cluster fault profiles --------------------------------------------------

class TestClusterFaultProfile:
    """Spec loading is shared by every profile shape and tested once,
    in ``tests/test_faultinject.py::TestProfileLoad``."""

    def test_named_profiles(self):
        assert CLUSTER_PROFILES["shard-kill"].kill_shards == 1
        assert CLUSTER_PROFILES["none"].injects_anything is False
        assert set(CLUSTER_PROFILES) == {
            "none", "shard-kill", "heartbeat-stall", "ring-churn",
            "mixed"}

    def test_inline_key_value(self):
        profile = ClusterFaultProfile.load(
            "kill_shards=2,kill_after_jobs=1,seed=9")
        assert profile.kill_shards == 2
        assert profile.kill_after_jobs == 1
        assert profile.seed == 9

    def test_json_file(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"stall_heartbeats": 1}))
        assert ClusterFaultProfile.load(str(path)).stall_heartbeats == 1

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterFaultProfile.load("explode=1")

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterFaultProfile(kill_shards=-1)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterFaultProfile.load("not-a-profile")

    def test_seed_override(self):
        assert ClusterFaultProfile.load("shard-kill", seed=5).seed == 5


# --- histogram merging -------------------------------------------------------

class TestHistogramMerge:
    def test_merge_equals_single_observer(self):
        """Merged shard histograms == one histogram that saw all
        samples: same counts, sum, min/max, and quantiles."""
        bounds = [10.0, 100.0, 1000.0]
        parts = [Histogram("h", bounds=bounds) for _ in range(3)]
        reference = Histogram("h", bounds=bounds)
        samples = [5, 50, 500, 5000, 7, 70, 700, 42, 99, 1001]
        for index, value in enumerate(samples):
            parts[index % 3].observe(value)
            reference.observe(value)
        merged = Histogram.merge([part.state_dict() for part in parts])
        assert merged.counts == reference.counts
        assert merged.count == reference.count
        assert merged.sum == reference.sum
        assert merged.min == reference.min
        assert merged.max == reference.max
        for q in (0.5, 0.95, 0.99):
            assert merged.quantile(q) == reference.quantile(q)

    def test_merge_accepts_live_instances(self):
        one = Histogram("h", bounds=[1.0])
        one.observe(0.5)
        merged = Histogram.merge([one])
        assert merged.count == 1

    def test_merge_empty_list(self):
        assert Histogram.merge([]).count == 0

    def test_merge_skips_nothing_on_empty_part(self):
        bounds = [1.0, 2.0]
        full = Histogram("h", bounds=bounds)
        full.observe(1.5)
        empty = Histogram("h", bounds=bounds)
        merged = Histogram.merge([full, empty])
        assert merged.count == 1
        assert merged.min == 1.5

    def test_mixed_bucket_ladders_rejected(self):
        a = Histogram("h", bounds=[1.0])
        b = Histogram("h", bounds=[2.0])
        with pytest.raises(ValueError):
            Histogram.merge([a, b])


# --- coordinator with fake shard clients -------------------------------------

def spec_for(seed, name="hotspot", scale=0.12):
    return {"workload": {"name": name, "scale": scale},
            "config": {"prefetcher": "tbn", "eviction": "lru4k",
                       "seed": seed}}


class FakeShardServer:
    """In-memory stand-in for one `repro serve` daemon: accepts the
    subset of the ServeClient surface the coordinator uses."""

    def __init__(self, shard_id, auto_done=True):
        self.id = shard_id
        self.auto_done = auto_done
        self.dead = False
        self.jobs = {}
        self.order = []
        self._seq = itertools.count(1)

    # The coordinator's client_factory returns `self` for this shard.
    def _check(self):
        if self.dead:
            raise ServeClientError(
                f"cannot reach shard {self.id}", status=0)

    def submit(self, workload, config=None, seed=None):
        self._check()
        spec = {"workload": workload, "config": config}
        if seed is not None:
            spec["seed"] = seed
        key = build_cell(spec).cache_key()
        remote_id = f"{self.id}-j{next(self._seq)}"
        self.jobs[remote_id] = {
            "id": remote_id, "key": key, "spec": spec,
            "state": "done" if self.auto_done else "queued",
            "cache_hit": False,
        }
        self.order.append(remote_id)
        return {"id": remote_id, "state": self.jobs[remote_id]["state"]}

    def status(self, remote_id):
        self._check()
        job = self.jobs[remote_id]
        return {"id": remote_id, "state": job["state"],
                "cache_hit": job["cache_hit"]}

    def result(self, remote_id):
        self._check()
        job = self.jobs[remote_id]
        return {"id": remote_id, "state": job["state"],
                "cache_hit": job["cache_hit"],
                "result": {"kind": "stats",
                           "stats": {"executed_on": self.id}}}

    def cancel(self, remote_id):
        self._check()
        self.jobs[remote_id]["state"] = "cancelled"
        return {"id": remote_id, "state": "cancelled"}

    def steal(self, max_jobs):
        self._check()
        stolen = []
        queued = [remote_id for remote_id in self.order
                  if self.jobs[remote_id]["state"] == "queued"]
        for remote_id in reversed(queued[-max_jobs:]):
            job = self.jobs[remote_id]
            job["state"] = "cancelled"
            config = dict(job["spec"]["config"] or {})
            if job["spec"].get("seed") is not None:
                config["seed"] = job["spec"]["seed"]
            stolen.append({
                "id": remote_id, "key": job["key"],
                "workload": job["spec"]["workload"],
                "config": config,
            })
        return stolen

    def metrics_state(self):
        self._check()
        return {}


class FakeCluster:
    """A coordinator wired to fake shards via client_factory."""

    def __init__(self, count=2, auto_done=True, **kwargs):
        self.shards = {}
        by_port = {}
        for index in range(count):
            shard = FakeShardServer(f"s{index}", auto_done=auto_done)
            self.shards[shard.id] = shard
            by_port[9000 + index] = shard
        self.coordinator = ClusterCoordinator(
            seed=1, vnodes=16,
            client_factory=lambda host, port: by_port[port],
            **kwargs)
        for index, shard_id in enumerate(sorted(self.shards)):
            self.coordinator.register(
                {"id": shard_id, "host": "fake",
                 "port": 9000 + index, "workers": 1})


class TestCoordinatorRouting:
    def test_routing_is_sticky_per_key(self):
        cluster = FakeCluster()
        coordinator = cluster.coordinator
        first = coordinator.submit(spec_for(1))
        # Drain it so the second submit is a fresh route, not coalesce.
        coordinator.status(first["id"])
        second = coordinator.submit(spec_for(1))
        assert second["coalesced"] is False
        assert second["shard"] == first["shard"]

    def test_distinct_keys_spread(self):
        cluster = FakeCluster()
        owners = {cluster.coordinator.submit(spec_for(seed))["shard"]
                  for seed in range(12)}
        assert owners == {"s0", "s1"}

    def test_cluster_level_coalescing(self):
        cluster = FakeCluster(auto_done=False)
        coordinator = cluster.coordinator
        first = coordinator.submit(spec_for(1))
        second = coordinator.submit(spec_for(1))
        assert second["coalesced"] is True
        assert second["id"] == first["id"]
        shard = cluster.shards[first["shard"]]
        assert len(shard.jobs) == 1  # one proxied request, not two
        snapshot = coordinator.metrics.snapshot()
        assert snapshot["cluster.jobs_coalesced"] == 1

    def test_status_and_result_rewritten(self):
        cluster = FakeCluster()
        coordinator = cluster.coordinator
        job = coordinator.submit(spec_for(3))
        status = coordinator.status(job["id"])
        assert status["id"] == job["id"]
        assert status["shard"] == job["shard"]
        result = coordinator.result(job["id"])
        assert result["id"] == job["id"]
        assert result["result"]["stats"]["executed_on"] == job["shard"]

    def test_invalid_spec_rejected_before_routing(self):
        cluster = FakeCluster()
        from repro.errors import InvalidJobError
        with pytest.raises(InvalidJobError):
            cluster.coordinator.submit({"workload": {"name": "nope"}})
        assert all(not shard.jobs
                   for shard in cluster.shards.values())


class TestCoordinatorFailover:
    def test_dead_shard_fails_jobs_over(self):
        cluster = FakeCluster(auto_done=False)
        coordinator = cluster.coordinator
        job = coordinator.submit(spec_for(1))
        victim = job["shard"]
        survivor = ({"s0", "s1"} - {victim}).pop()
        cluster.shards[victim].dead = True
        # Touching the job discovers the death and re-routes it.
        status = coordinator.status(job["id"])
        status = coordinator.status(job["id"])
        assert status["shard"] == survivor
        assert not coordinator.registry.get(victim).alive
        snapshot = coordinator.metrics.snapshot()
        assert snapshot["cluster.jobs_failed_over"] == 1
        assert snapshot["cluster.shards_dead"] == 1

    def test_cached_result_survives_shard_death(self):
        cluster = FakeCluster()
        coordinator = cluster.coordinator
        job = coordinator.submit(spec_for(2))
        coordinator.status(job["id"])  # terminal -> result cached
        cluster.shards[job["shard"]].dead = True
        result = coordinator.result(job["id"])
        assert result["state"] == "done"
        assert result["shard"] == job["shard"]

    def test_all_shards_dead_raises(self):
        cluster = FakeCluster()
        for shard in cluster.shards.values():
            shard.dead = True
        cluster.coordinator.reap(now=1e9)
        with pytest.raises(NoShardAvailableError):
            cluster.coordinator.submit(spec_for(1))

    def test_reap_fails_over_silent_shard(self):
        cluster = FakeCluster(auto_done=False)
        coordinator = cluster.coordinator
        job = coordinator.submit(spec_for(1))
        victim = job["shard"]
        cluster.shards[victim].dead = True
        # Heartbeat the survivor far in the future; the victim times
        # out and its job is re-routed by the maintenance path.
        survivor = ({"s0", "s1"} - {victim}).pop()
        coordinator.registry.get(survivor).last_heartbeat = 1e9
        reaped = coordinator.reap(now=1e9)
        assert reaped == [victim]
        assert coordinator.status(job["id"])["shard"] == survivor


class TestCoordinatorStealing:
    def test_rebalance_moves_queued_jobs(self):
        cluster = FakeCluster(auto_done=False,
                              steal_threshold=2, steal_batch=2)
        coordinator = cluster.coordinator
        # Submit distinct jobs until at least two queue on s0.
        seed = 0
        routed = []
        while len(routed) < 2:
            coordinator.submit(spec_for(seed))
            seed += 1
            routed = [job for job in coordinator.jobs()
                      if job["shard"] == "s0"]
        # Heartbeats: s0 overloaded, s1 idle.
        coordinator.heartbeat({"id": "s0", "queue_depth": len(routed),
                               "running": 0})
        coordinator.heartbeat({"id": "s1", "queue_depth": 0,
                               "running": 0})
        moved = coordinator.rebalance()
        assert moved >= 1
        snapshot = coordinator.metrics.snapshot()
        assert snapshot["cluster.jobs_stolen"] == moved
        stolen = [job for job in coordinator.jobs()
                  if job["steals"] > 0]
        assert len(stolen) == moved
        assert all(job["shard"] == "s1" for job in stolen)
        # No duplicate terminal handles: ids unique, every job mapped.
        ids = [job["id"] for job in coordinator.jobs()]
        assert len(ids) == len(set(ids))

    def test_no_steal_without_idle_receiver(self):
        cluster = FakeCluster(auto_done=False, steal_threshold=1)
        coordinator = cluster.coordinator
        coordinator.submit(spec_for(1))
        coordinator.heartbeat({"id": "s0", "queue_depth": 5,
                               "running": 1})
        coordinator.heartbeat({"id": "s1", "queue_depth": 5,
                               "running": 1})
        assert coordinator.rebalance() == 0


# --- end-to-end over HTTP ----------------------------------------------------

@pytest.mark.serve
class TestClusterHTTP:
    """Coordinator + two real thread-mode shard daemons, all
    in-process, talked to exclusively over HTTP."""

    @pytest.fixture()
    def cluster(self, tmp_path):
        from repro.cluster import coordinator_server
        from repro.cluster.agent import ShardAgent
        from repro.serve.client import ServeClient
        from repro.serve.server import SimulationService, shard_server
        from repro.sweep import RunCache

        coordinator = ClusterCoordinator(
            seed=1, heartbeat_timeout=5.0, steal_threshold=2)
        server = coordinator_server(coordinator)
        server.start_background()
        url = f"http://{server.host}:{server.port}"
        shards = []
        for index in range(2):
            service = SimulationService(
                jobs=1, worker_mode="thread",
                cache=RunCache(tmp_path / f"cache{index}"),
                queue_limit=16)
            daemon = shard_server(service)
            daemon.start_background()
            service.start()
            agent = ShardAgent(
                service, url, advertise_host=daemon.host,
                advertise_port=daemon.port,
                shard_id=f"s{index}", interval=0.2)
            agent.start()
            shards.append((service, daemon, agent))
        client = ServeClient.from_url(url, timeout=60.0)
        # Both shards registered synchronously in agent.start().
        assert len(coordinator.registry.alive()) == 2
        try:
            yield url, client, coordinator
        finally:
            for service, daemon, agent in shards:
                agent.stop()
                service.drain(timeout=10.0)
                daemon.shutdown()
                daemon.close()
            server.shutdown()
            server.close()

    def test_lifecycle_parity_and_warm_hit(self, cluster):
        from repro.sweep import decode_result, execute_cell

        url, client, coordinator = cluster
        spec = {"name": "hotspot", "scale": 0.05}
        outcomes = {}
        for seed in (1, 2, 3):
            job = client.submit(spec, seed=seed)
            assert job["id"].startswith("c")
            outcomes[seed] = client.wait(job["id"], timeout=60.0)
        assert all(out["state"] == "done"
                   for out in outcomes.values())
        # Byte-parity: the routed result equals a local run.
        for seed, out in outcomes.items():
            local, _ = execute_cell(
                build_cell({"workload": spec, "seed": seed}),
                cache=None)
            remote = decode_result(out["result"])
            assert remote.to_json_dict() == local.to_json_dict()
        # Warm repeat: same key -> same shard -> cache hit.
        job = client.submit(spec, seed=1)
        out = client.wait(job["id"], timeout=60.0)
        assert out["cache_hit"] is True

    def test_cluster_metrics_and_prom_labels(self, cluster):
        url, client, coordinator = cluster
        job = client.submit({"name": "hotspot", "scale": 0.05}, seed=9)
        client.wait(job["id"], timeout=60.0)
        metrics = client.cluster_metrics()
        assert metrics["coordinator"]["cluster.jobs_routed"] >= 1
        assert metrics["merged"]["serve.jobs_submitted"] >= 1
        assert set(metrics["shards"]) == {"s0", "s1"}
        prom = client.cluster_metrics_prom()
        assert 'shard="s0"' in prom
        assert 'shard="s1"' in prom
        assert "cluster_jobs_routed" in prom

    def test_cluster_shards_and_ring_lookup(self, cluster):
        url, client, coordinator = cluster
        table = client.cluster_shards()
        assert [s["id"] for s in table["shards"]] == ["s0", "s1"]
        assert all(s["state"] == "alive" for s in table["shards"])
        answer = client._request("GET", "/v1/cluster/ring?key=abc")
        assert answer["shard"] in ("s0", "s1")

    def test_cluster_top_renders(self, cluster):
        from repro.loadgen import fetch_cluster_top

        url, client, coordinator = cluster
        frame = fetch_cluster_top(url, timeout=30.0)
        assert "repro cluster @" in frame
        assert "s0" in frame and "s1" in frame
        assert "routing:" in frame

    def test_loadgen_cluster_section(self, cluster):
        from repro.loadgen import LoadgenPlan, run_loadgen

        url, client, coordinator = cluster
        plan = LoadgenPlan(seed=3, duration=1.0, rate=4.0,
                           concurrency=2, scale=0.05, distinct=2,
                           pattern="unique", timeout=60.0)
        report = run_loadgen(plan, client=client, cluster=True)
        section = report["measured"]["cluster"]
        assert section["shards_alive"] == 2
        assert section["jobs_routed"] >= 1
        assert section["jobs_failed_over"] == 0
        assert sum(section["shard_jobs_submitted"].values()) >= \
            section["jobs_routed"]


def wire_body(payload: dict) -> bytes:
    """The exact bytes the service tier sends for a JSON payload."""
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def error_body(kind: str, message: str) -> bytes:
    return wire_body({"error": {"type": kind, "message": message}})


@pytest.mark.serve
class TestCoordinatorHttpContract:
    """Status codes, headers and bodies of the coordinator's HTTP API,
    pinned byte for byte.  The coordinator starts with no shards; the
    409 case registers one fake shard (``client_factory``) over HTTP."""

    @pytest.fixture()
    def coordinator_port(self):
        from repro.cluster import coordinator_server

        fake = FakeShardServer("s0")
        coordinator = ClusterCoordinator(
            seed=1, client_factory=lambda host, port: fake)
        server = coordinator_server(coordinator)
        server.start_background()
        try:
            yield server.port
        finally:
            server.shutdown()
            server.close()

    def test_unknown_routes_are_404(self, coordinator_port, raw_http):
        for method, path, message in (
                ("GET", "/nope", "no such route: /nope"),
                ("GET", "/v1/nope", "no such route: GET /v1/nope"),
                ("DELETE", "/v1/jobs",
                 "no such route: DELETE /v1/jobs"),
                ("POST", "/v1/cluster/shards",
                 "no such route: POST /v1/cluster/shards")):
            status, headers, body = raw_http(coordinator_port, method,
                                             path)
            assert status == 404, path
            assert headers["Content-Type"] == "application/json"
            assert body == error_body("JobNotFoundError", message)

    def test_unknown_metrics_format_is_400(self, coordinator_port,
                                           raw_http):
        for path in ("/v1/metrics?format=xml",
                     "/v1/cluster/metrics?format=xml"):
            status, _, body = raw_http(coordinator_port, "GET", path)
            assert status == 400, path
            assert body == error_body(
                "InvalidJobError",
                "unknown metrics format 'xml'; expected json or prom")
        status, headers, body = raw_http(
            coordinator_port, "GET", "/v1/metrics?format=prom")
        assert status == 200
        assert headers["Content-Type"] == \
            "text/plain; version=0.0.4; charset=utf-8"
        assert b"cluster_jobs_routed" in body

    def test_ring_lookup_needs_a_key(self, coordinator_port, raw_http):
        status, _, body = raw_http(coordinator_port, "GET",
                                   "/v1/cluster/ring")
        assert status == 400
        assert body == error_body("InvalidJobError",
                                  "ring lookup needs a ?key= parameter")

    def test_invalid_spec_is_400(self, coordinator_port, raw_http):
        status, _, body = raw_http(coordinator_port, "POST", "/v1/jobs",
                                   {"workload": "hotspot", "bogus": 1})
        assert status == 400
        assert body == error_body("InvalidJobError",
                                  "unknown job-spec fields: bogus")
        status, _, body = raw_http(coordinator_port, "POST", "/v1/jobs")
        assert status == 400
        assert body == error_body("InvalidJobError",
                                  "request body must be JSON")

    @pytest.mark.parametrize("bad", ["abc", [1]])
    @pytest.mark.parametrize("path, field", [
        ("/v1/cluster/register", "port"),
        ("/v1/cluster/register", "workers"),
        ("/v1/cluster/heartbeat", "queue_depth"),
        ("/v1/cluster/heartbeat", "running"),
    ])
    def test_non_integer_membership_field_is_400(
            self, coordinator_port, raw_http, path, field, bad):
        body = {"id": "s0", "host": "fake", "port": 9000, field: bad}
        status, _, answer = raw_http(coordinator_port, "POST", path, body)
        assert status == 400
        assert answer == error_body(
            "InvalidJobError", f"{field!r} must be an integer, got {bad!r}")

    def test_no_live_shard_is_503_with_retry_after(
            self, coordinator_port, raw_http):
        status, headers, body = raw_http(coordinator_port, "POST",
                                         "/v1/jobs", spec_for(1))
        assert status == 503
        assert headers["Retry-After"] == "5"
        assert json.loads(body)["error"]["type"] == \
            "NoShardAvailableError"

    def test_unknown_job_is_404(self, coordinator_port, raw_http):
        for method, path in (("GET", "/v1/jobs/nope/result"),
                             ("GET", "/v1/jobs/nope"),
                             ("DELETE", "/v1/jobs/nope")):
            status, _, body = raw_http(coordinator_port, method, path)
            assert status == 404, path
            assert body == error_body("JobNotFoundError",
                                      "no such cluster job: nope")

    def test_cancelling_a_terminal_job_is_409(self, coordinator_port,
                                              raw_http):
        status, _, body = raw_http(
            coordinator_port, "POST", "/v1/cluster/register",
            {"id": "s0", "host": "fake", "port": 9000})
        assert status == 200
        assert json.loads(body)["id"] == "s0"
        status, _, body = raw_http(coordinator_port, "POST", "/v1/jobs",
                                   spec_for(1))
        assert status == 202
        job_id = json.loads(body)["id"]
        # The fake shard finishes on submit: one status poll caches the
        # terminal result at the coordinator.
        status, _, body = raw_http(coordinator_port, "GET",
                                   f"/v1/jobs/{job_id}")
        assert status == 200 and json.loads(body)["state"] == "done"
        status, _, body = raw_http(coordinator_port, "DELETE",
                                   f"/v1/jobs/{job_id}")
        assert status == 409
        assert body == error_body(
            "JobStateError", f"job {job_id} is already terminal (done)")
        status, _, body = raw_http(coordinator_port, "GET",
                                   f"/v1/jobs/{job_id}/result")
        assert status == 200
        assert json.loads(body)["shard"] == "s0"


@pytest.mark.serve
class TestCliCluster:
    """`repro cluster` as users run it: boot line, health, SIGTERM."""

    def test_boots_reports_coordinator_and_stops_on_sigterm(
            self, serve_daemon, raw_http):
        daemon = serve_daemon("--no-events", command="cluster")
        status, _, body = raw_http(daemon.port, "GET", "/v1/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["role"] == "coordinator"
        assert health["status"] == "no-shards"
        assert daemon.terminate(timeout=30) == 0, daemon.stderr()
        assert "[cluster] stopped; 0 shard(s) were alive" in \
            daemon.stderr().splitlines()


# --- full chaos harness (subprocess shards) ----------------------------------

@pytest.mark.cluster
class TestClusterChaos:
    def test_shard_kill_invariants(self, tmp_path):
        from repro.chaos import run_chaos

        report = run_chaos(
            workloads=["hotspot"], scale=0.05, seeds=[1, 2, 3, 4],
            profile="shard-kill", cluster=True, shards=3,
            workers_per_shard=1, deadline=180.0,
            root_dir=tmp_path / "chaos")
        assert report.violations == []
        assert report.ok
        assert report.shards_killed == 1
        assert report.jobs_done == report.jobs_total
        assert report.parity_checked > 0
        assert report.warm_hit_rate >= 0.9
        # The victim is declared dead in /v1/cluster/shards.
        [victim] = report.victims
        assert report.shard_states[victim] == "dead"
        assert report.metrics["cluster.shards_dead"] >= 1

    def test_none_profile_clean_run(self, tmp_path):
        from repro.chaos import run_chaos

        report = run_chaos(
            workloads=["hotspot"], scale=0.05, seeds=[1, 2],
            profile="none", cluster=True, shards=2,
            workers_per_shard=1, deadline=120.0,
            root_dir=tmp_path / "chaos")
        assert report.ok
        assert report.shards_killed == 0
