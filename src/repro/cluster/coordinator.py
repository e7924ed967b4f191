"""The cluster coordinator: routing, work-stealing, failover.

``repro cluster`` runs one :class:`ClusterCoordinator` behind the
service tier's one HTTP daemon (:func:`coordinator_server`).  The
coordinator speaks the *same* ``/v1/jobs`` API as a single ``repro
serve`` shard — through the same route table, bound to this class's
``submit``/``jobs``/``status``/``result``/``cancel``/``health`` — so
:class:`~repro.serve.client.ServeClient`,
``repro submit``, and ``repro loadgen`` work unchanged against either;
pointing them at the coordinator just makes the answer come from
whichever shard owns the job's cache key.

Responsibilities, in the order a job meets them:

1. **Routing.**  Every submission is validated locally
   (:func:`~repro.serve.api.build_cell`) and routed by its content
   hash over the :class:`~repro.cluster.ring.HashRing`, so identical
   submissions land on the same shard and coalesce there exactly as
   they would on a single server.  The coordinator additionally
   coalesces by key itself, so a thundering herd costs one proxied
   request, not N.
2. **Correlation.**  The coordinator mints its own job ids
   (``c<seq>-<key12>``) and keeps the ``coordinator id -> (shard,
   remote id)`` mapping; every proxied answer is rewritten to the
   coordinator id and annotated with the owning ``shard``, so one id
   follows the job across steals and failovers.
3. **Work-stealing.**  A shard whose heartbeat reports a queue deeper
   than ``steal_threshold`` while another shard sits idle gets up to
   ``steal_batch`` queued jobs revoked (``POST /v1/steal`` — the
   shard-side lease-revocation primitive) and re-leased on the idle
   shard.  Running jobs are never moved; the mapping is updated so
   clients never notice.
4. **Failover.**  Dead-on-silence (missed heartbeats) or
   dead-on-contact (connection refused) shards are removed from the
   ring and every non-terminal job mapped to them is resubmitted to
   the key's new owner.  Results already cached at the coordinator
   survive their shard: a terminal answer is fetched once and served
   from coordinator memory forever after.

Terminal results are at-least-once: a shard SIGKILLed mid-run gets its
jobs re-executed elsewhere, which is safe because simulations are
deterministic (byte-identical stats) and each coordinator id still
reaches exactly one terminal state from the client's point of view.
"""

from __future__ import annotations

import itertools
import sys
import threading
from dataclasses import dataclass, field

from .. import __version__
from ..errors import (
    BackpressureError,
    ClusterError,
    InvalidJobError,
    JobNotFoundError,
    JobStateError,
    NoShardAvailableError,
    QueueFullError,
    ServeClientError,
)
from ..obs.metrics import (
    Histogram,
    MetricsRegistry,
    labeled_name,
    parse_labeled_name,
)
from ..obs.prom import prometheus_text
from ..serve.api import (
    ApiServer,
    build_cell,
    job_routes,
    make_handler,
    metrics_route,
)
from ..serve.client import ServeClient
from ..serve.events import ServeEventLog, TransitionRecorder
from ..serve.queue import TERMINAL_STATES
from ..sweep import encode_result
from .registry import DEFAULT_HEARTBEAT_TIMEOUT, ShardInfo, ShardRegistry

#: Heartbeat-reported queue depth at which a shard becomes a donor.
DEFAULT_STEAL_THRESHOLD = 4
#: Most jobs moved per donor per rebalance pass.
DEFAULT_STEAL_BATCH = 4
#: Maintenance loop period (reap -> failover -> rebalance), seconds.
DEFAULT_TICK = 0.5

#: The coordinator's kind table: transition record kind -> the counter
#: it bumps.
COORDINATOR_COUNTERS = {
    "routed": ("cluster.jobs_routed", "submissions proxied to a shard"),
    "stolen": ("cluster.jobs_stolen",
               "queued jobs moved from a loaded shard to an idle one"),
    "failover": ("cluster.jobs_failed_over",
                 "jobs resubmitted after their shard died"),
    "shard_joined": ("cluster.shards_registered",
                     "shard register calls (joins and rejoins)"),
    "shard_dead": ("cluster.shards_dead",
                   "shards declared dead (silence or refused connection)"),
}


def _default_client_factory(host: str, port: int) -> ServeClient:
    """Coordinator-side shard client: fail fast, never retry 429s
    (backpressure must propagate to the submitting client, who owns
    the retry policy)."""
    return ServeClient(host=host, port=port, timeout=10.0,
                       backpressure_retries=0, connect_retries=0)


def _int_field(payload: dict, name: str, default: int | None = None) -> int:
    """One integer field of a membership body; 400 when it is not one."""
    value = payload.get(name, default)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise InvalidJobError(
            f"{name!r} must be an integer, got {value!r}") from None


@dataclass
class RoutedJob:
    """One cluster-visible job and where it currently lives."""

    id: str
    seq: int
    #: The cell's :meth:`SweepCell.to_dict` form (bound workload spec,
    #: full config), re-submittable verbatim.
    spec: dict
    key: str
    shard_id: str
    remote_id: str
    #: Last state observed from the owning shard.
    state: str = "queued"
    #: Cached terminal result payload (coordinator id already in it);
    #: once set, the shard is never consulted again for this job.
    result: dict | None = None
    cache_hit: bool | None = None
    failovers: int = 0
    steals: int = 0
    coalesced_hits: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def is_terminal(self) -> bool:
        return self.result is not None

    def status_dict(self) -> dict:
        """The coordinator's own view (no shard round-trip)."""
        workload = self.spec["workload"]
        return {
            "id": self.id,
            "state": self.state,
            "workload": workload["name"],
            "workload_spec": workload,
            "seq": self.seq,
            "key": self.key,
            "cache_hit": self.cache_hit,
            "shard": self.shard_id,
            "remote_id": self.remote_id,
            "failovers": self.failovers,
            "steals": self.steals,
        }


class ClusterCoordinator:
    """Routing/stealing/failover brain over a :class:`ShardRegistry`."""

    def __init__(self, seed: int = 0, vnodes: int = 64,
                 heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
                 steal_threshold: int = DEFAULT_STEAL_THRESHOLD,
                 steal_batch: int = DEFAULT_STEAL_BATCH,
                 events: ServeEventLog | None = None,
                 verbose: bool = False,
                 client_factory=None) -> None:
        if steal_threshold < 1:
            raise ClusterError(
                f"steal_threshold must be >= 1, got {steal_threshold}"
            )
        if steal_batch < 1:
            raise ClusterError(
                f"steal_batch must be >= 1, got {steal_batch}"
            )
        self.registry = ShardRegistry(
            seed=seed, vnodes=vnodes,
            heartbeat_timeout=heartbeat_timeout)
        self.steal_threshold = steal_threshold
        self.steal_batch = steal_batch
        self.verbose = verbose
        self._client_factory = client_factory or _default_client_factory

        self._lock = threading.RLock()
        self._jobs: dict[str, RoutedJob] = {}
        #: key -> active (non-terminal) routed job; cluster coalescing.
        self._active_by_key: dict[str, RoutedJob] = {}
        self._seq = itertools.count(1)

        metrics = MetricsRegistry()
        self.metrics = metrics
        self._record = TransitionRecorder(
            metrics, COORDINATOR_COUNTERS, events=events).record
        self._m_coalesced = metrics.counter(
            "cluster.jobs_coalesced",
            "submissions answered by an active identical cluster job")
        self._m_heartbeats = metrics.counter(
            "cluster.heartbeats", "shard heartbeats received")
        self._g_alive = metrics.gauge(
            "cluster.shards_alive", "live shards on the ring")
        self._g_depth = metrics.gauge(
            "cluster.queue_depth",
            "summed queue depth across live shards (last heartbeats)")

        self._maint_stop: threading.Event | None = None
        self._maint_thread: threading.Thread | None = None

    # --- plumbing ----------------------------------------------------------
    def _client(self, shard: ShardInfo) -> ServeClient:
        return self._client_factory(shard.host, shard.port)

    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[cluster] {message}", file=sys.stderr)

    def _sample_gauges(self) -> None:
        alive = self.registry.alive()
        self._g_alive.set(len(alive))
        self._g_depth.set(sum(shard.queue_depth for shard in alive))

    # --- membership API ----------------------------------------------------
    def register(self, payload: dict) -> dict:
        """``POST /v1/cluster/register`` body ->
        ``{id, host, port, workers}``."""
        if not isinstance(payload, dict):
            raise InvalidJobError("register body must be a JSON object")
        missing = sorted({"id", "host", "port"} - set(payload))
        if missing:
            raise InvalidJobError(
                f"register body missing fields: {', '.join(missing)}"
            )
        shard = self.registry.register(
            str(payload["id"]), str(payload["host"]),
            _int_field(payload, "port"),
            workers=_int_field(payload, "workers", 1))
        self._record("shard_joined", shard=shard.id, detail=shard.url)
        self._log(f"shard {shard.id} joined at {shard.url}")
        self._sample_gauges()
        return {"id": shard.id,
                "heartbeat_timeout": self.registry.heartbeat_timeout,
                "generation": self.registry.generation}

    def heartbeat(self, payload: dict) -> dict:
        if not isinstance(payload, dict) or "id" not in payload:
            raise InvalidJobError(
                "heartbeat body must be a JSON object with an 'id'")
        shard = self.registry.heartbeat(
            str(payload["id"]),
            queue_depth=_int_field(payload, "queue_depth", 0),
            running=_int_field(payload, "running", 0))
        self._m_heartbeats.inc()
        return {"id": shard.id, "state": shard.state,
                "generation": self.registry.generation}

    def ring_owner(self, key: str | None) -> dict:
        """``GET /v1/cluster/ring?key=``: the live shard owning ``key``."""
        if not key:
            raise InvalidJobError("ring lookup needs a ?key= parameter")
        shard = self.registry.route(key)
        return {"key": key, "shard": shard.id, "url": shard.url}

    # --- job API (what clients call) ---------------------------------------
    def submit(self, spec: object) -> dict:
        """Route one submission; returns the coordinator's 202 body."""
        cell = build_cell(spec)  # validate before touching the network
        key = cell.cache_key()
        with self._lock:
            active = self._active_by_key.get(key)
            if active is not None:
                active.coalesced_hits += 1
                self._m_coalesced.inc()
                payload = active.status_dict()
                payload["coalesced"] = True
                return payload
        routed = self._route_spec(cell.to_dict(), key)
        payload = routed.status_dict()
        payload["coalesced"] = False
        return payload

    def _route_spec(self, spec: dict, key: str,
                    job: RoutedJob | None = None) -> RoutedJob:
        """Proxy one spec to the key's owner, failing over dead shards.

        With ``job`` given this is a re-route (steal target died,
        failover): the existing mapping is updated in place instead of
        minting a new coordinator id.
        """
        last_error: Exception | None = None
        for _ in range(max(len(self.registry.alive()), 1)):
            shard = self.registry.route(key)  # NoShardAvailableError
            try:
                answer = self._client(shard).submit(
                    spec["workload"], config=spec["config"])
            except BackpressureError as exc:
                # The owner is full; surface 429 with its hint — the
                # submitting client owns the retry policy.
                raise QueueFullError(
                    f"shard {shard.id} queue is full: {exc}",
                    retry_after=exc.retry_after) from None
            except ServeClientError as exc:
                if exc.status == 0 or exc.status == 503:
                    self._note_dead(shard.id, reason=str(exc))
                    last_error = exc
                    continue
                raise
            with self._lock:
                if job is None:
                    seq = next(self._seq)
                    job = RoutedJob(
                        id=f"c{seq:06d}-{key[:12]}", seq=seq,
                        spec=spec, key=key, shard_id=shard.id,
                        remote_id=answer["id"])
                    self._jobs[job.id] = job
                    self._active_by_key[key] = job
                else:
                    job.shard_id = shard.id
                    job.remote_id = answer["id"]
                job.state = answer.get("state", "queued")
            self._record("routed", job, shard=shard.id)
            self._log(f"routed {job.id} -> {shard.id} "
                      f"(remote {job.remote_id})")
            return job
        raise NoShardAvailableError(
            f"no live shard accepted key {key[:16]!r}...: {last_error}"
        )

    def _get(self, job_id: str) -> RoutedJob:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(f"no such cluster job: {job_id}")
        return job

    def status(self, job_id: str) -> dict:
        """Proxied status under the coordinator id (+ ``shard``)."""
        job = self._get(job_id)
        if job.is_terminal:
            status = job.status_dict()
            return status
        try:
            shard = self.registry.get(job.shard_id)
            remote = self._client(shard).status(job.remote_id)
        except ServeClientError as exc:
            if exc.status == 0:
                self._note_dead(job.shard_id, reason=str(exc))
                return job.status_dict()
            raise
        with self._lock:
            job.state = remote.get("state", job.state)
            job.cache_hit = remote.get("cache_hit")
        if job.state in TERMINAL_STATES:
            self._cache_result(job)
        status = dict(remote)
        status["id"] = job.id
        status["shard"] = job.shard_id
        status["remote_id"] = job.remote_id
        return status

    def _cache_result(self, job: RoutedJob) -> None:
        """Fetch and pin a terminal job's result payload once."""
        if job.is_terminal:
            return
        try:
            shard = self.registry.get(job.shard_id)
            payload = self._client(shard).result(job.remote_id)
        except (ServeClientError, ClusterError):
            return  # next poll retries; shard death triggers failover
        with self._lock:
            payload = dict(payload)
            payload["id"] = job.id
            payload["shard"] = job.shard_id
            job.result = payload
            job.state = payload.get("state", job.state)
            job.cache_hit = payload.get("cache_hit", job.cache_hit)
            if self._active_by_key.get(job.key) is job:
                del self._active_by_key[job.key]

    def result(self, job_id: str) -> dict:
        job = self._get(job_id)
        if not job.is_terminal:
            self.status(job_id)  # refresh; caches when terminal
        job = self._get(job_id)
        if job.result is None:
            raise JobStateError(
                f"job {job.id} is {job.state}, not terminal"
            )
        return job.result

    def cancel(self, job_id: str) -> dict:
        job = self._get(job_id)
        if job.is_terminal:
            raise JobStateError(
                f"job {job.id} is already terminal ({job.state})"
            )
        shard = self.registry.get(job.shard_id)
        remote = self._client(shard).cancel(job.remote_id)
        with self._lock:
            job.state = remote.get("state", "cancelled")
            job.result = {"id": job.id, "state": job.state,
                          "cache_hit": None,
                          "result": encode_result(None),
                          "shard": job.shard_id}
            if self._active_by_key.get(job.key) is job:
                del self._active_by_key[job.key]
        status = dict(remote)
        status["id"] = job.id
        status["shard"] = job.shard_id
        return status

    def jobs(self) -> list[dict]:
        """The coordinator's own table (no shard round-trips)."""
        with self._lock:
            return [job.status_dict()
                    for job in sorted(self._jobs.values(),
                                      key=lambda j: j.seq)]

    # --- death and failover ------------------------------------------------
    def _note_dead(self, shard_id: str, reason: str = "") -> None:
        """Declare a shard dead and fail its jobs over (idempotent)."""
        try:
            shard = self.registry.get(shard_id)
        except ClusterError:
            return
        if not shard.alive:
            return
        self.registry.mark_dead(shard_id)
        self._record("shard_dead", shard=shard_id,
                     detail=reason or "unreachable")
        self._log(f"shard {shard_id} declared dead "
                  f"({reason or 'unreachable'})")
        self._sample_gauges()
        self._failover(shard_id)

    def _failover(self, dead_id: str) -> int:
        """Resubmit every non-terminal job mapped to a dead shard."""
        with self._lock:
            orphans = [job for job in self._jobs.values()
                       if job.shard_id == dead_id
                       and not job.is_terminal]
        moved = 0
        for job in orphans:
            try:
                self._route_spec(job.spec, job.key, job=job)
            except NoShardAvailableError:
                # Whole cluster down; keep the mapping — the next
                # maintenance tick (or rejoin) retries.
                break
            job.failovers += 1
            self._record("failover", job, shard=job.shard_id,
                         detail=f"from {dead_id}")
            moved += 1
        return moved

    def reap(self, now: float | None = None) -> list[str]:
        """Reap silent shards; returns the newly dead ids."""
        dead = self.registry.reap(now)
        for shard in dead:
            self._record("shard_dead", shard=shard.id,
                         detail="heartbeat silence")
            self._log(f"shard {shard.id} reaped (heartbeat silence)")
            self._failover(shard.id)
        if dead:
            self._sample_gauges()
        return [shard.id for shard in dead]

    # --- work-stealing -----------------------------------------------------
    def rebalance(self) -> int:
        """One stealing pass; returns the number of jobs moved.

        Donors are live shards whose last heartbeat reported
        ``queue_depth >= steal_threshold``; receivers are live, fully
        idle shards (no queue, nothing running).  Moves come straight
        off the donor's queue tail via ``POST /v1/steal`` and are
        resubmitted on a receiver, with the coordinator's id mapping
        updated so clients keep their handle.
        """
        alive = self.registry.alive()
        if len(alive) < 2:
            return 0
        donors = [shard for shard in alive
                  if shard.queue_depth >= self.steal_threshold]
        idle = [shard for shard in alive
                if shard.queue_depth == 0 and shard.running == 0]
        moved = 0
        for donor in donors:
            receivers = [shard for shard in idle
                         if shard.id != donor.id]
            if not receivers:
                break
            want = min(self.steal_batch, donor.queue_depth)
            try:
                stolen = self._client(donor).steal(want)
            except ServeClientError as exc:
                if exc.status == 0:
                    self._note_dead(donor.id, reason=str(exc))
                continue
            donor.queue_depth = max(
                0, donor.queue_depth - len(stolen))
            for item, receiver in zip(stolen,
                                      itertools.cycle(receivers)):
                spec = {"workload": item["workload"],
                        "config": item["config"]}
                with self._lock:
                    job = self._active_by_key.get(item["key"])
                placed = self._place_stolen(spec, item["key"], job,
                                            receiver, donor)
                if placed:
                    moved += 1
                    receiver.queue_depth += 1
        if moved:
            self._sample_gauges()
        return moved

    def _place_stolen(self, spec: dict, key: str,
                      job: RoutedJob | None, receiver: ShardInfo,
                      donor: ShardInfo) -> bool:
        """Re-lease one stolen cell on ``receiver`` (fall back to the
        ring owner if the receiver refuses); never drops the cell."""
        try:
            answer = self._client(receiver).submit(
                spec["workload"], config=spec["config"])
        except (ServeClientError, ClusterError) as exc:
            if isinstance(exc, ServeClientError) and exc.status == 0:
                self._note_dead(receiver.id, reason=str(exc))
            # No-job-lost: route it anywhere live (possibly back to
            # the donor, which merely undoes the move).
            try:
                self._route_spec(spec, key, job=job)
                return True
            except ClusterError:
                return False
        with self._lock:
            if job is not None:
                job.shard_id = receiver.id
                job.remote_id = answer["id"]
                job.state = answer.get("state", "queued")
                job.steals += 1
        self._record("stolen", job, shard=donor.id,
                     detail=f"-> {receiver.id}")
        self._log(f"stole {key[:12]} from {donor.id} -> {receiver.id}")
        return True

    # --- maintenance loop --------------------------------------------------
    def maintenance_tick(self, now: float | None = None) -> dict:
        """One reap -> failover -> rebalance pass (the loop body)."""
        dead = self.reap(now)
        moved = self.rebalance()
        self._sample_gauges()
        return {"reaped": dead, "stolen": moved}

    def start_maintenance(self, tick: float = DEFAULT_TICK) -> None:
        if self._maint_thread is not None:
            return
        self._maint_stop = threading.Event()

        def _loop() -> None:
            while not self._maint_stop.wait(tick):
                try:
                    self.maintenance_tick()
                except Exception as exc:  # keep the loop alive
                    self._log(f"maintenance tick failed: {exc}")

        self._maint_thread = threading.Thread(
            target=_loop, name="cluster-maintenance", daemon=True)
        self._maint_thread.start()

    def stop_maintenance(self) -> None:
        if self._maint_stop is not None:
            self._maint_stop.set()
        if self._maint_thread is not None:
            self._maint_thread.join(timeout=5.0)
        self._maint_thread = None
        self._maint_stop = None

    # --- observability -----------------------------------------------------
    def health(self) -> dict:
        alive = self.registry.alive()
        return {
            "status": "ok" if alive else "no-shards",
            "role": "coordinator",
            "version": __version__,
            "shards_alive": len(alive),
            "shards_known": len(self.registry.shards()),
            "jobs": len(self._jobs),
            "ring_seed": self.registry.ring.seed,
            "generation": self.registry.generation,
        }

    def shard_metric_states(self) -> dict[str, dict]:
        """Per-live-shard ``/v1/metrics?format=state`` dumps (shards
        that fail to answer are skipped, not fatal)."""
        states: dict[str, dict] = {}
        for shard in self.registry.alive():
            try:
                states[shard.id] = self._client(shard).metrics_state()
            except (ServeClientError, ClusterError):
                continue
        return states

    def cluster_metrics(self) -> dict:
        """``GET /v1/cluster/metrics``: coordinator + merged shards.

        Counters are summed across shards; the service-latency
        histogram is merged *bucket-wise*
        (:meth:`~repro.obs.metrics.Histogram.merge`), so the reported
        cluster p50/p95/p99 are what one process observing every
        sample would have computed — not quantiles of quantiles.
        """
        states = self.shard_metric_states()
        merged: dict = {}
        per_shard: dict[str, dict] = {}
        for shard_id, state in sorted(states.items()):
            flat: dict = {}
            for name, instrument in state.items():
                kind = instrument.get("kind")
                if kind in ("counter", "gauge"):
                    flat[name] = instrument["value"]
                    if kind == "counter" and "{" not in name:
                        merged[name] = merged.get(name, 0) \
                            + instrument["value"]
            per_shard[shard_id] = flat
        latency_states = [
            state["serve.service_latency_ns"] for state in states.values()
            if "serve.service_latency_ns" in state
        ]
        if latency_states:
            latency = Histogram.merge(latency_states,
                                      name="serve.service_latency_ns")
            merged.update(latency.quantile_snapshot())
            merged["serve.service_latency_ns_count"] = latency.count
        hits = merged.get("serve.cache_hits", 0)
        misses = merged.get("serve.cache_misses", 0)
        if hits + misses:
            merged["serve.cache_hit_rate"] = hits / (hits + misses)
        self._sample_gauges()
        return {
            "coordinator": self.metrics.snapshot(),
            "merged": merged,
            "shards": per_shard,
        }

    def cluster_metrics_prom(self) -> str:
        """Prometheus text: every shard series labeled ``shard=``,
        coordinator series unlabeled."""
        merged = MetricsRegistry()
        merged.restore_live_state(self.metrics.live_state())
        for shard_id, state in sorted(
                self.shard_metric_states().items()):
            relabeled = {}
            for name, instrument in state.items():
                base, labels = parse_labeled_name(name)
                relabeled[labeled_name(
                    base, {**labels, "shard": shard_id})] = instrument
            merged.restore_live_state(relabeled)
        return prometheus_text(merged)


def coordinator_server(coordinator: ClusterCoordinator,
                       host: str = "127.0.0.1",
                       port: int = 0) -> ApiServer:
    """The HTTP daemon of ``repro cluster``: the job API plus
    ``/v1/cluster/*``; shutdown stops the maintenance loop."""
    routes = job_routes(coordinator, metrics={
        "json": coordinator.metrics.snapshot,
        "prom": lambda: prometheus_text(coordinator.metrics),
    })
    routes.update({
        ("POST", "/v1/cluster/register"): lambda request: (
            200, coordinator.register(request.read_json())),
        ("POST", "/v1/cluster/heartbeat"): lambda request: (
            200, coordinator.heartbeat(request.read_json())),
        ("GET", "/v1/cluster/shards"): lambda request: (
            200, coordinator.registry.snapshot()),
        ("GET", "/v1/cluster/ring"): lambda request: (
            200, coordinator.ring_owner(request.query("key"))),
        ("GET", "/v1/cluster/metrics"): metrics_route({
            "json": coordinator.cluster_metrics,
            "prom": coordinator.cluster_metrics_prom,
        }),
    })
    return ApiServer(make_handler(routes, verbose=coordinator.verbose),
                     on_stop=lambda timeout: coordinator.stop_maintenance(),
                     log_prefix="[cluster]", signal_thread="cluster-stop",
                     host=host, port=port)


def run_coordinator(host: str, port: int, seed: int = 0,
                    vnodes: int = 64,
                    heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
                    steal_threshold: int = DEFAULT_STEAL_THRESHOLD,
                    steal_batch: int = DEFAULT_STEAL_BATCH,
                    tick: float = DEFAULT_TICK,
                    events: ServeEventLog | None = None,
                    verbose: bool = False) -> int:
    """The ``repro cluster`` entry point: boot, announce, block."""
    coordinator = ClusterCoordinator(
        seed=seed, vnodes=vnodes, heartbeat_timeout=heartbeat_timeout,
        steal_threshold=steal_threshold, steal_batch=steal_batch,
        events=events, verbose=verbose)
    server = coordinator_server(coordinator, host=host, port=port)
    coordinator.start_maintenance(tick)
    server.run(f"[cluster] coordinator listening on "
               f"http://{server.host}:{server.port} "
               f"(ring seed {seed}, {vnodes} vnodes, heartbeat timeout "
               f"{heartbeat_timeout:g}s)")
    shards = len(coordinator.registry.alive())
    print(f"[cluster] stopped; {shards} shard(s) were alive",
          file=sys.stderr)
    return 0
