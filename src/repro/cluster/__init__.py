"""Multi-host sharded cluster tier for ``repro serve``.

One coordinator (``repro cluster``) federates N independent
``repro serve`` daemons (*shards*) behind a single job API:

* :mod:`repro.cluster.ring` — seeded consistent-hash ring over
  simulation cache keys; identical submissions land (and coalesce) on
  the same shard, so the cluster-wide cache behaves like one cache.
* :mod:`repro.cluster.registry` — shard membership: register,
  heartbeat, dead-on-silence reaping.
* :mod:`repro.cluster.coordinator` — the routing/stealing/failover
  brain, served by the same HTTP front door as a shard
  (:mod:`repro.serve.api`) with the same ``/v1/jobs`` route table, so
  :class:`~repro.serve.client.ServeClient` works unchanged against
  either.
* :mod:`repro.cluster.agent` — the shard-side daemon thread started by
  ``repro serve --join``; registers and heartbeats queue depth.

The chaos harness behind ``repro chaos --cluster`` (shard SIGKILL,
heartbeat stalls, ring churn) is the same one that drives a single
daemon: :mod:`repro.chaos`.  Everything is stdlib-only, like the rest
of the service tier.
"""

from .agent import ShardAgent
from .coordinator import (
    ClusterCoordinator,
    RoutedJob,
    coordinator_server,
    run_coordinator,
)
from .registry import ShardInfo, ShardRegistry
from .ring import HashRing

__all__ = [
    "ClusterCoordinator",
    "HashRing",
    "RoutedJob",
    "ShardAgent",
    "ShardInfo",
    "ShardRegistry",
    "coordinator_server",
    "run_coordinator",
]
