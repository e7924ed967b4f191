"""Cluster-layer fault injection: kill shards, stall heartbeats.

One layer above :class:`~repro.faultinject.service.ServiceFaultProfile`
(which misbehaves *inside* one daemon's worker fleet), a
:class:`ClusterFaultProfile` misbehaves at cluster scope — whole
shards die, heartbeats go silent, membership churns — and is consumed
by the cluster chaos harness (``repro chaos --cluster``,
:func:`repro.chaos.run_chaos`):

* **shard SIGKILL** (``kill_shards``/``kill_after_jobs``): the harness
  SIGKILLs that many shard processes once the wave has submitted
  ``kill_after_jobs`` jobs, exercising dead-on-silence reaping, ring
  re-homing, and job failover;
* **heartbeat stall** (``stall_heartbeats``): that many shards are
  started with an absurdly long heartbeat interval, so the coordinator
  reaps a *live* shard — failover must still produce byte-identical
  results (the stalled shard keeps serving direct requests);
* **ring churn** (``join_midwave``): that many extra shards join
  mid-wave, exercising minimal-disruption re-routing while jobs are in
  flight.

Like every other profile in :mod:`repro.faultinject`, all knobs are
counts plus a ``seed`` — a given profile produces the same fault
sequence on every run.
"""

from __future__ import annotations

from dataclasses import dataclass

from .profile import Profile


@dataclass(frozen=True)
class ClusterFaultProfile(Profile):
    """What goes wrong at the cluster layer, deterministically."""

    #: SIGKILL this many shard processes mid-wave (0 disables).
    kill_shards: int = 0
    #: Kill after this many jobs of the wave have been submitted.
    kill_after_jobs: int = 4
    #: Start this many shards with a near-infinite heartbeat interval,
    #: so the coordinator reaps them as silent while they still serve.
    stall_heartbeats: int = 0
    #: Boot this many *extra* shards mid-wave (ring churn).
    join_midwave: int = 0
    #: Seed for the harness's own draws (victim choice order).
    seed: int = 0

    kind = "cluster fault profile"
    counts = ("kill_shards", "kill_after_jobs", "stall_heartbeats",
              "join_midwave")
    injectors = ("kill_shards", "stall_heartbeats", "join_midwave")

    @classmethod
    def named(cls) -> dict[str, "ClusterFaultProfile"]:
        return CLUSTER_PROFILES


#: Named profiles for ``repro chaos --cluster``.
CLUSTER_PROFILES: dict[str, ClusterFaultProfile] = {
    "none": ClusterFaultProfile(),
    "shard-kill": ClusterFaultProfile(kill_shards=1),
    "heartbeat-stall": ClusterFaultProfile(stall_heartbeats=1),
    "ring-churn": ClusterFaultProfile(join_midwave=1),
    "mixed": ClusterFaultProfile(kill_shards=1, join_midwave=1),
}

