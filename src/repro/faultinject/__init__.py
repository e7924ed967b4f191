"""Deterministic fault injection and resilience for the UVM simulator.

The paper's conclusions hinge on driver behaviour under pressure; this
package lets the reproduction *create* pressure on demand.  A
:class:`~repro.faultinject.profile.FaultProfile` describes, with its own
seeded RNG stream, how often the simulated stack misbehaves at each hook
point:

* ``interconnect/pcie.py`` — transient migration-transfer failures and
  latency spikes;
* ``memory/mshr.py`` — far-fault notifications dropped or duplicated, and
  transient fault-buffer (MSHR) overflow;
* ``core/driver.py`` — delayed fault-batch servicing.

The driver answers with capped-exponential-backoff retries, graceful
degradation to on-demand paging, and a watchdog that aborts livelocked
runs with a structured :class:`~repro.errors.WatchdogTimeout` instead of
hanging.  With ``fault_profile=None`` every hook is a no-op and results
are identical to a build without this package.

The same philosophy extends one layer up:
:class:`~repro.faultinject.service.ServiceFaultProfile` injects
*service-level* faults — worker-process SIGKILL, wedged workers,
cache-entry corruption, journal truncation — into the
:mod:`repro.serve` fleet; and
:class:`~repro.faultinject.cluster.ClusterFaultProfile` injects
*cluster-level* faults — whole-shard SIGKILL, heartbeat stalls, ring
churn — into a multi-host ``repro serve`` cluster.  Both drive the one
chaos harness, :mod:`repro.chaos` (``repro chaos`` and
``repro chaos --cluster``).

All three shapes share one base, :class:`~repro.faultinject.profile.Profile`,
so every one resolves a spec the same way:
``FaultProfile.load("moderate")``, ``ServiceFaultProfile.load(
"kill_every_jobs=2,poison_seeds=7+9")``, ``ClusterFaultProfile.load(
"profile.json", seed=3)``.
"""

from .cluster import CLUSTER_PROFILES, ClusterFaultProfile
from .injector import FaultInjector
from .profile import PROFILES, FaultProfile
from .service import SERVICE_PROFILES, ServiceFaultProfile
from .watchdog import Watchdog

__all__ = [
    "CLUSTER_PROFILES",
    "ClusterFaultProfile",
    "FaultInjector",
    "FaultProfile",
    "PROFILES",
    "SERVICE_PROFILES",
    "ServiceFaultProfile",
    "Watchdog",
]
