"""Unified facade over the per-role policy registries.

Prefetchers and eviction policies keep their historical registries
(``PREFETCHER_REGISTRY`` / ``EVICTION_REGISTRY`` — the same name, e.g.
``"tbn"``, may legitimately map to *different* classes per role), and
this module layers role-aware lookup, combined-policy instantiation,
and capability queries on top:

* :func:`make_policy` — instantiate by (name, role) with a
  :class:`~repro.errors.PolicyError` listing the registered names on a
  miss (never a bare ``KeyError``);
* :func:`make_policy_pair` — build the (prefetcher, eviction) pair for
  a config; when both roles name the same *combined* class (one class
  registered in both registries, e.g. the bandit), a single shared
  instance serves both roles so its observations and decisions stay
  coherent;
* :func:`learned_names` — the online-trained policies per role.

The registry imports resolve lazily at call time: this module is
imported by ``repro.policy.__init__`` while the core policy packages
may still be mid-import, so binding the dicts at module load would
create a cycle.
"""

from __future__ import annotations

from ..errors import PolicyError
from .base import Policy

#: Valid policy roles, in (prefetcher, eviction) order.
ROLES = ("prefetch", "evict")

#: Learned pairings offered beyond the paper's four Figure-11 combos:
#: (label, prefetcher, eviction, keep-prefetching).  Consumed by the
#: tuner's ``--include-learned`` axis, the ``ext-learned`` experiment,
#: and the ``learned-competitive`` validation claim.
LEARNED_PAIRINGS: tuple[tuple[str, str, str, bool], ...] = (
    ("NGp+SLe", "ngram", "sequential-local", True),
    ("TBNp+LOGe", "tbn", "logistic", True),
    ("NGp+LOGe", "ngram", "logistic", True),
    ("Bandit", "bandit", "bandit", True),
)


def _registries() -> dict[str, dict]:
    """role -> registry dict, resolved lazily (see module docstring).

    Importing the packages (not just the ``base`` modules) guarantees
    every concrete policy — including the learned ones registered from
    the package ``__init__``\\ s — is present.
    """
    from ..core import evict, prefetch

    return {
        "prefetch": prefetch.PREFETCHER_REGISTRY,
        "evict": evict.EVICTION_REGISTRY,
    }


def registry_for(role: str) -> dict:
    """The live name -> class registry of one role."""
    registries = _registries()
    try:
        return registries[role]
    except KeyError:
        raise PolicyError(
            f"unknown policy role {role!r}; known: {', '.join(ROLES)}"
        ) from None


def policy_class(name: str, role: str) -> type[Policy]:
    """Resolve a registry name to its class, with a helpful error."""
    registry = registry_for(role)
    try:
        return registry[name]
    except KeyError:
        known = ", ".join(sorted(registry))
        label = "prefetcher" if role == "prefetch" else "eviction policy"
        raise PolicyError(
            f"unknown {label} {name!r}; known: {known}"
        ) from None


def make_policy(name: str, role: str) -> Policy:
    """Instantiate a policy by (name, role)."""
    return policy_class(name, role)()


def is_combined(name: str) -> bool:
    """True when ``name`` maps to one class registered in *both* roles.

    A combined policy (e.g. the bandit) plans prefetches and evictions
    from one body of observations; configuring it for both roles shares
    a single instance.  Same-name-different-class entries (``"tbn"``,
    ``"random"``, ``"sequential-local"``) are *not* combined.
    """
    registries = _registries()
    return (
        registries["prefetch"].get(name) is not None
        and registries["prefetch"].get(name)
        is registries["evict"].get(name)
    )


def make_policy_pair(prefetcher: str, eviction: str) -> tuple[Policy, Policy]:
    """The (prefetcher, eviction) instances for one configuration.

    When both names select the same combined class, one shared instance
    is returned for both roles — the driver and engine dedup hook calls
    by identity, so the shared instance observes each event once.
    """
    prefetch_cls = policy_class(prefetcher, "prefetch")
    eviction_cls = policy_class(eviction, "evict")
    if prefetcher == eviction and prefetch_cls is eviction_cls:
        shared = prefetch_cls()
        return shared, shared
    return prefetch_cls(), eviction_cls()


def learned_names(role: str) -> list[str]:
    """Sorted names of the online-trained policies of one role."""
    return sorted(
        name for name, cls in registry_for(role).items() if cls.learned
    )
