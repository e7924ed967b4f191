"""Unified prefetch/eviction policy subsystem (`repro.policy`).

The :class:`~repro.policy.base.Policy` protocol — observe the
fault/access/eviction event stream through hooks, emit prefetch ranges
and eviction victims through role-specific planning — plus a registry
facade over the per-role registries and three online-trained baselines:

* ``ngram`` (prefetch) — order-1 Markov predictor over 64 KB
  basic-block fault transitions (arXiv 2203.12672-style);
* ``bandit`` (combined) — epsilon-greedy pairing selection per
  oversubscription epoch (arXiv 2204.02974-style);
* ``logistic`` (evict) — feature-hashed logistic reuse scoring of
  victim blocks with thrash-feedback training.

The learned classes live in :mod:`repro.policy.ngram` /
:mod:`.bandit` / :mod:`.logistic` and register themselves when
``repro.core.prefetch`` / ``repro.core.evict`` import (the canonical
registration point, so every registry consumer sees them); they are
deliberately *not* imported here to keep this package import-cycle
free.  See docs/POLICIES.md for the protocol and hook semantics.
"""

from .base import Policy
from .registry import (
    LEARNED_PAIRINGS,
    ROLES,
    is_combined,
    learned_names,
    make_policy,
    make_policy_pair,
    policy_class,
    registry_for,
)

__all__ = [
    "LEARNED_PAIRINGS",
    "Policy",
    "ROLES",
    "is_combined",
    "learned_names",
    "make_policy",
    "make_policy_pair",
    "policy_class",
    "registry_for",
]
