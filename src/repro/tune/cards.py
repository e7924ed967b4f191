"""Recommendation cards: the tuner's durable, diffable output.

A card is one JSON document per workload under ``results/tune/``
answering the question the paper poses: *given this workload at this
over-subscription level, which prefetcher/eviction pair should I run?*
It records, per level, the winning candidate with its metrics, the full
deterministic ranking, the Pareto frontier over (kernel time, migrated
bytes, far faults), and the rung-by-rung search history.

Cards are **byte-identical for a fixed seed + budget**: serialization is
canonical (sorted keys, fixed indent, trailing newline), every float
comes straight from the deterministic simulator, and nothing
environment-dependent (timestamps, hostnames, cache hit counts, wall
clock) is ever embedded.  ``repro tune`` writes them atomically;
``repro recommend`` reads them back without re-simulating anything.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..errors import TuneError
from ..sweep.cache import write_atomic

#: Version of the card schema; bumped on incompatible layout changes.
CARD_FORMAT = 1

#: Default card directory, next to the generated experiment tables.
DEFAULT_CARDS_DIR = Path("results") / "tune"


def card_json(card: dict) -> str:
    """Canonical serialization — the byte-identity contract."""
    return json.dumps(card, sort_keys=True, indent=2) + "\n"


def card_path(workload: str, cards_dir: str | Path | None = None) -> Path:
    root = Path(cards_dir) if cards_dir is not None else DEFAULT_CARDS_DIR
    return root / f"{workload}.json"


def write_card(card: dict, cards_dir: str | Path | None = None) -> Path:
    """Persist one card atomically; returns its path."""
    path = card_path(card["workload"], cards_dir)
    write_atomic(path, card_json(card))
    return path


def load_card(workload: str,
              cards_dir: str | Path | None = None) -> dict:
    """Read one workload's card back, validating the envelope."""
    path = card_path(workload, cards_dir)
    try:
        card = json.loads(path.read_text())
    except OSError:
        raise TuneError(
            f"no recommendation card for {workload!r} at {path}; "
            f"run `repro tune {workload}` first"
        ) from None
    except ValueError as exc:
        raise TuneError(f"corrupt recommendation card {path}: {exc}") \
            from None
    if not isinstance(card, dict) or card.get("format") != CARD_FORMAT:
        raise TuneError(
            f"recommendation card {path} has format "
            f"{card.get('format') if isinstance(card, dict) else '?'!r}, "
            f"expected {CARD_FORMAT}; re-run `repro tune {workload}`"
        )
    return card


def recommendation_for(card: dict, percent: float | None = None) -> dict:
    """The per-level recommendation block for one over-subscription level.

    ``None`` picks the card's first level; otherwise the level must
    match exactly (the card is the contract — interpolating between
    tournaments would fabricate a result nobody measured).
    """
    recommendations = card.get("recommendations") or []
    if not recommendations:
        raise TuneError(
            f"card for {card.get('workload')!r} holds no recommendations"
        )
    if percent is None:
        return recommendations[0]
    for block in recommendations:
        if block["oversubscription_percent"] == percent:
            return block
    levels = ", ".join(f"{b['oversubscription_percent']:g}"
                       for b in recommendations)
    raise TuneError(
        f"card for {card.get('workload')!r} has no "
        f"{percent:g}% level; tuned levels: {levels}"
    )


def format_card(card: dict) -> str:
    """Human-readable one-card summary for the CLI."""
    lines = [
        f"workload {card['workload']} (scale {card['scale']:g}, "
        f"objective {card['objective']['name']}, "
        f"driver {card['driver']['name']}, seed {card['seed']})",
    ]
    for block in card["recommendations"]:
        winner = block["winner"]
        metrics = winner["metrics"]
        lines.append(
            f"  {block['oversubscription_percent']:g}% oversubscribed"
            f" -> {winner['candidate']['pairing']}"
            f" (prefetcher={winner['candidate']['prefetcher']},"
            f" eviction={winner['candidate']['eviction']})"
        )
        lines.append(
            f"    kernel time {metrics['kernel_time_ns'] / 1e6:.3f} ms, "
            f"{metrics['far_faults']:.0f} far-faults, "
            f"{metrics['migrated_bytes'] / 2**20:.1f} MiB migrated"
        )
        frontier = ", ".join(block["pareto_frontier"])
        lines.append(f"    pareto frontier: {frontier}")
    return "\n".join(lines)
