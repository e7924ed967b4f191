"""Content-addressed on-disk cache of simulation results.

Every executed :class:`~repro.sweep.cells.SweepCell` stores its result —
a :class:`SimStats` or, for isolated failures, a
:class:`~repro.stats.FailedRun`, in the tagged form of
:func:`~repro.sweep.cells.encode_result` — as one JSON file
under ``<root>/<key[:2]>/<key>.json``, keyed by the cell's content hash.
Re-running an experiment therefore re-executes only missing or changed
cells, and an interrupted sweep resumes for free: completed cells are
already on disk (writes are atomic via rename).

Anything unreadable — corrupt JSON, a stale schema version, a truncated
write, an entry whose ``key`` is not the one asked for — is treated as a
cache miss, never trusted.  Corrupt entries are additionally
**quarantined**: moved to ``<root>/quarantine/`` and counted, so a bad
file is inspectable after the fact, can never be served twice, and the
healthy re-execution overwrites a clean slot.

:func:`write_atomic` and :func:`quarantine_entry` are the one atomic
write and the one quarantine move of every durable JSON file the
project keeps: cache entries, the service's job journal and the tuner's
recommendation cards.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from ..errors import ReproError
from ..stats import FailedRun, SimStats
from .cells import SweepCell, decode_result, encode_result

#: Default cache root, next to the generated experiment tables.
DEFAULT_CACHE_DIR = Path("results") / ".runcache"

#: Environment variable overriding :data:`DEFAULT_CACHE_DIR`, so a
#: long-running server and ad-hoc CLI invocations share one cache
#: without every command repeating ``--cache-dir``.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def resolve_cache_dir(explicit: str | Path | None = None) -> Path:
    """The cache directory a command should use.

    Precedence: an explicit path (the ``--cache-dir`` flag) wins, then a
    non-empty :data:`CACHE_DIR_ENV` environment variable, then
    :data:`DEFAULT_CACHE_DIR`.
    """
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return DEFAULT_CACHE_DIR

#: Version of the cache *file* schema (the envelope around the result).
CACHE_FORMAT = 3

#: Subdirectory (under the cache root) holding quarantined entries.
QUARANTINE_DIRNAME = "quarantine"


def write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file and a rename, so a
    reader sees the old file or the new one, never a torn write."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(text)
    tmp.replace(path)


def quarantine_entry(path: Path, quarantine_dir: Path, reason: object,
                     tag: str) -> None:
    """Move one unreadable entry into ``quarantine_dir`` and say so on
    stderr.

    The bad bytes stay inspectable there.  If the move fails
    (permissions, a concurrent heal) the entry is unlinked instead: a
    corpse left in place would be tripped over, and quarantined again,
    by every later reader.
    """
    try:
        quarantine_dir.mkdir(parents=True, exist_ok=True)
        path.replace(quarantine_dir / path.name)
    except OSError:
        try:
            path.unlink()
        except OSError:
            pass
    print(f"[{tag}] quarantined corrupt entry {path.name}: {reason}",
          file=sys.stderr)


class RunCache:
    """Load/store sweep-cell results by content hash.

    Tracks ``hits`` and ``misses`` for reporting, plus ``quarantined``
    — corrupt/truncated entries moved aside by :meth:`load`.  All three
    reset with the instance, not the directory, so two CLI invocations
    sharing one cache directory each report their own counts.
    """

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    def path_for(self, key: str) -> Path:
        """Cache file for one cell key (two-character fan-out dirs)."""
        return self.root / key[:2] / f"{key}.json"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / QUARANTINE_DIRNAME

    def _quarantine(self, path: Path, reason: Exception) -> None:
        """Move one corrupt entry aside so it can never be served.

        Self-healing: the caller treats the load as a miss, re-executes
        the cell, and the store writes a fresh entry into the (now
        empty) slot.
        """
        self.quarantined += 1
        quarantine_entry(path, self.quarantine_dir, reason, "cache")

    def load(self, key: str) -> SimStats | FailedRun | None:
        """The cached result for ``key``, or None on any miss.

        A missing file is a plain miss.  A present-but-unreadable entry
        (torn write, malformed payload, stale schema version, an entry
        written for another key) is quarantined — moved to
        ``quarantine/``, counted, reported on stderr — and *also*
        treated as a miss: the cell simply re-executes and stores a
        healthy replacement.  Corruption is therefore self-healing and
        can never raise into a sweep or a serving worker.
        """
        path = self.path_for(key)
        try:
            text = path.read_text()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError as exc:
            self._quarantine(path, exc)
            self.misses += 1
            return None
        try:
            result = self._decode(json.loads(text), key)
        except (ReproError, AttributeError, KeyError, TypeError,
                ValueError) as exc:
            self._quarantine(path, exc)
            self.misses += 1
            return None
        self.hits += 1
        return result

    @staticmethod
    def _decode(data: dict, key: str) -> SimStats | FailedRun:
        if data.get("format") != CACHE_FORMAT:
            raise ReproError(
                f"cache entry {key} has format {data.get('format')!r}"
            )
        if data.get("key") != key:
            raise ReproError(
                f"cache entry {key} holds key {data.get('key')!r}")
        result = decode_result(data["result"])
        if result is None:
            raise ReproError(f"cache entry {key} holds no result")
        return result

    def store(self, key: str, cell: SweepCell,
              result: SimStats | FailedRun) -> None:
        """Persist one executed cell's result atomically.

        The file also embeds the cell's own form (workload spec and full
        config dict), so a cache entry is self-describing — ``jq`` can
        answer "what produced this?" without reverse-engineering hashes.
        """
        document = {"format": CACHE_FORMAT, "key": key, **cell.to_dict(),
                    "result": encode_result(result)}
        write_atomic(self.path_for(key), json.dumps(document, sort_keys=True))
