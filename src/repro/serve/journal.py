"""Durable journal of not-yet-finished jobs: one entry per owed job.

The entry is the only durable record of a job.  The queue writes it
under its lock before the job can be taken (write-ahead), the
supervisor rewrites it with the new attempt count on every lease, and
the server forgets it on any terminal transition, so the journal
directory is at all times exactly the set of jobs the server still owes
an answer for.  A drain (SIGTERM) therefore needs no extra persistence
step: running jobs finish and are forgotten, queued jobs simply stay on
disk, and the next server generation replays them in submission order
under their original ids and attempt counts — clients polling across
the restart never notice, and a poison job cannot reset its strike
count by killing the whole server.

Layout mirrors the run cache: one self-describing JSON file per job,
written with the cache's atomic write.  Anything unreadable or
version-mismatched is **quarantined** — moved to ``<root>/quarantine/``
and counted — so one bad file can neither abort the replay nor corrupt
it twice.  Subdirectories (such as the ``worker-<i>/`` lease dirs that
older versions wrote) are not read.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..sweep import SweepCell
from ..sweep.cache import quarantine_entry, write_atomic
from .queue import Job

#: Default journal root, next to the run cache.
DEFAULT_JOURNAL_DIR = Path("results") / ".servejournal"

#: Version of the journal-entry schema.
JOURNAL_FORMAT = 2

#: Subdirectory (under the journal root) holding quarantined entries.
QUARANTINE_DIRNAME = "quarantine"


class JobJournal:
    """Persist owed jobs; replay the survivors on startup.

    ``quarantined`` counts the corrupt/truncated entries moved aside by
    :meth:`load` over this instance's lifetime (the service exports it
    as ``serve.journal_entries_quarantined``).
    """

    def __init__(self, root: str | Path = DEFAULT_JOURNAL_DIR) -> None:
        self.root = Path(root)
        self.quarantined = 0

    def path_for(self, job_id: str) -> Path:
        return self.root / f"{job_id}.json"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / QUARANTINE_DIRNAME

    def record(self, job: Job) -> None:
        """Write one job's replayable identity (id, sequence number, the
        cell's :meth:`SweepCell.to_dict` form and, once leased, its
        ``attempts``) atomically, replacing any earlier entry."""
        document = {"format": JOURNAL_FORMAT, "id": job.id,
                    "seq": job.seq, **job.cell.to_dict()}
        if job.attempts:
            document["attempts"] = job.attempts
        write_atomic(self.path_for(job.id),
                     json.dumps(document, sort_keys=True))

    def forget(self, job_id: str) -> None:
        """Remove a terminal job's entry (idempotent)."""
        try:
            self.path_for(job_id).unlink()
        except FileNotFoundError:
            pass

    def load(self) -> list[tuple[str, SweepCell, int]]:
        """Replayable ``(job_id, cell, attempts)`` in submission order.

        Corrupt, truncated, or stale-format entries are quarantined
        under ``quarantine/`` (logged + counted in ``quarantined``) and
        skipped — a bad journal file must not stop the server from
        booting, and moving it aside guarantees the next restart does
        not trip over it again.
        """
        entries: list[tuple[int, str, SweepCell, int]] = []
        if not self.root.is_dir():
            return []
        for path in sorted(self.root.glob("*.json")):
            try:
                data = json.loads(path.read_text())
                if data.get("format") != JOURNAL_FORMAT:
                    raise ValueError(
                        f"journal format {data.get('format')!r} != "
                        f"{JOURNAL_FORMAT}"
                    )
                entries.append((int(data["seq"]), str(data["id"]),
                                SweepCell.from_dict(data),
                                int(data.get("attempts", 0))))
            except Exception as exc:  # noqa: BLE001 — skip, never crash
                self.quarantined += 1
                quarantine_entry(path, self.quarantine_dir, exc, "serve")
        entries.sort(key=lambda item: (item[0], item[1]))
        return [entry[1:] for entry in entries]
