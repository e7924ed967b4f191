"""Durable journal of not-yet-finished jobs, plus per-worker lease WALs.

The server journals every admitted job *before* acknowledging it and
forgets it on any terminal transition, so the journal directory is at
all times exactly the set of jobs the server still owes an answer for.
A drain (SIGTERM) therefore needs no extra persistence step: running
jobs finish and are forgotten, queued jobs simply stay on disk, and the
next server generation replays them in submission order under their
original ids — clients polling across the restart never notice.

The supervisor adds a second tier: when a job is leased to a worker
slot, a write-ahead lease entry lands under ``<root>/worker-<i>/``
recording the job id and its attempt count.  The supervisor replays a
worker's WAL when that worker process dies (requeue or quarantine), and
the daemon replays every WAL on restart so attempt counts survive a
daemon crash — a poison job cannot reset its strike count by killing
the whole server.

Layout mirrors the run cache: one self-describing JSON file per job,
atomic writes via rename.  Anything unreadable or version-mismatched
is **quarantined** — moved to ``<root>/quarantine/`` and counted — so
one bad file can neither abort the replay nor corrupt it twice.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from ..config import SimulatorConfig
from ..sweep import SweepCell
from .queue import Job

#: Default journal root, next to the run cache.
DEFAULT_JOURNAL_DIR = Path("results") / ".servejournal"

#: Version of the journal-entry schema.
JOURNAL_FORMAT = 1

#: Subdirectory (under the journal root) holding quarantined entries.
QUARANTINE_DIRNAME = "quarantine"


class JobJournal:
    """Persist queued jobs; replay the survivors on startup.

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
        """Write one job's replayable identity atomically."""
        document = {
            "format": JOURNAL_FORMAT,
            "id": job.id,
            "seq": job.seq,
            "workload": job.cell.workload_spec,
            "config": job.cell.config.to_dict(),
        }
        self._write(self.path_for(job.id), document)

    def forget(self, job_id: str) -> None:
        """Remove a terminal job's entry (idempotent)."""
        try:
            self.path_for(job_id).unlink()
        except FileNotFoundError:
            pass

    def _write(self, path: Path, document: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(document, sort_keys=True))
        tmp.replace(path)

    def _quarantine(self, path: Path, reason: Exception | str) -> None:
        """Move one unreadable entry aside (never delete, never trust)."""
        self.quarantined += 1
        prefix = "" if path.parent == self.root else f"{path.parent.name}-"
        target = self.quarantine_dir / f"{prefix}{path.name}"
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            path.replace(target)
            where = f"quarantined to {QUARANTINE_DIRNAME}/{target.name}"
        except OSError:
            where = "could not be moved; skipped in place"
        print(f"[serve] journal entry {path.name} is unreadable "
              f"({reason}); {where}", file=sys.stderr)

    def load(self) -> list[tuple[str, SweepCell]]:
        """Replayable ``(job_id, cell)`` pairs in submission order.

        Corrupt, truncated, or stale-format entries are quarantined
        under ``quarantine/`` (logged + counted in ``quarantined``) and
        skipped — a bad journal file must not stop the server from
        booting, and moving it aside guarantees the next restart does
        not trip over it again.
        """
        entries: list[tuple[int, str, SweepCell]] = []
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
                cell = SweepCell(
                    workload_spec=data["workload"],
                    config=SimulatorConfig.from_dict(data["config"]),
                )
                entries.append((int(data["seq"]), str(data["id"]), cell))
            except Exception as exc:  # noqa: BLE001 — skip, never crash
                self._quarantine(path, exc)
        entries.sort(key=lambda item: (item[0], item[1]))
        return [(job_id, cell) for _, job_id, cell in entries]

    # --- per-worker lease WALs ---------------------------------------------
    def worker_dir(self, worker: int) -> Path:
        return self.root / f"worker-{worker}"

    def record_lease(self, worker: int, job: Job, attempt: int) -> None:
        """Write-ahead record: worker ``worker`` now owns ``job``.

        Written *before* the job is handed to the worker, so a
        daemon crash mid-execution still knows the attempt count on
        restart.
        """
        document = {
            "format": JOURNAL_FORMAT,
            "id": job.id,
            "seq": job.seq,
            "worker": worker,
            "attempt": attempt,
            "key": job.key,
        }
        self._write(self.worker_dir(worker) / f"{job.id}.json", document)

    def forget_lease(self, worker: int, job_id: str) -> None:
        """Remove one lease entry (idempotent)."""
        try:
            (self.worker_dir(worker) / f"{job_id}.json").unlink()
        except FileNotFoundError:
            pass

    def load_leases(self, worker: int | None = None) -> list[dict]:
        """Lease entries for one worker (or all), oldest first.

        Unreadable lease entries are quarantined exactly like main
        journal entries — a torn lease write costs at most one attempt
        count, never the replay.
        """
        if not self.root.is_dir():
            return []
        if worker is not None:
            dirs = [self.worker_dir(worker)]
        else:
            dirs = sorted(self.root.glob("worker-*"))
        entries: list[dict] = []
        for directory in dirs:
            if not directory.is_dir():
                continue
            for path in sorted(directory.glob("*.json")):
                try:
                    data = json.loads(path.read_text())
                    if data.get("format") != JOURNAL_FORMAT:
                        raise ValueError(
                            f"lease format {data.get('format')!r} != "
                            f"{JOURNAL_FORMAT}"
                        )
                    entries.append({
                        "id": str(data["id"]),
                        "seq": int(data["seq"]),
                        "worker": int(data["worker"]),
                        "attempt": int(data["attempt"]),
                        "key": str(data.get("key", "")),
                    })
                except Exception as exc:  # noqa: BLE001
                    self._quarantine(path, exc)
        entries.sort(key=lambda entry: (entry["seq"], entry["id"]))
        return entries

    def clear_leases(self) -> None:
        """Drop every lease entry (the owning processes are gone).

        Called once at daemon startup *after* attempt counts have been
        folded into the replayed jobs.
        """
        if not self.root.is_dir():
            return
        for directory in self.root.glob("worker-*"):
            if not directory.is_dir():
                continue
            for path in directory.glob("*.json"):
                try:
                    path.unlink()
                except FileNotFoundError:
                    pass
