"""Pinned bytes of the one cell form and the one result form on disk and
on the wire.

A cell and its result cross the run cache, the journal and the HTTP
result body in the forms of ``repro.sweep`` (``SweepCell.to_dict``,
``encode_result``).  The golden files under ``tests/data/forms/`` were
written by the code before those forms were shared, so these checks fail
on any byte change a refactor makes to a cache entry, a journal entry or
a result body — and on a reader that no longer accepts files already on
users' disks.  Regenerate them (``PYTHONPATH=src python
tests/test_result_forms.py``) only for an intended format change, which
also bumps ``CACHE_FORMAT`` or ``JOURNAL_FORMAT``.
"""

import http.client
import json
import shutil
import sys
from pathlib import Path

from repro.config import SimulatorConfig
from repro.serve.journal import JobJournal
from repro.serve.server import SimulationService, shard_server
from repro.stats import FailedRun, SimStats
from repro.sweep import RunCache, SweepCell, decode_result, encode_result

GOLDEN = Path(__file__).resolve().parent / "data" / "forms"

#: The pinned result bodies, one per terminal state, in job order.
RESULTS = ("done", "failed", "cancelled")


def tiny_cell(seed: int) -> SweepCell:
    return SweepCell(workload_spec={"name": "gemm", "scale": 0.05},
                     config=SimulatorConfig(seed=seed))


def tiny_stats() -> SimStats:
    stats = SimStats()
    stats.far_faults = 3
    stats.pages_migrated = 5
    stats.eviction_stall_ns = 1234.5
    return stats


TINY_FAILED = FailedRun("gemm", "SimulationError", "synthetic failure")


def _get(port: int, path: str) -> bytes:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        assert response.status == 200, path
        return response.read()
    finally:
        conn.close()


def write_forms(root: Path) -> dict[str, bytes]:
    """Every pinned artifact, written through the program's own code:
    two cache entries, one journal entry and three result bodies."""
    forms: dict[str, bytes] = {}
    cache = RunCache(root / "cache")
    for name, cell, result in (("cache-stats.json", tiny_cell(1),
                                tiny_stats()),
                               ("cache-failed.json", tiny_cell(2),
                                TINY_FAILED)):
        key = cell.cache_key()
        cache.store(key, cell, result)
        forms[name] = cache.path_for(key).read_bytes()

    journal = JobJournal(root / "journal")
    service = SimulationService(jobs=1, journal=journal)
    jobs = [service.admit(tiny_cell(seed))[0] for seed in (1, 2, 3)]
    forms["journal.json"] = journal.path_for(jobs[0].id).read_bytes()
    for job, result in zip(jobs, (tiny_stats(), TINY_FAILED)):
        assert service.queue.take() is job
        service.finish_job(job, result, cache_hit=False)
    service.cancel(jobs[2].id)
    server = shard_server(service)
    server.start_background()
    try:
        for name, job in zip(RESULTS, jobs):
            forms[f"result-{name}.json"] = _get(
                server.port, f"/v1/jobs/{job.id}/result")
    finally:
        server.shutdown(timeout=10)
        server.close()
    return forms


def test_forms_are_byte_identical_to_the_golden_files(tmp_path):
    forms = write_forms(tmp_path)
    assert sorted(forms) == sorted(p.name for p in GOLDEN.iterdir())
    for name, data in forms.items():
        assert data == (GOLDEN / name).read_bytes(), name


def test_golden_cache_entries_read_back_as_hits(tmp_path):
    cache = RunCache(tmp_path)
    for name, cell, expected in (("cache-stats.json", tiny_cell(1),
                                  tiny_stats()),
                                 ("cache-failed.json", tiny_cell(2),
                                  TINY_FAILED)):
        path = cache.path_for(cell.cache_key())
        path.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(GOLDEN / name, path)
        assert cache.load(cell.cache_key()) == expected
    assert (cache.hits, cache.misses, cache.quarantined) == (2, 0, 0)


def test_golden_journal_entry_replays(tmp_path):
    journal = JobJournal(tmp_path)
    job_id = f"j000001-{tiny_cell(1).cache_key()[:12]}"
    shutil.copy(GOLDEN / "journal.json", journal.path_for(job_id))
    [(replayed_id, cell, attempts)] = journal.load()
    assert replayed_id == job_id and attempts == 0
    assert cell.cache_key() == tiny_cell(1).cache_key()
    assert journal.quarantined == 0


def test_result_bodies_decode_to_the_results():
    decoded = [decode_result(json.loads(
        (GOLDEN / f"result-{name}.json").read_bytes())["result"])
        for name in RESULTS]
    assert decoded == [tiny_stats(), TINY_FAILED, None]
    assert [encode_result(r) for r in decoded] == [
        json.loads((GOLDEN / f"result-{name}.json").read_bytes())["result"]
        for name in RESULTS]


def test_a_cancelled_cache_entry_is_quarantined(tmp_path):
    cache = RunCache(tmp_path)
    cell = tiny_cell(1)
    key = cell.cache_key()
    entry = json.loads((GOLDEN / "cache-stats.json").read_bytes())
    entry["result"] = {"kind": "cancelled"}
    path = cache.path_for(key)
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps(entry, sort_keys=True))
    assert cache.load(key) is None
    assert (cache.hits, cache.misses, cache.quarantined) == (0, 1, 1)
    assert not path.exists()
    assert (cache.quarantine_dir / path.name).exists()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.mkdir(parents=True, exist_ok=True)
        for name, data in write_forms(Path(scratch)).items():
            (GOLDEN / name).write_bytes(data)
            print(f"wrote {GOLDEN / name}", file=sys.stderr)
