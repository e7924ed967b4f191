#!/usr/bin/env python
"""Engine-throughput regression gate over the stored bench trajectory.

Usage::

    python scripts/bench_gate.py BENCH_core.json            # gate
    python scripts/bench_gate.py BENCH_core.json --record v7 # store entry

Compares a fresh ``repro bench`` report against the best entry stored
under ``benchmarks/trajectory/`` and fails (exit 1) when any cell's
**fast-engine nominal throughput** (``nominal_accesses_per_sec``)
is more than ``--threshold`` (default 30%) below the best stored entry
that carries the field.

Nominal throughput divides the accesses by the run's wall time scaled
with a fixed calibration loop timed just before and after it (see
``repro.bench.calibrate``), so a host that is slower for a while, or a
different runner, reads about the same figure.  The fast-over-reference
speedup is not gated: it also falls when the *reference* engine gets
faster, which would read as a fast-engine regression.  It is printed
as information, and entries stored without the nominal field are
ignored.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SCHEMA = "repro-bench-core/v1"
DEFAULT_TRAJECTORY = Path(__file__).resolve().parent.parent \
    / "benchmarks" / "trajectory"
FIELD = "nominal_accesses_per_sec"


def load_report(path: Path) -> dict:
    report = json.loads(path.read_text())
    if report.get("schema") != SCHEMA:
        sys.exit(f"{path}: expected schema {SCHEMA!r}, "
                 f"got {report.get('schema')!r}")
    return report


def best_stored(trajectory: Path) -> dict[str, tuple[float, str]]:
    """cell name -> (best stored fast nominal accesses/s, entry filename).

    Entries without the nominal field are skipped.
    """
    best: dict[str, tuple[float, str]] = {}
    if not trajectory.is_dir():
        return best
    for entry_path in sorted(trajectory.glob("*.json")):
        entry = load_report(entry_path)
        for cell in entry["cells"]:
            value = cell["engines"]["fast"].get(FIELD)
            if value is None:
                continue
            name = cell["cell"]
            if name not in best or value > best[name][0]:
                best[name] = (value, entry_path.name)
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", type=Path,
                        help="BENCH_core.json from `repro bench`")
    parser.add_argument("--trajectory", type=Path,
                        default=DEFAULT_TRAJECTORY,
                        help="stored trajectory directory")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="max allowed fractional drop of fast nominal "
                             "throughput")
    parser.add_argument("--record", metavar="LABEL",
                        help="store the report as <trajectory>/<LABEL>.json "
                             "after gating")
    args = parser.parse_args(argv)

    report = load_report(args.report)
    best = best_stored(args.trajectory)

    failures = []
    print(f"{'cell':22s} {'ref nom/s':>10s} {'fast nom/s':>11s} "
          f"{'best':>10s} {'speedup':>8s}  verdict")
    print("-" * 80)
    for cell in report["cells"]:
        name = cell["cell"]
        ref = cell["engines"]["reference"][FIELD]
        fast = cell["engines"]["fast"][FIELD]
        stored = best.get(name)
        if stored is None:
            verdict, baseline = "no baseline", "-"
        else:
            floor = stored[0] * (1.0 - args.threshold)
            baseline = f"{stored[0]:.0f}"
            if fast < floor:
                verdict = f"REGRESSED (<{floor:.0f}, vs {stored[1]})"
                failures.append(name)
            else:
                verdict = "ok"
        print(f"{name:22s} {ref:10.0f} {fast:11.0f} {baseline:>10s} "
              f"{cell['speedup']:7.2f}x  {verdict}")

    if failures:
        print(f"\nFAIL: fast nominal throughput dropped "
              f">{args.threshold:.0%} on: {', '.join(failures)}")
        return 1
    if args.record:
        args.trajectory.mkdir(parents=True, exist_ok=True)
        target = args.trajectory / f"{args.record}.json"
        target.write_text(json.dumps(report, indent=2, sort_keys=True)
                          + "\n")
        print(f"\nrecorded {target}")
    print("\nPASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
