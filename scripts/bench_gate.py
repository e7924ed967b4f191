#!/usr/bin/env python
"""Throughput gate: perfbench on a change against its parent commit.

Usage::

    python scripts/bench_gate.py PARENT_CHECKOUT CHANGE_CHECKOUT

For every workload in the change's ``BENCHMARK.json`` it runs the
benchmark command (``perfbench/run.py --workload W --seconds 5``) in
both checkouts, ``PAIRS`` times each, alternating which side runs first.
It fails (exit 1) when any run reports ``correct`` false or
``failed > 0``, or when the change's median of a ``GATED`` metric is
worse than the parent's by more than that metric's ``bound`` (a share
of the parent's median, in the metric's ``better`` direction).  The
other end-to-end medians print for information only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 3
SECONDS = 5
GATED = ("accesses_per_s.reference", "accesses_per_s.fast")


def perfbench(checkout: Path, command: list[str], workload: str) -> dict:
    """One benchmark run; returns its last-line result."""
    done = subprocess.run([*command, "--workload", workload,
                           "--seconds", str(SECONDS)], cwd=checkout,
                          capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode or not lines:
        return {"correct": False, "failed": None,
                "error": (done.stderr.splitlines() or ["no output"])[-1]}
    return json.loads(lines[-1])


def judge(spec: dict, workload: str, parent: list[dict],
          change: list[dict]) -> list[str]:
    """Print one workload's medians; return its failures."""
    failures = [f"{workload}: a {side} run reports correct="
                f"{run.get('correct')} failed={run.get('failed')} "
                f"{run.get('error', '')}".rstrip()
                for side, runs in (("parent", parent), ("change", change))
                for run in runs
                if run.get("correct") is not True or run.get("failed") != 0]
    if failures:
        return failures
    print(f"\n{workload}\n  {'metric':34s} {'parent':>12s} "
          f"{'change':>12s} {'worse by':>9s} {'bound':>6s}  verdict")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        old, new = (statistics.median(run["metrics"][name]["value"]
                                      for run in runs)
                    for runs in (parent, change))
        sign = 1 if metric["better"] == "lower" else -1
        worse = sign * (new - old) / old if old else 0.0
        verdict = ("ok" if worse <= bound else "WORSE") if name in GATED \
            else "info"
        if verdict == "WORSE":
            failures.append(f"{workload}: {name} median {new:.6g} is "
                            f"{worse:.0%} worse than {old:.6g}")
        print(f"  {name:34s} {old:12.6g} {new:12.6g} {worse:9.1%} "
              f"{bound:6.0%}  {verdict}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        parent: list[dict] = []
        change: list[dict] = []
        sides = [(args.parent, parent), (args.change, change)]
        for index in range(PAIRS):
            for checkout, runs in sides[::-1] if index % 2 else sides:
                runs.append(perfbench(checkout, spec["command"], workload))
        failures += judge(spec, workload, parent, change)
    for failure in failures:
        print(f"FAIL {failure}")
    print("FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
