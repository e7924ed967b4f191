"""Record the correctness digests the benchmark checks every run against.

``python3 perfbench/record_digests.py`` runs every ``faultbound`` and
``steady`` cell on the reference engine and the fig11 cross-product, and
writes ``perfbench/digests.json``: the SHA-256 of each cell's
``SimStats.to_json()``, of the fig11 table text, and of the fig11 cells'
stats joined in sweep order.  Record them on the commit the benchmark is
introduced on; every later run must reproduce them under both engines.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import DIGESTS, import_repro, sha256  # noqa: E402


def main() -> int:
    import_repro()
    from repro.experiments import fig11_combinations
    from repro.sweep import execute_cells
    from simcells import CELLS, FIG11_SCALE, build, execute, fig11_cells

    digests: dict = {}
    for name, cells in CELLS.items():
        digests[name] = {}
        for cell in cells:
            runtime, kernels, _ = build(cell, "reference")
            execute(runtime, kernels)
            digests[name][cell.name] = sha256(runtime.stats.to_json())
    table = fig11_combinations.run(scale=FIG11_SCALE).to_table()
    stats = execute_cells(fig11_cells("reference"))
    digests["fig11"] = {
        "table_sha256": sha256(table),
        "stats_sha256": sha256("\n".join(s.to_json() for s in stats)),
    }
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
