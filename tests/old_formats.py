"""What cells of earlier formats carried that the current format does not.

Each format of the run cache and the job journal dropped config fields
that no caller set.  Format 2 dropped seven: the L2 proxy (``l2_*``),
the PCI-e calibration table and the radix-walk knobs.  Format 3 dropped
five: the access-trace and timeline stride/cap knobs and the per-config
invariant switch.  Every older entry on disk holds them, with the values
below (no caller ever set another).  Tests use them to build an entry of
an older format and to check that input naming a removed field is
rejected by name.

Format-3 entries were also written before a workload spec was bound to
its canonical form, so one may hold a spec the way it was submitted:
a shorthand the binder completes, or a parameter the binder refuses.
"""

#: Fields format 2 dropped, as every format-1 entry holds them.
FORMAT1_FIELDS = {
    "l2_capacity_pages": 1024,
    "l2_enabled": False,
    "l2_miss_cycles": 200,
    "l2_ways": 16,
    "pcie_calibration": None,
    "pwc_entries": 64,
    "radix_cycles_per_level": 50,
}

#: Fields format 3 dropped, as every format-1 and format-2 entry holds
#: them.
FORMAT2_FIELDS = {
    "access_trace_cap": 0,
    "access_trace_stride": 1,
    "check_invariants_on_completion": None,
    "timeline_cap": 0,
    "timeline_stride": 1,
}

REMOVED_CONFIG_FIELDS = {**FORMAT1_FIELDS, **FORMAT2_FIELDS}


def as_format(document: dict, version: int) -> dict:
    """A current cache or journal entry as format ``version`` (1 or 2)
    wrote it (its key or id aside, which hashed the longer config)."""
    config = {**document["config"], **FORMAT2_FIELDS}
    if version == 1:
        config.update(FORMAT1_FIELDS)
    return {**document, "format": version, "config": config}


#: Workload specs a format-3 journal entry may hold from before binding,
#: by what replay does with them.
UNBOUND_WORKLOADS = {
    "replays": {"name": "bfs", "scale": 1},
    "quarantined": {"name": "bfs", "scale": 0.05, "bogus": 1},
}


def as_unbound(document: dict, workload: dict) -> dict:
    """A current journal entry as it was written before binding, for a
    job submitted with ``workload`` (its id aside)."""
    return {**document, "workload": workload}
