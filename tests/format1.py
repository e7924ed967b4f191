"""What a format-1 cell carried that format 2 does not.

Format 2 of the run cache and the job journal dropped seven config
fields: the L2 proxy (``l2_*``), the PCI-e calibration table and the
radix-walk knobs.  Every format-1 entry on disk holds them, with the
values below (no caller ever set another).  Tests use them to build a
format-1 entry and to check that input naming a removed field is
rejected by name.
"""

REMOVED_CONFIG_FIELDS = {
    "l2_capacity_pages": 1024,
    "l2_enabled": False,
    "l2_miss_cycles": 200,
    "l2_ways": 16,
    "pcie_calibration": None,
    "pwc_entries": 64,
    "radix_cycles_per_level": 50,
}


def as_format1(document: dict) -> dict:
    """A format-2 cache or journal entry as format 1 wrote it (its key
    or id aside, which hashed the longer config)."""
    return {**document, "format": 1,
            "config": {**document["config"], **REMOVED_CONFIG_FIELDS}}
