"""Documentation health: the README quickstart executes, and the docs
reference only registry names that exist."""

import inspect
import pathlib
import re

import pytest

from repro.core.evict import EVICTION_REGISTRY
from repro.core.prefetch import PREFETCHER_REGISTRY
from repro.workloads.registry import WORKLOAD_REGISTRY

ROOT = pathlib.Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (ROOT / name).read_text(encoding="utf-8")


class TestReadme:
    def test_quickstart_snippet_executes(self):
        readme = read("README.md")
        blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
        assert blocks, "README must contain a python quickstart"
        namespace: dict = {}
        exec(blocks[0], namespace)  # noqa: S102 - executing our own docs

    def test_mentions_all_deliverable_files(self):
        readme = read("README.md")
        for name in ("DESIGN.md", "EXPERIMENTS.md", "examples/",
                     "benchmarks/"):
            assert name in readme

    def test_policy_names_in_readme_exist(self):
        readme = read("README.md")
        for name in ("sequential-local", "tbn", "lru4k", "lru2mb",
                     "zheng512"):
            assert name in readme
            assert name in PREFETCHER_REGISTRY \
                or name in EVICTION_REGISTRY


class TestPolicyDocs:
    def test_policies_doc_covers_every_registry_entry(self):
        doc = read("docs/POLICIES.md")
        for name in PREFETCHER_REGISTRY:
            assert f"`{name}`" in doc, f"prefetcher {name} undocumented"
        for name in EVICTION_REGISTRY:
            if name == "lru4k-validated":
                assert name in doc
                continue
            assert f"`{name}`" in doc, f"eviction {name} undocumented"


class TestWorkloadDocs:
    def test_workloads_doc_covers_every_registry_entry(self):
        doc = read("docs/WORKLOADS.md")
        for name in WORKLOAD_REGISTRY:
            assert name in doc, f"workload {name} undocumented"

    def test_spec_table_matches_the_constructors(self):
        doc = read("docs/WORKLOADS.md")
        rows = dict(re.findall(r"^\| `([a-z]+)` \| (`.*`) \|$", doc,
                               re.MULTILINE))
        for name, cls in WORKLOAD_REGISTRY.items():
            expected = ", ".join(
                f"`{p.name}: {p.annotation} = {p.default!r}`"
                for p in inspect.signature(cls).parameters.values())
            assert rows.get(name) == expected, name


class TestDesignDoc:
    def test_design_maps_every_figure(self):
        design = read("DESIGN.md")
        for figure in ("Table 1", "Fig 3", "Fig 6", "Fig 9", "Fig 11",
                       "Fig 12", "Fig 13", "Fig 14", "Fig 15", "Fig 16"):
            assert figure in design

    def test_experiments_doc_quotes_headline_numbers(self):
        experiments = read("EXPERIMENTS.md")
        assert "18.5%" in experiments  # the Fig 15 headline
        assert "93%" in experiments    # the Fig 11 headline
