"""Every test PROTOCOL.md cites exists.

The spec points at tests as its evidence (``tests/core/test_sweep.py``,
``test_two_front_doors_one_core``); a citation that outlives a rename or
a deletion is a guarantee that silently lost its pin.

Run outputs under ``benchmarks/reports/`` are not citations of tests: the
spec names them as what a benchmark writes, and git never holds them.
"""

from __future__ import annotations

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PROTOCOL = ROOT / "docs" / "PROTOCOL.md"

#: A cited file: a path under one of the test trees, with an extension.
#: Paths under ``REPORTS`` match too; they are run outputs, not citations.
CITED_PATH = re.compile(r"\b(?:tests|benchmarks|bench)/[\w/]+\.\w+")
CITED_NAME = re.compile(r"\btest_\w+\b(?!\.py)")
DEFINED_NAME = re.compile(r"^\s*(?:async\s+)?(?:def|class)\s+(test_\w+)", re.M)

#: Where ``benchmarks/conftest.py::REPORTS_DIR`` writes each benchmark
#: run's reports; ``.gitignore`` keeps them out of the repo, so they exist
#: only once a benchmark has run.
REPORTS = "benchmarks/reports/"


def _defined_test_names() -> set[str]:
    names: set[str] = set()
    for tree in ("tests", "benchmarks", "bench"):
        for path in (ROOT / tree).rglob("*.py"):
            names.update(DEFINED_NAME.findall(path.read_text(encoding="utf-8")))
    return names


@pytest.mark.contract
def test_every_test_cited_in_protocol_exists():
    # A path wrapped after its directory still names one file.
    text = PROTOCOL.read_text(encoding="utf-8").replace("/\n", "/")
    paths = set(CITED_PATH.findall(text))
    names = set(CITED_NAME.findall(CITED_PATH.sub(" ", text)))
    assert paths and names, "PROTOCOL.md cites no tests: the patterns rotted"
    # Leaving the reports out is sound only while git ignores them.
    ignored = (ROOT / ".gitignore").read_text(encoding="utf-8").splitlines()
    assert REPORTS in ignored, f"git no longer ignores {REPORTS}: check its files"
    paths = {p for p in paths if not p.startswith(REPORTS)}
    assert paths, "PROTOCOL.md cites only run outputs: the patterns rotted"
    assert sorted(p for p in paths if not (ROOT / p).exists()) == []
    assert sorted(names - _defined_test_names()) == []
