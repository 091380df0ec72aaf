"""Smoke test: the whole suite at 1/20 size, traced, validates against
BENCHMARK.json.  Not part of tier-1 (``testpaths`` is ``tests``); run it
with ``python -m pytest bench/tests``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time

from bench import REPO_ROOT
from bench.common import RESULTS_DIR

LABEL = "quick-smoke-test"
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def test_quick_suite_matches_benchmark_json():
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--quick", "--trace", "--label", LABEL],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    # ~12 s on the 2-core reference box; the slack is for a loaded one.
    assert elapsed < 60

    path = RESULTS_DIR / f"{LABEL}.json"
    try:
        ledger = json.loads(path.read_text())
    finally:
        path.unlink(missing_ok=True)
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())

    declared = [workload["name"] for workload in spec["workloads"]]
    assert sorted(ledger["workloads"]) == sorted(declared)
    assert len(set(declared)) == len(declared)
    for view in ("end_to_end", "per_layer"):
        names = [metric["name"] for metric in spec[view]]
        assert len(set(names)) == len(names), f"{view}: duplicate metric"
        assert all(NAME.match(name) for name in names)
        for workload in declared:
            entry = ledger["workloads"][workload]
            assert entry["fail_ratio"] == 0 and entry["failed"] == 0, workload
            assert sorted(entry[view]) == sorted(names), (workload, view)
            for metric in spec[view]:
                reading = entry[view][metric["name"]]
                assert reading["unit"] == metric["unit"] != ""
                assert isinstance(reading["value"], (int, float))

    # The predictions the seed ledger must bear out hold at any size.
    loads = ledger["workloads"]

    def layer(workload: str, metric: str) -> float:
        return loads[workload]["per_layer"][metric]["value"]

    assert abs(layer("fig4-steady", "core.transport.sniffed_share") - 0.02) < 1e-9
    assert layer("fig4-newflow", "core.transport.sniffed_share") == 1.0
    assert layer("verify-pool", "core.parallel.fallbacks") == 0
    for workload in ("fig4-steady", "fig4-newflow", "fig4-hostile"):
        spans = loads[workload]["trace"]["rows"]
        assert not [name for name in spans if name.startswith("billing.")]
    assert not [
        name
        for name in loads["cp-churn"]["trace"]["rows"]
        if name.startswith("core.netserver.")
    ]
    for workload in declared:
        trace = loads[workload]["trace"]
        covered = sum(
            row["share_of_round"]
            for row in trace["rows"].values()
            if not row["detached"]
        )
        assert abs(covered - 1.0) < 0.10, (workload, covered)
        assert layer(workload, "driver.trace_overhead_ratio") > 0
