"""The sweep's contract: determinism, crash containment, degrade.

The load-bearing property is **bit-identical merges**: the same cells
with the same campaign seed must produce byte-for-byte identical merged
JSON whether they ran in-process, on one worker, or on four — including
runs where a worker was killed mid-cell and the pool rebuilt.
"""

from __future__ import annotations

import json
import multiprocessing.process
import os

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.seeding import derive_seed
from repro.core.sweep import (
    SweepCell,
    SweepError,
    run_sweep,
)
from repro.telemetry import MetricsRegistry


def echo_cell(params: dict, seed: int) -> dict:
    """Deterministic cell: result depends only on (params, seed)."""
    return {"value": params["x"] * 3 + 1, "seed": seed}


def crash_once_cell(params: dict, seed: int) -> dict:
    """Dies on first execution of the marked cell, succeeds on retry.

    The marker file records that the first attempt happened; ``os._exit``
    skips all interpreter cleanup — a genuine worker loss, not a Python
    exception.
    """
    if params.get("crash_marker") and not os.path.exists(
        params["crash_marker"]
    ):
        with open(params["crash_marker"], "w"):
            pass
        os._exit(17)
    return {"value": params["x"], "seed": seed}


def always_crash_cell(params: dict, seed: int) -> dict:
    os._exit(17)


def raising_cell(params: dict, seed: int) -> dict:
    raise ValueError("deliberate cell failure")


def make_cells(n: int) -> list[SweepCell]:
    return [
        SweepCell(labels=("cell", i), params={"x": i}) for i in range(n)
    ]


# ----------------------------------------------------------------------
# Determinism: in-process == 1 worker == N workers
# ----------------------------------------------------------------------
@given(
    n_cells=st.integers(min_value=0, max_value=12),
    campaign_seed=st.integers(min_value=0, max_value=2**32),
    pooled_workers=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=8, deadline=None)
def test_merged_json_identical_across_worker_counts(
    n_cells, campaign_seed, pooled_workers
):
    cells = make_cells(n_cells)
    results_inproc, _ = run_sweep(
        echo_cell, cells, campaign_seed=campaign_seed, workers=0
    )
    results_one, _ = run_sweep(
        echo_cell, cells, campaign_seed=campaign_seed, workers=1
    )
    results_pool, _ = run_sweep(
        echo_cell, cells, campaign_seed=campaign_seed, workers=pooled_workers
    )
    merged = [json.dumps(r, sort_keys=True) for r in
              (results_inproc, results_one, results_pool)]
    assert merged[0] == merged[1] == merged[2]


def test_results_return_in_cell_order_not_completion_order():
    cells = make_cells(16)
    results, _ = run_sweep(echo_cell, cells, campaign_seed=9, workers=4)
    assert [r["value"] for r in results] == [i * 3 + 1 for i in range(16)]


def test_cell_seeds_are_label_derived():
    cells = make_cells(3)
    results, _ = run_sweep(echo_cell, cells, campaign_seed=77, workers=0)
    for i, result in enumerate(results):
        assert result["seed"] == derive_seed(77, "sweep", "cell", i)


def test_cell_seed_independent_of_position():
    """Reordering the cell list reorders results but not per-cell seeds."""
    cells = make_cells(5)
    forward, _ = run_sweep(echo_cell, cells, campaign_seed=3, workers=0)
    backward, _ = run_sweep(
        echo_cell, list(reversed(cells)), campaign_seed=3, workers=0
    )
    assert forward == list(reversed(backward))


# ----------------------------------------------------------------------
# Crash containment
# ----------------------------------------------------------------------
def test_crash_redispatches_exactly_once(tmp_path):
    marker = str(tmp_path / "crashed")
    cells = make_cells(6)
    cells[3] = SweepCell(
        labels=("cell", 3), params={"x": 3, "crash_marker": marker}
    )
    results, stats = run_sweep(crash_once_cell, cells, campaign_seed=5, workers=2)
    assert [r["value"] for r in results] == list(range(6))
    assert os.path.exists(marker)  # the first attempt really ran
    # A dead worker breaks the whole pool: every cell unfinished at that
    # moment (the crashed one at least) is resubmitted to one new pool.
    assert stats.worker_restarts == 1
    assert 1 <= stats.cells_redispatched <= 6
    assert stats.cells_completed == 6


def test_crash_does_not_change_merged_output(tmp_path):
    marker = str(tmp_path / "crashed-det")
    clean_cells = make_cells(6)
    crash_cells = list(clean_cells)
    crash_cells[2] = SweepCell(
        labels=("cell", 2), params={"x": 2, "crash_marker": marker}
    )
    clean, _ = run_sweep(crash_once_cell, clean_cells,
                         campaign_seed=11, workers=0)
    crashed, stats = run_sweep(crash_once_cell, crash_cells,
                               campaign_seed=11, workers=2)
    assert stats.worker_restarts == 1
    assert json.dumps(clean, sort_keys=True) == json.dumps(
        crashed, sort_keys=True
    )


def test_repeated_crash_raises_sweep_error():
    with pytest.raises(SweepError, match="broke twice"):
        run_sweep(always_crash_cell, make_cells(3), workers=2)


@pytest.mark.parametrize("workers", [0, 2])
def test_cell_exception_raises_sweep_error(workers):
    """Both modes raise the same error: ``SweepError`` naming the cell,
    chained from the cell's own exception.  Pooled, the message also
    carries the worker-side traceback."""
    with pytest.raises(SweepError, match=r"\('cell', 1\)") as held:
        run_sweep(raising_cell, make_cells(2)[1:], workers=workers)
    assert isinstance(held.value.__cause__, ValueError)
    assert "deliberate cell failure" in str(held.value)
    if workers:
        assert "Traceback" in str(held.value)
        assert "raising_cell" in str(held.value)


# ----------------------------------------------------------------------
# Lifecycle, validation, degrade
# ----------------------------------------------------------------------
def test_duplicate_labels_rejected():
    cells = [SweepCell(labels=("dup",)), SweepCell(labels=("dup",))]
    with pytest.raises(SweepError, match="duplicate"):
        run_sweep(echo_cell, cells, workers=0)


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="counts fds through /proc"
)
def test_failed_worker_start_releases_the_pipe(monkeypatch):
    """``Process.start`` raising (EAGAIN) must not orphan the pipe pair
    made for that worker: both ends are closed by the time the error
    reaches the caller, not whenever its traceback is collected."""

    def refuse(self):
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    before = len(os.listdir("/proc/self/fd"))
    with pytest.raises(OSError) as held:
        run_sweep(echo_cell, make_cells(2), workers=2)
    assert len(os.listdir("/proc/self/fd")) == before
    del held


def test_negative_workers_rejected():
    with pytest.raises(ValueError):
        run_sweep(echo_cell, make_cells(1), workers=-1)


def test_auto_degrades_below_min_cores(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    results, stats = run_sweep(echo_cell, make_cells(4))
    assert stats.in_process and stats.workers == 0
    assert [r["value"] for r in results] == [1, 4, 7, 10]


def test_auto_honors_explicit_workers(monkeypatch):
    """An explicit worker count is always honored, whatever the box."""
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    results, stats = run_sweep(echo_cell, make_cells(3), workers=2)
    assert not stats.in_process and stats.workers == 2
    assert [r["value"] for r in results] == [1, 4, 7]


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
def test_telemetry_exports_sweep_counters():
    registry = MetricsRegistry()
    run_sweep(echo_cell, make_cells(5), campaign_seed=2, workers=0,
              telemetry=registry)
    snapshot = registry.snapshot()
    assert snapshot.counters["sweep.cells_total"] == 5.0
    assert snapshot.counters["sweep.cells_completed"] == 5.0
    assert snapshot.counters["sweep.sweeps"] == 1.0
    # Configuration levels are gauges: a delta of them means nothing.
    assert snapshot.gauges["sweep.in_process"] == 1.0
    assert snapshot.gauges["sweep.workers"] == 0.0
    assert "sweep.in_process" not in snapshot.counters
