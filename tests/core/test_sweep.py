"""The sweep executor's contract: determinism, crash containment, degrade.

The load-bearing property is **bit-identical merges**: the same cells
with the same campaign seed must produce byte-for-byte identical merged
JSON whether they ran in-process, on one worker, or on four — including
runs where a worker was killed mid-cell and the cell re-dispatched.
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
    SweepExecutor,
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
    with SweepExecutor(crash_once_cell, workers=2, campaign_seed=5) as ex:
        results = ex.run(cells)
    assert [r["value"] for r in results] == list(range(6))
    assert os.path.exists(marker)  # the first attempt really ran
    assert ex.stats.cells_redispatched == 1
    assert ex.stats.worker_restarts == 1
    assert ex.stats.cells_completed == 6


def test_crash_does_not_change_merged_output(tmp_path):
    marker = str(tmp_path / "crashed-det")
    clean_cells = make_cells(6)
    crash_cells = list(clean_cells)
    crash_cells[2] = SweepCell(
        labels=("cell", 2), params={"x": 2, "crash_marker": marker}
    )
    clean, _ = run_sweep(crash_once_cell, clean_cells,
                         campaign_seed=11, workers=0)
    with SweepExecutor(crash_once_cell, workers=2, campaign_seed=11) as ex:
        crashed = ex.run(crash_cells)
    assert ex.stats.cells_redispatched == 1
    assert json.dumps(clean, sort_keys=True) == json.dumps(
        crashed, sort_keys=True
    )


def test_repeated_crash_raises_sweep_error():
    with SweepExecutor(always_crash_cell, workers=2) as ex:
        with pytest.raises(SweepError, match="exactly-once"):
            ex.run(make_cells(3))


def test_cell_exception_propagates_with_worker_traceback():
    with SweepExecutor(raising_cell, workers=2) as ex:
        with pytest.raises(SweepError, match="deliberate cell failure"):
            ex.run(make_cells(2))


def test_cell_exception_in_process_mode():
    with SweepExecutor(raising_cell, workers=0) as ex:
        with pytest.raises(ValueError, match="deliberate cell failure"):
            ex.run(make_cells(1))


# ----------------------------------------------------------------------
# Lifecycle, validation, degrade
# ----------------------------------------------------------------------
def test_duplicate_labels_rejected():
    cells = [SweepCell(labels=("dup",)), SweepCell(labels=("dup",))]
    with SweepExecutor(echo_cell, workers=0) as ex:
        with pytest.raises(SweepError, match="duplicate"):
            ex.run(cells)


def test_closed_executor_rejects_runs():
    ex = SweepExecutor(echo_cell, workers=0)
    ex.close()
    with pytest.raises(SweepError, match="closed"):
        ex.run(make_cells(1))
    ex.close()  # idempotent


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
        SweepExecutor(echo_cell, workers=2)
    assert len(os.listdir("/proc/self/fd")) == before
    del held


def test_negative_workers_rejected():
    with pytest.raises(ValueError):
        SweepExecutor(echo_cell, workers=-1)


def test_auto_degrades_below_min_cores(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    with SweepExecutor.auto(echo_cell) as ex:
        assert ex.in_process
        results = ex.run(make_cells(4))
    assert [r["value"] for r in results] == [1, 4, 7, 10]


def test_auto_honors_explicit_workers(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    with SweepExecutor.auto(echo_cell, workers=2) as ex:
        assert not ex.in_process
        assert ex.stats.workers == 2
        ex.run(make_cells(3))


def test_warm_workers_survive_across_sweeps():
    with SweepExecutor(echo_cell, workers=2, campaign_seed=1) as ex:
        ex.run(make_cells(4))
        procs_before = [p.pid for p in ex._procs]
        ex.run(make_cells(4))
        assert [p.pid for p in ex._procs] == procs_before
        assert ex.stats.sweeps == 2
        assert ex.stats.worker_restarts == 0


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
def test_telemetry_exports_sweep_counters():
    registry = MetricsRegistry()
    with SweepExecutor(echo_cell, workers=0, campaign_seed=2) as ex:
        ex.register_telemetry(registry)
        ex.run(make_cells(5))
        snapshot = registry.snapshot()
    assert snapshot.counters["sweep.cells_total"] == 5.0
    assert snapshot.counters["sweep.cells_completed"] == 5.0
    assert snapshot.counters["sweep.sweeps"] == 1.0
    # Configuration levels are gauges: a delta of them means nothing.
    assert snapshot.gauges["sweep.in_process"] == 1.0
    assert snapshot.gauges["sweep.workers"] == 0.0
    assert "sweep.in_process" not in snapshot.counters
