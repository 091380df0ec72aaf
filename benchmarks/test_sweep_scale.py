"""Sweep scaling: single-worker floor + bit-identical merges.

A one-worker pool must stay within 10% of the in-process path on
CPU-bound cells, i.e. the pool's start-up, IPC and pickle overhead is
bounded (>= 0.9x).  The two are timed alternately, ``PAIRS`` times each,
and the floor holds the median of the per-pair ratios: a pair's two
sweeps run back to back, so a slow phase of a shared box slows both,
and one outlying pair does not decide the floor.  Which side runs first
alternates from pair to pair, so a box that speeds up or slows down
within a pair favours neither side.  And
the merged JSON must be byte-identical across worker counts — the whole
point of label-derived per-cell seeds.

Results land in ``benchmarks/reports/sweep_scale.json``.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import statistics
import time

from repro.core.sweep import SweepCell, run_sweep

REPORTS_DIR = pathlib.Path(__file__).parent / "reports"

CELLS = 16
CELL_ITERATIONS = 1_200_000
SINGLE_WORKER_FLOOR = 0.9
PAIRS = 9


def heavy_cell(params: dict, seed: int) -> dict:
    """CPU-bound, seed-sensitive cell: a deterministic random walk long
    enough (~0.1 s) that per-cell IPC overhead stays in the noise."""
    rng = random.Random(seed)
    acc = 0.0
    for _ in range(CELL_ITERATIONS):
        acc += rng.random() - 0.5
    return {"walk": round(acc, 9), "x": params["x"], "seed": seed}


def make_cells() -> list[SweepCell]:
    return [
        SweepCell(labels=("scale", i), params={"x": i})
        for i in range(CELLS)
    ]


def timed_sweep(workers: int) -> tuple[str, float]:
    start = time.perf_counter()
    results, stats = run_sweep(
        heavy_cell, make_cells(), campaign_seed=20160822, workers=workers
    )
    elapsed = time.perf_counter() - start
    assert stats.cells_completed == CELLS
    return json.dumps(results, sort_keys=True), elapsed


def test_sweep_scaling_and_determinism(report):
    cpus = os.cpu_count() or 1
    inproc, one = [], []
    for pair in range(PAIRS):
        if pair % 2:
            one.append(timed_sweep(1))
            inproc.append(timed_sweep(0))
        else:
            inproc.append(timed_sweep(0))
            one.append(timed_sweep(1))
    merged_inproc = inproc[0][0]
    t_inproc = statistics.median(elapsed for _, elapsed in inproc)
    t_one = statistics.median(elapsed for _, elapsed in one)

    pair_ratios = [a / b for (_, a), (_, b) in zip(inproc, one)]
    single_worker_ratio = statistics.median(pair_ratios)
    payload = {
        "cpus": cpus,
        "cells": CELLS,
        "pairs": PAIRS,
        "in_process_s": round(t_inproc, 4),
        "one_worker_s": round(t_one, 4),
        "pair_ratios": [round(ratio, 3) for ratio in pair_ratios],
        "single_worker_ratio": round(single_worker_ratio, 3),
        "single_worker_floor": SINGLE_WORKER_FLOOR,
        "merged_json_identical": all(
            merged == merged_inproc for merged, _ in inproc + one
        ),
    }

    REPORTS_DIR.mkdir(exist_ok=True)
    (REPORTS_DIR / "sweep_scale.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    report(f"sweep scale on {cpus} cpus, medians of {PAIRS} alternating "
           f"pairs: in-process {t_inproc:.2f}s, 1 worker {t_one:.2f}s "
           f"(ratio {single_worker_ratio:.2f}x, floor {SINGLE_WORKER_FLOOR}x)")

    assert payload["merged_json_identical"], (
        "merged JSON diverged across worker counts"
    )
    assert single_worker_ratio >= SINGLE_WORKER_FLOOR, payload
