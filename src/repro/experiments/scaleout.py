"""Fig. 4 scale-out: multi-core verification throughput (§5).

The paper reports 20.4 Gb/s on 4 cores — linear scaling — because each
descriptor's cookies are steered to one core (§4.6).  This harness
measures our reproduction of that claim: the same verification-bound
cookie stream is pushed through

- the in-process :class:`~repro.core.distributed.ShardedVerifierPool`
  (one Python core, whatever the shard count), and
- the :class:`~repro.core.parallel.ProcessShardExecutor` at 1/2/4
  (configurable) worker processes,

on identical batches, and wall-clock throughput is compared.  The
workload is *verification-bound*: every cookie is fresh and valid, so
each one pays the full HMAC + replay-cache path — the regime where the
paper's middlebox is CPU-limited and scale-out pays off.

Used by ``benchmarks/test_ablation_scaleout.py`` (asserts ≥3x vs the
in-process pool at 4 workers on ≥4-core machines and a ≥0.9x floor at
1 worker via the degrade path, emits the JSON report CI publishes) and
by ``python -m repro scaleout`` for a human-readable table.

Executors are built with :meth:`ProcessShardExecutor.auto`, so the
measured transport is whatever the box supports (shm rings, or the
in-process degrade mode) and each config row records
``transport``/``degraded`` explicitly.
"""

from __future__ import annotations

import os
import time
from typing import Sequence

from ..core.descriptor import CookieDescriptor
from ..core.distributed import ShardedVerifierPool
from ..core.generator import CookieGenerator
from ..core.parallel import ProcessShardExecutor
from ..core.store import DescriptorStore

__all__ = [
    "build_verification_stream",
    "run_scaleout",
    "format_scaleout_report",
    "DEFAULT_WORKER_COUNTS",
]

DEFAULT_WORKER_COUNTS = (1, 2, 4)
DEFAULT_DESCRIPTORS = 64
DEFAULT_COOKIES = 24_000
DEFAULT_BATCH_SIZE = 2_048
#: Cookies are minted (untimed) before the run; a wide NCT keeps them
#: fresh however slow pre-generation is (same device-under-test framing
#: as fig4_throughput).
STREAM_NCT = 600.0
STREAM_NOW = 100.0


def build_verification_stream(
    descriptors: int = DEFAULT_DESCRIPTORS,
    cookies: int = DEFAULT_COOKIES,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> tuple[DescriptorStore, list[list]]:
    """A verification-bound workload: every cookie unique and valid.

    Returns the store and the stream pre-chunked into rx-burst batches;
    batches are what both pools consume, so the IPC framing cost per
    dispatch is identical across worker counts.
    """
    store = DescriptorStore()
    generators = [
        CookieGenerator(
            store.add(CookieDescriptor.create(service_data=f"svc-{i}")),
            clock=lambda: STREAM_NOW,
        )
        for i in range(descriptors)
    ]
    stream = [
        generators[i % descriptors].generate() for i in range(cookies)
    ]
    return store, [
        stream[start : start + batch_size]
        for start in range(0, len(stream), batch_size)
    ]


def _drive(pool, batches: Sequence[list]) -> int:
    grants = 0
    match_batch = pool.match_batch
    for batch in batches:
        verdicts = match_batch(batch, STREAM_NOW)
        grants += sum(1 for verdict in verdicts if verdict is not None)
    return grants


def run_scaleout(
    worker_counts: Sequence[int] = DEFAULT_WORKER_COUNTS,
    descriptors: int = DEFAULT_DESCRIPTORS,
    cookies: int = DEFAULT_COOKIES,
    batch_size: int = DEFAULT_BATCH_SIZE,
    rounds: int = 3,
) -> dict:
    """Measure in-process vs multi-process wall-clock on one stream.

    Each configuration gets ``rounds`` best-of runs over the *same*
    pre-built batches (fresh pool per run — replay caches must start
    cold or later rounds would reject everything as replays).  Worker
    spawn/teardown happens outside the timed region, as the paper's
    testbed measured steady-state forwarding, not box boot.

    Returns a JSON-ready report: per-configuration cookies/s, grants,
    and speedups relative to both the 1-worker executor (parallel
    efficiency) and the in-process pool (end-to-end win including IPC).
    """
    store, batches = build_verification_stream(
        descriptors=descriptors, cookies=cookies, batch_size=batch_size
    )
    total = sum(len(batch) for batch in batches)
    max_workers = max(worker_counts)

    def best_of(make_pool, describe=None, close=None) -> tuple[int, float, dict]:
        best = float("inf")
        grants = 0
        info: dict = {}
        for _ in range(rounds):
            pool = make_pool()
            try:
                start = time.perf_counter()
                grants = _drive(pool, batches)
                best = min(best, time.perf_counter() - start)
                if describe is not None:
                    info = describe(pool)
            finally:
                if close is not None:
                    close(pool)
        return grants, best, info

    report: dict = {
        "workload": {
            "descriptors": descriptors,
            "cookies": total,
            "batch_size": batch_size,
            "rounds": rounds,
        },
        "cpu_count": os.cpu_count(),
        "configs": [],
    }

    # The in-process pool runs on one core whatever its shard count —
    # record the configuration it actually has (shards), not a worker
    # count it does not use.
    grants, elapsed, _ = best_of(
        lambda: ShardedVerifierPool(store, shards=max_workers, nct=STREAM_NCT)
    )
    in_process = {
        "mode": "in-process",
        "shards": max_workers,
        "grants": grants,
        "elapsed_s": round(elapsed, 6),
        "cookies_per_s": round(total / elapsed),
    }
    report["configs"].append(in_process)

    by_workers: dict[int, dict] = {}
    for workers in worker_counts:
        # ``auto`` picks the transport the box supports — shm rings on a
        # real multi-core machine, the in-process degrade mode on a
        # single-core runner.  The report labels whichever it got, so
        # the CI table can never silently compare wrong modes.
        grants, elapsed, info = best_of(
            lambda: ProcessShardExecutor.auto(
                store, workers=workers, nct=STREAM_NCT
            ),
            describe=lambda pool: {
                "transport": pool.transport,
                "degraded": pool.degraded,
            },
            close=lambda pool: pool.close(),
        )
        config = {
            "mode": "multi-process",
            "workers": workers,
            "transport": info.get("transport", "unknown"),
            "degraded": info.get("degraded", False),
            "grants": grants,
            "elapsed_s": round(elapsed, 6),
            "cookies_per_s": round(total / elapsed),
        }
        by_workers[workers] = config
        report["configs"].append(config)

    base = by_workers.get(1)
    for workers, config in by_workers.items():
        if base is not None:
            config["speedup_vs_1_worker"] = round(
                base["elapsed_s"] / config["elapsed_s"], 3
            )
        config["speedup_vs_in_process"] = round(
            in_process["elapsed_s"] / config["elapsed_s"], 3
        )
    return report


def format_scaleout_report(report: dict) -> str:
    """An aligned table for humans (the CLI and the CI step summary)."""
    workload = report["workload"]
    lines = [
        f"{workload['cookies']:,} valid cookies over "
        f"{workload['descriptors']} descriptors, "
        f"batches of {workload['batch_size']}, "
        f"best of {workload['rounds']} — {report['cpu_count']} CPU core(s)",
        f"{'config':<34}{'cookies/s':>12}{'vs 1 worker':>13}"
        f"{'vs in-proc':>12}",
    ]
    for config in report["configs"]:
        if config["mode"] == "in-process":
            name = f"in-process x{config['shards']} shards"
        else:
            name = f"multi-process x{config['workers']}"
            if config.get("degraded"):
                name += " [degraded]"
        vs_one = config.get("speedup_vs_1_worker")
        vs_inproc = config.get("speedup_vs_in_process")
        lines.append(
            f"{name:<34}{config['cookies_per_s']:>12,}"
            f"{(f'{vs_one:.2f}x' if vs_one else '—'):>13}"
            f"{(f'{vs_inproc:.2f}x' if vs_inproc else '—'):>12}"
        )
    return "\n".join(lines)
