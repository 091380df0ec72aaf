"""One run of one workload: set-up, timed rounds, oracle, metrics.

End-to-end metrics always come from untraced rounds and are medians of
per-round readings.  With tracing on, the same measurement is followed by
one extra, traced round (spans → per-layer self time) and the stage
replays.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Any

from repro.trace.stats import percentile

from . import REPO_ROOT
from .acquisition_path import ACQUISITION_WORKLOADS
from .common import (
    RESULTS_DIR,
    peak_rss_mib,
    quartiles,
    remove_work_dirs,
    stop_child_processes,
)
from .packet_path import PACKET_WORKLOADS
from .pool_path import VerifyPool
from .probe import probe, slowdown
from .stages import run_stages
from .tracing import Tracer
from .workload import RoundSample, Workload

WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (*PACKET_WORKLOADS, VerifyPool, *ACQUISITION_WORKLOADS)
}

#: Set-up is repeated so ``setup_s`` is a median, not one sample.
SETUP_REPEATS = 3
MIN_ROUNDS = 3

#: span name -> per-layer metric holding its self time per item.
SELF_TIME_METRICS = {
    "driver.round": "driver.loop_self_ns",
    "core.netserver.loop": "core.netserver.loop_self_ns",
    "zerorate.middlebox.process_batch": "zerorate.middlebox.batch_self_ns",
    "core.transport.extract": "core.transport.extract_self_ns",
    "core.matcher.match": "core.matcher.match_self_ns",
    "core.store.get": "core.store.get_self_ns",
    "core.matcher.replay_check": "core.matcher.replay_self_ns",
    "zerorate.catalog.decide": "zerorate.catalog.decide_self_ns",
    "billing.accounting.account": "billing.accounting.account_self_ns",
    "billing.accounting.flush_subscriber": "billing.accounting.flush_self_ns",
    "billing.accounting.flush_all": "billing.accounting.flush_self_ns",
    "billing.journal.append": "billing.journal.append_self_ns",
    "core.parallel.match_batch": "core.parallel.match_batch_self_ns",
    "core.cp.service.acquire_batch": "core.cp.service.self_ns",
    "core.cp.service.renew": "core.cp.service.self_ns",
    "core.cp.service.revoke_batch": "core.cp.service.self_ns",
    "core.cp.service.sync_replicas": "core.cp.service.self_ns",
    "core.cp.service.admit": "core.cp.service.self_ns",
    "core.cp.service.release": "core.cp.service.self_ns",
    "core.cp.service.handle_request": "core.cp.service.self_ns",
    "core.cp.replica.apply_deltas": "core.cp.replica.apply_self_ns",
}

#: Per-layer readings that come from the workload's own run (counts off
#: the device, spans, client latencies); 0 where the layer is not on the
#: workload's path.  The stage replays supply the rest.
WORKLOAD_LAYER_METRICS = (
    *dict.fromkeys(SELF_TIME_METRICS.values()),
    "core.transport.sniffed_share",
    "billing.accounting.flush_us_per_subscriber",
    "core.matcher.replay_cache_size",
    "zerorate.middlebox.flows_resolved",
    "zerorate.middlebox.cookie_hits",
    "zerorate.middlebox.cookie_misses",
    "zerorate.middlebox.flows_evicted_cap",
    "zerorate.middlebox.subscribers_evicted",
    "zerorate.middlebox.verifier_failures",
    "billing.journal.records",
    "billing.journal.bytes_per_record",
    "billing.journal.fsyncs",
    "billing.journal.segment_rotations",
    "core.parallel.shard_restarts",
    "core.parallel.fallbacks",
    "core.cp.service.broadcast_lag_max_s",
    "core.cp.service.shed",
    "core.netserver.acquire_p99_us",
    "core.netserver.acquire_p999_us",
    "core.netserver.renew_p50_us",
    "core.netserver.revoke_p50_us",
    "driver.cpu_share",
    "driver.round_iqr_ratio",
    "driver.trace_overhead_ratio",
)


@dataclass
class Run:
    """Everything one invocation learned; ``end_to_end`` / ``per_layer``
    are what the contract line reports."""

    workload: str
    seed: int
    traced: bool
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    detail: dict[str, Any] = field(default_factory=dict)


def _set_up(cls: type[Workload], seed: int, scale: float):
    """Build the workload ``SETUP_REPEATS`` times (corpus, device, pool
    spawn); returns the last build, every build's wall time, and the
    machine slowdown around each."""
    times: list[float] = []
    factors: list[float] = []
    workload = None
    for _ in range(SETUP_REPEATS):
        workload = None  # let the previous corpus go before building anew
        gc.collect()
        # Building a corpus allocates millions of objects that all
        # survive; collector passes over them are noise, not set-up work.
        gc.disable()
        try:
            before = probe()
            started = time.perf_counter()
            workload = cls(seed, scale)
            workload.setup()
            workload.dispose(workload.new_device())
            times.append(time.perf_counter() - started)
            factors.append(slowdown(before + probe()))
        finally:
            gc.enable()
    return workload, times, factors


def _round(workload: Workload, first: bool, run: Run, tracer: Tracer | None = None):
    device = workload.new_device(tracer)
    try:
        before = probe()
        sample = workload.drive(device, tracer)
        sample.slowdown = slowdown(before + probe())
        verdict = workload.check(device, first)
        counters = workload.counters(device)
    finally:
        workload.dispose(device)
    run.attempted += verdict.attempted
    run.failed += min(verdict.failed, verdict.attempted)
    for note in verdict.notes:
        if len(run.notes) < 20:
            run.notes.append(note)
    return sample, counters


def _untraced_rounds(
    workload: Workload, seconds: float, run: Run
) -> tuple[list[RoundSample], dict[str, float]]:
    samples: list[RoundSample] = []
    counters: dict[str, float] = {}
    deadline = time.perf_counter() + seconds
    while len(samples) < MIN_ROUNDS or time.perf_counter() < deadline:
        sample, counters = _round(workload, not samples, run)
        samples.append(sample)
    return samples, counters


def measure(
    name: str, seed: int, seconds: float, traced: bool, scale: float = 1.0
) -> Run:
    cls = WORKLOADS[name]
    run = Run(workload=name, seed=seed, traced=traced)
    try:
        workload, setup_times, setup_slowdowns = _set_up(cls, seed, scale)
        gc.collect()
        gc.freeze()
        workload.reset_marks()
        samples, counters = _untraced_rounds(workload, seconds, run)
        rates = [sample.rate for sample in samples]
        q1, q2, q3 = quartiles(rates)
        run.end_to_end = {
            "items_per_s": q2,
            "call_p50_us": median([sample.call_p50_s for sample in samples]) * 1e6,
            "peak_rss_mb": peak_rss_mib(workload.rss_includes_children),
            "setup_s": median(
                [t / f for t, f in zip(setup_times, setup_slowdowns)]
            ),
        }
        run.detail = {
            "item": workload.item,
            "rate_alias": workload.rate_alias,
            "call": workload.call,
            "rounds": len(samples),
            "round_items": samples[0].items,
            "rate_quartiles": [q1, q2, q3],
            "round_iqr_ratio": (q3 - q1) / q2,
            "cpu_share": sum(s.cpu_s for s in samples)
            / sum(s.elapsed_s for s in samples),
            "call_samples": sum(len(sample.call_s) for sample in samples),
            # What the clock read, before the probe's correction.
            "raw": {
                "items_per_s": median([sample.raw_rate for sample in samples]),
                "call_p50_us": median([median(s.call_s) for s in samples]) * 1e6,
                "setup_s": median(setup_times),
                "slowdown": median([sample.slowdown for sample in samples]),
            },
            "setup_samples_s": setup_times,
            "plan": workload.describe(),
        }
        if traced:
            run.per_layer = _traced_phase(
                workload, run, samples, counters, seed, scale
            )
    finally:
        gc.unfreeze()
        remove_work_dirs()
        stop_child_processes()
    run.correct = run.failed == 0
    return run


def _traced_phase(
    workload: Workload,
    run: Run,
    samples: list[RoundSample],
    counters: dict[str, float],
    seed: int,
    scale: float,
) -> dict[str, float]:
    """One traced round + the stage replays → every per-layer metric."""
    layer = dict.fromkeys(WORKLOAD_LAYER_METRICS, 0.0)
    layer.update({name: float(value) for name, value in counters.items()})

    tracer = Tracer()
    traced_sample, _ = _round(workload, False, run, tracer)
    totals = tracer.totals()
    items = traced_sample.items
    for span_name, row in totals.items():
        metric = SELF_TIME_METRICS.get(span_name)
        if metric is not None:
            layer[metric] += row["self_ns"] / items
    extracts = totals.get("core.transport.extract")
    if extracts is not None:
        layer["core.transport.sniffed_share"] = extracts["count"] / items
    flushes = totals.get("billing.accounting.flush_subscriber")
    if flushes is not None:
        layer["billing.accounting.flush_us_per_subscriber"] = (
            flushes["total_ns"] / flushes["count"] / 1e3
        )
    # Client-side round trips of the untraced rounds, pooled by op kind.
    latency: dict[str, list[float]] = {}
    for sample in samples:
        for kind, values in sample.latency_s.items():
            latency.setdefault(kind, []).extend(values)
    if latency:
        acquire = sorted(latency["acquire"])
        layer["core.netserver.acquire_p99_us"] = percentile(acquire, 99.0) * 1e6
        layer["core.netserver.acquire_p999_us"] = percentile(acquire, 99.9) * 1e6
        layer["core.netserver.renew_p50_us"] = median(latency["renew"]) * 1e6
        layer["core.netserver.revoke_p50_us"] = median(latency["revoke"]) * 1e6
        run.detail["latency_samples"] = {k: len(v) for k, v in latency.items()}

    untraced_rate = median([sample.rate for sample in samples])
    layer["driver.cpu_share"] = run.detail["cpu_share"]
    layer["driver.round_iqr_ratio"] = run.detail["round_iqr_ratio"]
    layer["driver.trace_overhead_ratio"] = traced_sample.rate / untraced_rate

    root_ns = max(row["total_ns"] for row in totals.values() if not row["detached"])
    run.detail["trace"] = {
        "items": items,
        "round_wall_ns": int(traced_sample.elapsed_s * 1e9),
        "root_span_ns": root_ns,
        "spans": sum(row["count"] for row in totals.values()),
        "rows": {
            span_name: {
                "count": row["count"],
                "self_ns_per_item": row["self_ns"] / items,
                "share_of_round": row["self_ns"] / root_ns,
                "detached": bool(row["detached"]),
            }
            for span_name, row in sorted(totals.items())
        },
    }
    trace_file = RESULTS_DIR / f"trace-{workload.name}.json"
    tracer.dump(trace_file, workload=workload.name, seed=seed, scale=scale)
    run.detail["trace"]["file"] = str(trace_file.relative_to(REPO_ROOT))

    layer.update(run_stages(seed, scale))
    return layer
