"""Million-subscriber control-plane scale experiment (PR 8).

Measures the three claims ``benchmarks/reports/controlplane_1m.json``
records for the sharded control plane
(:class:`~repro.core.cp.ShardedControlPlane`):

1. **Sustained ops/s per shard count** — the same seeded churn schedule
   (Zipf-active subscribers from a
   :class:`~repro.study.population.SubscriberPopulation`, Fig. 2 app
   skew, 70/20/10 acquire/renew/revoke) is replayed closed-loop against
   1/2/4 shards, and ungated against the single-threaded PR-0
   :class:`~repro.core.server.CookieServer` baseline.
2. **p50/p99 acquisition latency** — an asyncio *open-loop* generator
   fires arrivals on the schedule's Poisson clock regardless of how the
   server is keeping up, so queueing delay (and shedding past the
   pending cap) shows up in the percentiles instead of hiding in a
   slowed-down generator.
3. **Revocation-to-enforcement lag** — a live
   :class:`~repro.services.zerorate.ZeroRatingMiddlebox` verifies
   cookies against a registered replica while descriptors are revoked,
   including a replica that returns from a partition after the log was
   compacted (snapshot-then-replay), and the worst observed lag is
   checked against the advertised staleness bound.

Used by ``benchmarks/test_controlplane_scale.py`` (assertions + report)
and ``python -m repro controlplane`` (human-readable table; the CI soak
runs it at 50k subscribers).
"""

from __future__ import annotations

import asyncio
import os
import time
from typing import Any, Sequence

from ..core.cookie import Cookie
from ..core.descriptor import CookieDescriptor
from ..core.errors import AcquisitionDenied
from ..core.generator import CookieGenerator
from ..core.matcher import CookieMatcher
from ..core.cp import ShardedControlPlane, VerifierReplica
from ..core.server import CookieServer, ServiceOffering
from ..study.population import ChurnEvent, SubscriberPopulation

__all__ = [
    "run_controlplane",
    "format_controlplane_report",
    "DEFAULT_SHARD_COUNTS",
]

DEFAULT_SHARD_COUNTS = (1, 2, 4)
DEFAULT_SUBSCRIBERS = 1_000_000
DEFAULT_CHURN_EVENTS = 30_000
DEFAULT_OPEN_LOOP_OPS = 4_000
DEFAULT_OPEN_LOOP_RATE = 2_000.0
DEFAULT_STALENESS_BOUND = 0.25
#: Schedule-time arrival rate for the closed-loop churn (only spacing,
#: not pacing: closed-loop replay goes as fast as the server allows).
SCHEDULE_RATE = 5_000.0


def _offerings(population: SubscriberPopulation) -> list[ServiceOffering]:
    return [
        ServiceOffering(name=name, lifetime=3600.0)
        for name in population.service_names
    ]


class _LiveIds:
    """Tracks which descriptor ids each subscriber currently holds, so
    renew/revoke intents in the schedule resolve to real ids."""

    def __init__(self) -> None:
        self._held: dict[int, list[int]] = {}

    def grant(self, subscriber: int, cookie_id: int) -> None:
        self._held.setdefault(subscriber, []).append(cookie_id)

    def peek(self, subscriber: int) -> int | None:
        ids = self._held.get(subscriber)
        return ids[-1] if ids else None

    def take(self, subscriber: int) -> int | None:
        ids = self._held.get(subscriber)
        return ids.pop() if ids else None


def _replay_closed_loop(
    controlplane: ShardedControlPlane,
    events: Sequence[ChurnEvent],
    batch_size: int = 512,
) -> dict[str, Any]:
    """Drive the schedule as fast as the control plane takes it.

    Acquires and revokes batch per chunk (the wire protocol's batch
    frames); renewals run through the honest two-step
    :meth:`~repro.core.cp.ShardedControlPlane.renew` path.
    """
    live = _LiveIds()
    counts = {
        "acquired": 0,
        "renewed": 0,
        "revoked": 0,
        "denied": 0,
        # revoke intents for subscribers holding nothing: no-ops.
        "skipped": 0,
    }
    start = time.perf_counter()
    for chunk_start in range(0, len(events), batch_size):
        chunk = events[chunk_start : chunk_start + batch_size]
        acquires: list[tuple[str, str]] = []
        acquire_subs: list[int] = []
        revoke_ids: list[int] = []
        for event in chunk:
            user = f"sub-{event.subscriber}"
            if event.kind == "acquire":
                acquires.append((user, event.service))
                acquire_subs.append(event.subscriber)
            elif event.kind == "renew":
                old = live.peek(event.subscriber)
                if old is None:
                    acquires.append((user, event.service))
                    acquire_subs.append(event.subscriber)
                    continue
                try:
                    descriptor = controlplane.renew(user, old)
                except AcquisitionDenied:
                    counts["denied"] += 1
                else:
                    live.grant(event.subscriber, descriptor.cookie_id)
                    counts["renewed"] += 1
            else:  # revoke
                cookie_id = live.take(event.subscriber)
                if cookie_id is not None:
                    revoke_ids.append(cookie_id)
                else:
                    counts["skipped"] += 1
        if acquires:
            for subscriber, result in zip(
                acquire_subs, controlplane.acquire_batch(acquires)
            ):
                if result["ok"]:
                    counts["acquired"] += 1
                    live.grant(
                        subscriber, int(result["descriptor"]["cookie_id"])
                    )
                else:
                    counts["denied"] += 1
        if revoke_ids:
            counts["revoked"] += sum(controlplane.revoke_batch(revoke_ids))
    elapsed = time.perf_counter() - start
    ops = counts["acquired"] + counts["renewed"] + counts["revoked"]
    return {
        **counts,
        "ops": ops,
        "elapsed_s": round(elapsed, 6),
        "ops_per_s": round(ops / elapsed) if elapsed > 0 else 0,
    }


def _replay_baseline(
    server: CookieServer, events: Sequence[ChurnEvent]
) -> dict[str, Any]:
    """The same schedule against the single-threaded CookieServer."""
    live = _LiveIds()
    counts = {
        "acquired": 0,
        "renewed": 0,
        "revoked": 0,
        "denied": 0,
        "skipped": 0,
    }
    start = time.perf_counter()
    for event in events:
        user = f"sub-{event.subscriber}"
        try:
            if event.kind == "acquire":
                descriptor = server.acquire(user, event.service)
                live.grant(event.subscriber, descriptor.cookie_id)
                counts["acquired"] += 1
            elif event.kind == "renew":
                old = live.peek(event.subscriber)
                if old is None:
                    descriptor = server.acquire(user, event.service)
                    live.grant(event.subscriber, descriptor.cookie_id)
                    counts["acquired"] += 1
                else:
                    descriptor = server.renew(user, old)
                    live.grant(event.subscriber, descriptor.cookie_id)
                    counts["renewed"] += 1
            else:
                cookie_id = live.take(event.subscriber)
                if cookie_id is None:
                    counts["skipped"] += 1
                elif server.revoke(cookie_id):
                    counts["revoked"] += 1
        except AcquisitionDenied:
            counts["denied"] += 1
    elapsed = time.perf_counter() - start
    ops = counts["acquired"] + counts["renewed"] + counts["revoked"]
    return {
        **counts,
        "ops": ops,
        "elapsed_s": round(elapsed, 6),
        "ops_per_s": round(ops / elapsed) if elapsed > 0 else 0,
    }


async def _open_loop(
    controlplane: ShardedControlPlane,
    requests: list[tuple[str, str]],
    rate: float,
) -> dict[str, Any]:
    """Open-loop acquisition latency: arrivals at ``rate``/s no matter
    what; admitted requests run as tasks, latency measured from the
    *scheduled* arrival (so backlog counts), overload gets shed."""
    loop = asyncio.get_running_loop()
    latencies: list[float] = []
    shed = 0
    pending: set[asyncio.Task] = set()
    start = loop.time()
    interarrival = 1.0 / rate

    def work(scheduled: float, user: str, service: str) -> None:
        try:
            controlplane.acquire_batch([(user, service)])
            latencies.append(loop.time() - scheduled)
        finally:
            controlplane.release()

    async def run_one(scheduled: float, user: str, service: str) -> None:
        work(scheduled, user, service)

    for index, (user, service) in enumerate(requests):
        scheduled = start + index * interarrival
        now = loop.time()
        if now < scheduled:
            await asyncio.sleep(scheduled - now)
        elif index % 64 == 0:
            # Behind schedule: yield so admitted tasks can drain (the
            # arrival process itself never slows down).
            await asyncio.sleep(0)
        gate = controlplane.admit()
        if gate is not None:
            shed += 1
            continue
        task = loop.create_task(run_one(scheduled, user, service))
        pending.add(task)
        task.add_done_callback(pending.discard)
    if pending:
        await asyncio.gather(*pending)
    latencies.sort()

    def pct(q: float) -> float:
        if not latencies:
            return 0.0
        return latencies[min(len(latencies) - 1, int(q * len(latencies)))]

    return {
        "ops": len(requests),
        "rate_per_s": rate,
        "completed": len(latencies),
        "shed": shed,
        "p50_ms": round(pct(0.50) * 1e3, 3),
        "p99_ms": round(pct(0.99) * 1e3, 3),
        "max_ms": round(latencies[-1] * 1e3, 3) if latencies else 0.0,
    }


def _revocation_drill(
    controlplane: ShardedControlPlane,
    population: SubscriberPopulation,
    partition_hold_s: float = 0.05,
) -> dict[str, Any]:
    """Revocation-to-enforcement lag against a live zero-rating middlebox.

    Two registered replicas back two middleboxes.  Phase 1 revokes with
    everyone reachable (eager broadcast).  Phase 2 partitions one
    replica, revokes behind its back, compacts the log past its offset,
    then heals — forcing the snapshot-then-replay catch-up path — and
    checks the middlebox over *that* replica rejects the revoked
    descriptor too.
    """
    from ..netsim.packet import make_tcp_packet
    from ..services.zerorate import ZeroRatingMiddlebox
    from ..core.transport import default_registry

    clock = time.monotonic
    replicas = [
        controlplane.register_replica(VerifierReplica(f"verifier-{i}"))
        for i in range(2)
    ]
    middleboxes = [
        ZeroRatingMiddlebox(CookieMatcher(replica.store), clock=clock)
        for replica in replicas
    ]
    flow_port = [5000]

    def middlebox_grants_free(
        middlebox: ZeroRatingMiddlebox, descriptor: CookieDescriptor
    ) -> bool:
        """Fresh cookied flow; did its bytes count as free?"""
        flow_port[0] += 1
        cookie: Cookie = CookieGenerator(descriptor, clock).generate()
        packet = make_tcp_packet(
            "10.0.0.7", flow_port[0], "93.184.216.34", 443, payload_size=600
        )
        default_registry().attach(packet, cookie)
        before = sum(c.free_bytes for c in middlebox.counters.values())
        middlebox.handle(packet)
        after = sum(c.free_bytes for c in middlebox.counters.values())
        return after > before

    service = population.service_names[0]
    target = controlplane.acquire("drill-user", service)
    controlplane.sync_replicas()
    enforced_before = [
        middlebox_grants_free(mb, target) for mb in middleboxes
    ]

    # Phase 1: revoke with everyone reachable (eager broadcast path).
    assert controlplane.revoke(target.cookie_id)
    stale = target.clone()  # pre-revocation key
    enforced_after = [
        not middlebox_grants_free(mb, stale) for mb in middleboxes
    ]
    eager_lag = controlplane.max_broadcast_lag()

    # Phase 2: partition replica 1, revoke behind its back, compact the
    # log past its offset, heal, and let anti-entropy catch it up.
    victim = replicas[1]
    victim.partition()
    target2 = controlplane.acquire("drill-user", service)
    controlplane.sync_replicas()  # replica 0 learns it; victim cannot
    revoke_started = clock()
    assert controlplane.revoke(target2.cookie_id)
    time.sleep(partition_hold_s)  # the partition endures
    controlplane.compact_logs(aggressive=True)
    victim.heal()
    controlplane.sync_replicas()
    partition_lag = clock() - revoke_started
    stale2 = target2.clone()
    caught_up = not middlebox_grants_free(middleboxes[1], stale2)
    victim_descriptor = victim.store.get(target2.cookie_id)

    max_lag = controlplane.max_broadcast_lag()
    result = {
        "replicas": len(replicas),
        "enforced_before_revocation": all(enforced_before),
        "enforced_after_revocation": all(enforced_after),
        "eager_lag_s": round(eager_lag, 6),
        "partition_hold_s": partition_hold_s,
        "partition_lag_s": round(partition_lag, 6),
        "partition_caught_up": bool(
            caught_up
            and victim_descriptor is not None
            and victim_descriptor.revoked
        ),
        "snapshot_catchups": controlplane.stats.snapshot_catchups,
        "max_broadcast_lag_s": round(max_lag, 6),
        "staleness_bound_s": controlplane.staleness_bound,
        "within_bound": max_lag <= controlplane.staleness_bound,
    }
    for replica in replicas:
        controlplane.unregister_replica(replica.name)
    return result


def run_controlplane(
    subscribers: int = DEFAULT_SUBSCRIBERS,
    shard_counts: Sequence[int] = DEFAULT_SHARD_COUNTS,
    churn_events: int = DEFAULT_CHURN_EVENTS,
    open_loop_ops: int = DEFAULT_OPEN_LOOP_OPS,
    open_loop_rate: float = DEFAULT_OPEN_LOOP_RATE,
    seed: int = 20160822,
    staleness_bound: float = DEFAULT_STALENESS_BOUND,
) -> dict[str, Any]:
    """The full experiment; returns the JSON-ready report."""
    population = SubscriberPopulation(subscribers, seed=seed)
    offerings = _offerings(population)
    events = population.take_events(churn_events, rate=SCHEDULE_RATE)
    open_loop_events = population.take_events(
        open_loop_ops, rate=open_loop_rate, mix=(1.0, 0.0, 0.0)
    )
    open_loop_requests = [
        (f"sub-{event.subscriber}", event.service)
        for event in open_loop_events
    ]

    report: dict[str, Any] = {
        "subscribers": subscribers,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "staleness_bound_s": staleness_bound,
        "workload": {
            "churn_events": len(events),
            "event_mix": "70/20/10 acquire/renew/revoke",
            "services": len(population.service_names),
            "open_loop_ops": open_loop_ops,
            "open_loop_rate_per_s": open_loop_rate,
        },
        "configs": [],
    }

    baseline_server = CookieServer(clock=time.monotonic)
    for offering in offerings:
        baseline_server.offer(offering)
    baseline = _replay_baseline(baseline_server, events)
    report["baseline"] = {"server": "CookieServer", **baseline}

    by_shards: dict[int, dict[str, Any]] = {}
    for shards in shard_counts:
        controlplane = ShardedControlPlane(
            clock=time.monotonic,
            shards=shards,
            staleness_bound=staleness_bound,
        )
        try:
            for offering in offerings:
                controlplane.offer(offering)
            closed = _replay_closed_loop(controlplane, events)
            open_loop = asyncio.run(
                _open_loop(controlplane, open_loop_requests, open_loop_rate)
            )
            config = {
                "shards": shards,
                "closed_loop": closed,
                "open_loop": open_loop,
            }
            if shards == max(shard_counts):
                config["revocation"] = _revocation_drill(
                    controlplane, population
                )
                report["revocation"] = config.pop("revocation")
        finally:
            controlplane.close()
        by_shards[shards] = config
        report["configs"].append(config)

    base = by_shards.get(1)
    for config in by_shards.values():
        if base is not None and base["closed_loop"]["elapsed_s"] > 0:
            config["speedup_vs_1_shard"] = round(
                base["closed_loop"]["elapsed_s"]
                / config["closed_loop"]["elapsed_s"],
                3,
            )
        if baseline["elapsed_s"] > 0:
            config["speedup_vs_baseline"] = round(
                baseline["elapsed_s"] / config["closed_loop"]["elapsed_s"], 3
            )
    return report


def format_controlplane_report(report: dict[str, Any]) -> str:
    """An aligned table for humans (the CLI and the CI step summary)."""
    workload = report["workload"]
    lines = [
        f"{report['subscribers']:,} subscribers, "
        f"{workload['churn_events']:,} churn ops "
        f"({workload['event_mix']}), {workload['services']} services, "
        f"{report['cpu_count']} CPU core(s)",
        f"baseline CookieServer: "
        f"{report['baseline']['ops_per_s']:,} ops/s",
        f"{'config':<12}{'ops/s':>10}{'p50 ms':>9}{'p99 ms':>9}"
        f"{'shed':>7}{'vs 1 shard':>12}{'vs baseline':>13}",
    ]
    for config in report["configs"]:
        name = f"{config['shards']} shard(s)"
        open_loop = config["open_loop"]
        vs_one = config.get("speedup_vs_1_shard")
        vs_base = config.get("speedup_vs_baseline")
        lines.append(
            f"{name:<12}{config['closed_loop']['ops_per_s']:>10,}"
            f"{open_loop['p50_ms']:>9.2f}{open_loop['p99_ms']:>9.2f}"
            f"{open_loop['shed']:>7}"
            f"{(f'{vs_one:.2f}x' if vs_one else '—'):>12}"
            f"{(f'{vs_base:.2f}x' if vs_base else '—'):>13}"
        )
    revocation = report.get("revocation")
    if revocation:
        lines.append(
            f"revocation: eager lag {revocation['eager_lag_s'] * 1e3:.2f} ms, "
            f"partition recovery {revocation['partition_lag_s'] * 1e3:.1f} ms "
            f"(held {revocation['partition_hold_s'] * 1e3:.0f} ms), "
            f"max {revocation['max_broadcast_lag_s'] * 1e3:.1f} ms "
            f"vs bound {revocation['staleness_bound_s'] * 1e3:.0f} ms — "
            + ("WITHIN BOUND" if revocation["within_bound"] else "EXCEEDED")
        )
    return "\n".join(lines)
