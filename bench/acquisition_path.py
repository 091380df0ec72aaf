"""The two acquisition-path workloads: ``cp-churn`` (in-process, no
socket) and ``cp-rpc`` (the same control plane behind the JSON-lines
server on loopback).

Both replay a seeded Zipf churn schedule (70/20/10 acquire/renew/revoke
over ``SubscriberPopulation``) in closed loop.  A schedule names
*subscribers*; which descriptor a renew or revoke hits is resolved at
replay time, and the plan pre-computes how every intent must resolve so
the oracle knows the exact op counts.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.cp import ShardedControlPlane, VerifierReplica
from repro.core.cp.netserver import AsyncControlPlaneServer
from repro.core.errors import AcquisitionDenied
from repro.core.netserver import CookieClient
from repro.core.seeding import derive_seed
from repro.core.server import ServiceOffering
from repro.study.population import ChurnEvent, SubscriberPopulation

from .common import T0, VirtualClock, chunks
from .tracing import Traced, Tracer, traced
from .workload import RoundSample, RoundTimer, Verdict, Workload

POPULATION = 1_000_000
#: Schedule-time arrival rate: spacing only, replay is closed-loop.
SCHEDULE_RATE = 5_000.0
CHURN_EVENTS = 15_360
CHURN_CHUNK = 512
RPC_REQUESTS = 4_000
RPC_CONNECTIONS = 2

CP_SPANS = {
    "acquire_batch": "core.cp.service.acquire_batch",
    "renew": "core.cp.service.renew",
    "revoke_batch": "core.cp.service.revoke_batch",
    "sync_replicas": "core.cp.service.sync_replicas",
    "admit": "core.cp.service.admit",
    "release": "core.cp.service.release",
    "handle_request": "core.cp.service.handle_request",
}


@dataclass
class ChurnPlan:
    """How a schedule resolves when every op succeeds."""

    #: Per event: the op actually issued (``acquire`` / ``renew`` /
    #: ``revoke``) or ``skip`` (a revoke for a subscriber holding nothing).
    ops: list[str] = field(default_factory=list)
    acquired: int = 0
    renewed: int = 0
    revoked: int = 0
    skipped: int = 0

    @property
    def completed(self) -> int:
        return self.acquired + self.renewed + self.revoked

    @property
    def grants(self) -> int:
        """Descriptors issued: a renew issues a fresh one."""
        return self.acquired + self.renewed


def plan_churn(events: Sequence[ChurnEvent], chunk: int) -> ChurnPlan:
    """Resolve every intent the way the replay will.

    Within a ``chunk`` the replay batches acquires and issues them after
    the chunk's renews, so a renew or revoke only sees descriptors
    granted in *earlier* chunks (plus this chunk's renews); ``chunk=1``
    is strictly sequential replay.
    """
    plan = ChurnPlan()
    held: dict[int, int] = {}
    for start in range(0, len(events), chunk):
        deferred: list[int] = []
        for event in events[start : start + chunk]:
            count = held.get(event.subscriber, 0)
            if event.kind == "acquire" or (event.kind == "renew" and not count):
                plan.ops.append("acquire")
                plan.acquired += 1
                deferred.append(event.subscriber)
            elif event.kind == "renew":
                plan.ops.append("renew")
                plan.renewed += 1
                held[event.subscriber] = count + 1
            elif count:
                plan.ops.append("revoke")
                plan.revoked += 1
                held[event.subscriber] = count - 1
            else:
                plan.ops.append("skip")
                plan.skipped += 1
        for subscriber in deferred:
            held[subscriber] = held.get(subscriber, 0) + 1
    return plan


class Holdings:
    """Descriptor ids each subscriber holds, newest last."""

    def __init__(self) -> None:
        self._held: dict[int, list[int]] = {}

    def grant(self, subscriber: int, cookie_id: int) -> None:
        self._held.setdefault(subscriber, []).append(cookie_id)

    def newest(self, subscriber: int) -> int:
        return self._held[subscriber][-1]

    def take(self, subscriber: int) -> int:
        return self._held[subscriber].pop()


def replay_chunk(
    controlplane: Any,
    held: Holdings,
    chunk: Sequence[ChurnEvent],
    ops: Sequence[str],
    done: dict[str, int],
) -> None:
    """Issue one chunk the way an operator front end batches it: renews
    one by one, then the chunk's acquires and revokes as two batch
    calls, then one anti-entropy tick for the replicas."""
    acquires: list[tuple[str, str]] = []
    acquire_subscribers: list[int] = []
    revoke_ids: list[int] = []
    for event, op in zip(chunk, ops):
        if op == "acquire":
            acquires.append((f"sub-{event.subscriber}", event.service))
            acquire_subscribers.append(event.subscriber)
        elif op == "renew":
            try:
                descriptor = controlplane.renew(
                    f"sub-{event.subscriber}", held.newest(event.subscriber)
                )
            except AcquisitionDenied:
                done["denied"] += 1
            else:
                held.grant(event.subscriber, descriptor.cookie_id)
                done["renew"] += 1
        elif op == "revoke":
            revoke_ids.append(held.take(event.subscriber))
    if acquires:
        for subscriber, result in zip(
            acquire_subscribers, controlplane.acquire_batch(acquires)
        ):
            if result["ok"]:
                held.grant(subscriber, int(result["descriptor"]["cookie_id"]))
                done["acquire"] += 1
            else:
                done["denied"] += 1
    if revoke_ids:
        done["revoke"] += sum(controlplane.revoke_batch(revoke_ids))
    controlplane.sync_replicas()


def schedule_digest(events: Sequence[ChurnEvent]) -> str:
    digest = hashlib.sha256()
    for event in events:
        digest.update(f"{event.kind}:{event.subscriber}:{event.service};".encode())
    return digest.hexdigest()


class ControlPlaneWorkload(Workload):
    item = "op"
    rate_alias = "requests_per_s"
    event_count = 0
    #: Events the replay groups into one batch (see :func:`plan_churn`).
    chunk = 1

    def setup(self) -> None:
        size = max(1_000, int(POPULATION * self.scale))
        population = SubscriberPopulation(
            size, seed=derive_seed(self.seed, "bench", "population")
        )
        self.population_size = size
        self.offerings = [
            ServiceOffering(name=name, lifetime=3600.0)
            for name in population.service_names
        ]
        self.events = population.take_events(
            max(CHURN_CHUNK, int(self.event_count * self.scale)),
            rate=SCHEDULE_RATE,
        )
        self.plan = plan_churn(self.events, self.chunk)
        self.digest = schedule_digest(self.events)

    def _control_plane(self, clock: VirtualClock) -> ShardedControlPlane:
        """A fresh 1-shard in-process control plane."""
        controlplane = ShardedControlPlane(clock=clock, shards=1, mode="in-process")
        for offering in self.offerings:
            controlplane.offer(offering)
        return controlplane

    def _check_stats(self, controlplane: ShardedControlPlane, verdict: Verdict) -> None:
        stats = controlplane.stats
        verdict.expect("stats.acquired", stats.acquired, self.plan.grants)
        verdict.expect("stats.renewed", stats.renewed, self.plan.renewed)
        verdict.expect("stats.revoked", stats.revoked, self.plan.revoked)
        verdict.expect("stats.denied", stats.denied, 0)
        verdict.expect("shed", stats.shed_pending + stats.shed_breaker, 0)
        verdict.expect("worker_failures", stats.worker_failures, 0)

    def describe(self) -> dict[str, Any]:
        return {
            "corpus_digest": self.digest,
            "population": self.population_size,
            "events": len(self.events),
            "acquire": self.plan.acquired,
            "renew": self.plan.renewed,
            "revoke": self.plan.revoked,
            "skipped": self.plan.skipped,
            "ops": self.plan.completed,
        }


# ----------------------------------------------------------------------
# cp-churn
# ----------------------------------------------------------------------


@dataclass
class ChurnDevice:
    clock: VirtualClock
    controlplane: ShardedControlPlane
    handle: Any
    replica: VerifierReplica
    done: dict[str, int] = field(default_factory=dict)


class CpChurn(ControlPlaneWorkload):
    name = "cp-churn"
    call = "one 512-event chunk (acquire_batch + renews + revoke_batch + sync)"
    event_count = CHURN_EVENTS
    chunk = CHURN_CHUNK

    def new_device(self, tracer: Tracer | None = None) -> ChurnDevice:
        clock = VirtualClock()
        controlplane = self._control_plane(clock)
        handle = traced(controlplane, tracer, CP_SPANS)
        replica = VerifierReplica("bench-replica")
        controlplane.register_replica(
            traced(replica, tracer, {"apply_deltas": "core.cp.replica.apply_deltas"})
        )
        return ChurnDevice(
            clock=clock, controlplane=controlplane, handle=handle, replica=replica
        )

    def drive(self, device: ChurnDevice, tracer: Tracer | None = None) -> RoundSample:
        handle, clock = device.handle, device.clock
        held = Holdings()
        done = {"acquire": 0, "renew": 0, "revoke": 0, "denied": 0}
        ops = self.plan.ops
        with RoundTimer(tracer) as timer:
            for index, chunk in enumerate(chunks(self.events, CHURN_CHUNK)):
                if tracer is not None:
                    tracer.current_id = index
                clock.now = T0 + chunk[-1].time
                first = index * CHURN_CHUNK
                replay_chunk(handle, held, chunk, ops[first : first + len(chunk)], done)
                timer.lap()
        device.done = done
        return timer.sample(done["acquire"] + done["renew"] + done["revoke"])

    def check(self, device: ChurnDevice, first_round: bool) -> Verdict:
        plan, done, replica = self.plan, device.done, device.replica
        verdict = Verdict(attempted=plan.completed)
        verdict.expect("acquires ok", done["acquire"], plan.acquired)
        verdict.expect("renews ok", done["renew"], plan.renewed)
        verdict.expect("revokes ok", done["revoke"], plan.revoked)
        verdict.expect("denied", done["denied"], 0)
        self._check_stats(device.controlplane, verdict)
        # The replica saw every grant and every revocation, once.
        verdict.expect(
            "replica.records_applied",
            replica.records_applied,
            plan.grants + plan.revoked,
        )
        verdict.expect("replica descriptors", len(replica.store), plan.grants)
        verdict.expect(
            "replica revoked",
            sum(1 for descriptor in replica.store if descriptor.revoked),
            plan.revoked,
        )
        return verdict

    def counters(self, device: ChurnDevice) -> dict[str, float]:
        stats = device.controlplane.stats
        return {
            "core.cp.service.broadcast_lag_max_s": (
                device.controlplane.max_broadcast_lag()
            ),
            "core.cp.service.shed": stats.shed_pending + stats.shed_breaker,
        }


# ----------------------------------------------------------------------
# cp-rpc
# ----------------------------------------------------------------------


class _TracedControlPlane(Traced):
    """Span proxy that also stamps server-side spans with the id the
    traced client put in the request (``rid``), so both halves of one
    request share an identifier."""

    def __init__(self, target: Any, tracer: Tracer) -> None:
        super().__init__(target, tracer, CP_SPANS)
        inner = self.handle_request

        def handle_request(request: dict[str, Any]) -> dict[str, Any]:
            tracer.current_id = request.get("rid", -1)
            try:
                return inner(request)
            finally:
                tracer.current_id = -1

        self.handle_request = handle_request


@dataclass
class RpcDevice:
    clock: VirtualClock
    controlplane: ShardedControlPlane
    handle: Any
    replies_not_ok: int = 0
    sent: dict[str, int] = field(default_factory=dict)


class CpRpc(ControlPlaneWorkload):
    name = "cp-rpc"
    call = "one single-op request round trip over loopback"
    event_count = RPC_REQUESTS

    def setup(self) -> None:
        super().setup()
        # Each subscriber's events go to one connection (its renews and
        # revokes depend on its own earlier replies); subscribers are
        # dealt heaviest-first to the lighter connection, so both
        # connections stay busy to the end of the round.
        load: dict[int, int] = {}
        for event, op in zip(self.events, self.plan.ops):
            if op != "skip":
                load[event.subscriber] = load.get(event.subscriber, 0) + 1
        totals = [0] * RPC_CONNECTIONS
        owner: dict[int, int] = {}
        for subscriber in sorted(load, key=lambda s: (-load[s], s)):
            lighter = totals.index(min(totals))
            owner[subscriber] = lighter
            totals[lighter] += load[subscriber]
        self.lanes: list[list[tuple[int, str, ChurnEvent]]] = [
            [] for _ in range(RPC_CONNECTIONS)
        ]
        for index, (event, op) in enumerate(zip(self.events, self.plan.ops)):
            if op != "skip":
                self.lanes[owner[event.subscriber]].append((index, op, event))

    def new_device(self, tracer: Tracer | None = None) -> RpcDevice:
        clock = VirtualClock()
        controlplane = self._control_plane(clock)
        handle = (
            controlplane
            if tracer is None
            else _TracedControlPlane(controlplane, tracer)
        )
        return RpcDevice(clock=clock, controlplane=controlplane, handle=handle)

    def drive(self, device: RpcDevice, tracer: Tracer | None = None) -> RoundSample:
        return asyncio.run(self._drive(device, tracer))

    async def _drive(self, device: RpcDevice, tracer: Tracer | None) -> RoundSample:
        server = AsyncControlPlaneServer(device.handle)
        host, port = await server.start()
        clients = [CookieClient(host, port) for _ in self.lanes]
        held = Holdings()
        latency: dict[str, list[float]] = {"acquire": [], "renew": [], "revoke": []}
        sent = {"acquire": 0, "renew": 0, "revoke": 0}
        not_ok = 0
        now = time.perf_counter

        async def run_lane(client: CookieClient, lane) -> None:
            nonlocal not_ok
            for index, op, event in lane:
                if op == "acquire":
                    payload = {
                        "op": "acquire",
                        "user": f"sub-{event.subscriber}",
                        "service": event.service,
                    }
                elif op == "renew":
                    payload = {
                        "op": "renew",
                        "user": f"sub-{event.subscriber}",
                        "cookie_id": held.newest(event.subscriber),
                    }
                else:
                    payload = {
                        "op": "revoke",
                        "cookie_id": held.take(event.subscriber),
                    }
                if tracer is not None:
                    payload["rid"] = index
                    slot = tracer.begin_detached(f"core.netserver.client.{op}", index)
                sent_at = now()
                reply = await client.request(payload)
                latency[op].append(now() - sent_at)
                if tracer is not None:
                    tracer.finish_detached(slot)
                sent[op] += 1
                if not reply.get("ok"):
                    not_ok += 1
                elif op != "revoke":
                    held.grant(
                        event.subscriber, int(reply["descriptor"]["cookie_id"])
                    )

        try:
            for client in clients:
                await client.connect()
            # Tracing: everything on the loop that is not a control-plane
            # span is framing, JSON, asyncio and the clients themselves.
            with RoundTimer(tracer, root="core.netserver.loop") as timer:
                await asyncio.gather(
                    *(
                        run_lane(client, lane)
                        for client, lane in zip(clients, self.lanes)
                    )
                )
        finally:
            for client in clients:
                await client.close()
            await server.stop()
        device.replies_not_ok = not_ok
        device.sent = sent
        # call_s: the acquisition latency users see, acquire round trips.
        return timer.sample(
            sum(sent.values()) - not_ok, call_s=latency["acquire"], latency_s=latency
        )

    def check(self, device: RpcDevice, first_round: bool) -> Verdict:
        plan = self.plan
        verdict = Verdict(attempted=plan.completed)
        verdict.failed += device.replies_not_ok
        if device.replies_not_ok:
            verdict.notes.append(f"{device.replies_not_ok} replies were not ok")
        verdict.expect("acquires sent", device.sent["acquire"], plan.acquired)
        verdict.expect("renews sent", device.sent["renew"], plan.renewed)
        verdict.expect("revokes sent", device.sent["revoke"], plan.revoked)
        self._check_stats(device.controlplane, verdict)
        return verdict

    def counters(self, device: RpcDevice) -> dict[str, float]:
        stats = device.controlplane.stats
        return {"core.cp.service.shed": stats.shed_pending + stats.shed_breaker}

    def describe(self) -> dict[str, Any]:
        out = super().describe()
        out["connections"] = RPC_CONNECTIONS
        out["lane_requests"] = [len(lane) for lane in self.lanes]
        return out


ACQUISITION_WORKLOADS = (CpChurn, CpRpc)
