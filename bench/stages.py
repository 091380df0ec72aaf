"""Stage replays: one public function of one layer, timed from outside
over inputs cut from a small seeded corpus.

Each reading is the best of three passes, in ns (or µs) per item; the
``for`` loop around the call (~30 ns an item) is included.  Best-of is
right here — unlike the end-to-end medians — because a stage replay asks
what a call costs when nothing else interferes; how much of a workload
that cost explains is the traced run's job.
"""

from __future__ import annotations

import asyncio
import json
import random
import shutil
import time
from statistics import median
from typing import Any, Callable, Sequence

from repro.core.cookie import Cookie, SignerCache, sign_cookie_fields
from repro.core.cp import ShardedControlPlane, VerifierReplica
from repro.core.cp.deltalog import DeltaLog
from repro.core.cp.netserver import AsyncControlPlaneServer
from repro.core.descriptor import CookieDescriptor
from repro.core.distributed import ShardedVerifierPool
from repro.core.matcher import CookieMatcher, ReplayCache
from repro.core.netserver import CookieClient
from repro.core.parallel import (
    ProcessShardExecutor,
    decode_batch,
    decode_verdicts,
    encode_batch,
    encode_verdicts,
)
from repro.core.seeding import derive_seed
from repro.core.server import CookieServer, ServiceOffering
from repro.core.shm_ring import ShmRing
from repro.core.transport import default_registry
from repro.services.billing import BillingJournal, reconcile_directories
from repro.services.billing.journal import BillingRecord
from repro.services.zerorate import ZeroRatingMiddlebox
from repro.services.zerorate.catalog import AppCoverage, CatalogSet, OperatorCatalog
from repro.study.population import ChurnEvent, SubscriberPopulation
from repro.trace.records import FlowRecord, flow_to_packets

from .acquisition_path import (
    CHURN_CHUNK,
    SCHEDULE_RATE,
    Holdings,
    plan_churn,
    replay_chunk,
)
from .common import T0, VirtualClock, chunks, work_dir
from .corpus import APP, SERVER_IP, CorpusSpec, build_corpus
from .packet_path import HOSTILE, OPERATORS
from .pool_path import POOL_BATCH, POOL_DESCRIPTORS, build_cookie_stream, pool_workers

REPEATS = 3

#: Keys cycled through the 4 096-entry SignerCache by the ``cold``
#: reading: each is seen once, so every call pays key absorption.
COLD_KEYS = 20_000
STAGE_DESCRIPTORS = 100_000
STAGE_CHURN_EVENTS = 6_000
STAGE_POPULATION = 50_000


def best_ns_fresh(
    make: Callable[[], Callable[[], Any]], items: int, repeats: int = REPEATS
) -> float:
    """Best wall time of one pass, per item; each pass runs what a fresh
    call of ``make`` returns (a cold subject), and ``make`` is untimed."""
    best = float("inf")
    for _ in range(repeats):
        run = make()
        started = time.perf_counter_ns()
        run()
        best = min(best, time.perf_counter_ns() - started)
    return best / items


def best_ns(run: Callable[[], Any], items: int, repeats: int = REPEATS) -> float:
    """Best wall time of ``run()`` over ``repeats`` passes, per item."""
    return best_ns_fresh(lambda: run, items, repeats)


def _each(fn: Callable[[Any], Any], inputs: Sequence) -> Callable[[], None]:
    def run() -> None:
        for item in inputs:
            fn(item)

    return run


# ----------------------------------------------------------------------
# Packet path
# ----------------------------------------------------------------------


def packet_stages(seed: int, scale: float, out: dict[str, float]) -> None:
    rng = random.Random(derive_seed(seed, "bench", "stages"))
    registry = default_registry()
    hostile = build_corpus(
        CorpusSpec(
            flows=2_000,
            packets_per_flow=4,
            packet_size=64,
            descriptors=STAGE_DESCRIPTORS,
            interleave=32,
            mix=HOSTILE.mix,
        ).scaled(scale),
        seed,
    )
    store = hostile.store
    by_class: dict[str, list[Cookie]] = {}
    firsts, rest = [], []
    seen_flows: set[int] = set()
    for packet, flow_index in zip(hostile.packets, hostile.flow_of):
        flow = hostile.flows[flow_index]
        if flow_index in seen_flows:
            rest.append(packet)
            continue
        seen_flows.add(flow_index)
        if flow.cookie is not None:
            firsts.append(packet)
            by_class.setdefault(flow.klass, []).append(flow.cookie)
    valid = by_class["valid"]

    # trace.records / netsim.packet
    records = [
        FlowRecord(T0, f"10.9.{i >> 8}.{i & 0xFF}", 2000 + i, SERVER_IP, 443, 50, 472)
        for i in range(100)
    ]
    out["trace.records.flow_to_packets_us_per_packet"] = (
        best_ns(
            lambda: [
                list(
                    flow_to_packets(
                        record, cookie=valid[i % len(valid)], registry=registry
                    )
                )
                for i, record in enumerate(records)
            ],
            len(records) * 50,
        )
        / 1e3
    )
    out["netsim.packet.wire_length_ns"] = best_ns(
        _each(lambda packet: packet.wire_length, hostile.packets), len(hostile.packets)
    )

    # core.transport
    out["core.transport.extract_hit_ns"] = best_ns(
        _each(registry.extract, firsts), len(firsts)
    )
    out["core.transport.extract_miss_ns"] = best_ns(
        _each(registry.extract, rest), len(rest)
    )

    # core.cookie
    texts = [cookie.to_text() for cookie in valid]
    blobs = [cookie.to_bytes() for cookie in valid]
    out["core.cookie.from_text_ns"] = best_ns(_each(Cookie.from_text, texts), len(texts))
    out["core.cookie.from_bytes_ns"] = best_ns(
        _each(Cookie.from_bytes, blobs), len(blobs)
    )
    keyed = [(store.get(cookie.cookie_id).key, cookie) for cookie in valid]
    out["core.cookie.sign_ns"] = best_ns(
        lambda: [
            sign_cookie_fields(key, c.cookie_id, c.uuid, c.timestamp) for key, c in keyed
        ],
        len(keyed),
    )
    hot_keys = [descriptor.key for descriptor, _ in zip(store, range(64))]
    hot = [(hot_keys[i % 64], cookie) for i, cookie in enumerate(valid)]

    def signer_pass(pairs):
        def make():
            sign = SignerCache().sign
            return lambda: [
                sign(key, c.cookie_id, c.uuid, c.timestamp) for key, c in pairs
            ]

        return make

    warm = SignerCache()
    for key in hot_keys:
        warm.sign(key, 0, b"\0" * 16, 0.0)
    out["core.cookie.signer_cache_sign_ns.hot"] = best_ns(
        lambda: [warm.sign(key, c.cookie_id, c.uuid, c.timestamp) for key, c in hot],
        len(hot),
    )
    cold = [
        (descriptor.key, valid[i % len(valid)])
        for i, (descriptor, _) in enumerate(
            zip(store, range(max(256, int(COLD_KEYS * scale))))
        )
    ]
    out["core.cookie.signer_cache_sign_ns.cold"] = best_ns_fresh(
        signer_pass(cold), len(cold)
    )

    # core.store
    ids = [cookie.cookie_id for cookie in valid]
    out["core.store.get_ns"] = best_ns(_each(store.get, ids), len(ids))

    # core.matcher
    def match_all(cookies):
        def make():
            match = CookieMatcher(store).match
            return lambda: [match(cookie, T0) for cookie in cookies]

        return make

    out["core.matcher.match_accept_ns"] = best_ns_fresh(match_all(valid), len(valid))
    for reason in ("unknown_id", "bad_signature", "stale_timestamp"):
        out[f"core.matcher.match_reject_ns.{reason}"] = best_ns_fresh(
            match_all(by_class[reason]), len(by_class[reason])
        )

    def replay_all():
        matcher = CookieMatcher(store)
        for cookie in valid:
            matcher.match(cookie, T0)
        return lambda: [matcher.match(cookie, T0) for cookie in valid]

    out["core.matcher.match_reject_ns.replayed"] = best_ns_fresh(replay_all, len(valid))
    out["core.matcher.match_batch_ns"] = best_ns_fresh(
        lambda: (lambda m=CookieMatcher(store): m.match_batch(valid, T0)), len(valid)
    )
    replay_keys = [c.cookie_id.to_bytes(8, "big") + c.uuid for c in valid]

    def replay_check():
        check = ReplayCache(window=10.0).check_and_record
        return lambda: [check(key, T0) for key in replay_keys]

    out["core.matcher.replay_check_ns"] = best_ns_fresh(replay_check, len(replay_keys))

    # zerorate.middlebox: the scalar path over the steady shape.
    steady = build_corpus(
        CorpusSpec(flows=100, packets_per_flow=50, packet_size=512, descriptors=256),
        seed,
    )

    def scalar():
        handle = ZeroRatingMiddlebox(
            CookieMatcher(steady.store), clock=VirtualClock()
        ).handle
        return _each(handle, steady.packets)

    out["zerorate.middlebox.scalar_ns"] = best_ns_fresh(scalar, len(steady.packets))

    # zerorate.catalog
    origin = AppCoverage(app=APP, origin_ips=frozenset({SERVER_IP}))
    catalogs = CatalogSet(
        [
            OperatorCatalog(OPERATORS[0], apps=(origin,)),
            OperatorCatalog(OPERATORS[1], apps=(origin,), cap_bytes=1 << 40),
            OperatorCatalog(
                OPERATORS[2],
                apps=(AppCoverage(app=APP, cdn_ips=frozenset({SERVER_IP})),),
            ),
        ]
    )
    subscribers = [flow.client_ip for flow in hostile.flows]
    for index, ip in enumerate(subscribers):
        catalogs.assign(ip, OPERATORS[index % 3])
    out["zerorate.catalog.decide_ns"] = best_ns(
        lambda: [
            catalogs.decide(ip, APP, SERVER_IP, 512, cookied=True, cap_used=0)
            for ip in subscribers
        ],
        len(subscribers),
    )

    # billing.journal / billing.reconcile
    billing_records = [
        BillingRecord(
            offset=i,
            record_id=rng.getrandbits(63),
            time=T0,
            operator=OPERATORS[i % 3],
            subscriber=subscribers[i % len(subscribers)],
            app=APP,
            byte_class="origin",
            free_bytes=25_596,
        )
        for i in range(max(64, int(2_000 * scale)))
    ]
    out["billing.journal.encode_ns"] = best_ns(
        _each(BillingRecord.encode, billing_records), len(billing_records)
    )
    bulk = len(billing_records)
    for policy, count in (("never", bulk), ("rotate", bulk), ("always", 64)):
        directory = work_dir(f"stage-{policy}")

        def appends(policy=policy, count=count, directory=directory):
            shutil.rmtree(directory, ignore_errors=True)
            journal = BillingJournal(str(directory), source="stage", fsync=policy)

            def run() -> None:
                for record in billing_records[:count]:
                    journal.append(
                        operator=record.operator,
                        subscriber=record.subscriber,
                        app=record.app,
                        byte_class=record.byte_class,
                        free_bytes=record.free_bytes,
                        time=T0,
                    )
                journal.close()

            return run

        out[f"billing.journal.append_ns.{policy}"] = best_ns_fresh(appends, count)
        if policy == "rotate":
            out["billing.reconcile.records_per_s"] = 1e9 / best_ns(
                lambda d=directory: reconcile_directories([str(d)]), count
            )
        shutil.rmtree(directory, ignore_errors=True)


# ----------------------------------------------------------------------
# Verifier pool
# ----------------------------------------------------------------------


def pool_stages(seed: int, scale: float, out: dict[str, float]) -> None:
    store, cookies = build_cookie_stream(
        seed, POOL_DESCRIPTORS, POOL_BATCH * max(1, int(4 * scale))
    )
    batches = [list(batch) for batch in chunks(cookies, POOL_BATCH)]
    workers = pool_workers()

    def through(make_pool, close=None):
        def make():
            pool = make_pool()

            def run() -> None:
                for batch in batches:
                    pool.match_batch(batch, T0)
                if close is not None:
                    close(pool)

            return run

        return make

    in_process = best_ns_fresh(through(lambda: CookieMatcher(store)), len(cookies))
    out["core.distributed.match_batch_ns"] = best_ns_fresh(
        through(lambda: ShardedVerifierPool(store, shards=workers)), len(cookies)
    )

    batch = batches[0]
    frame = encode_batch(batch)
    verdicts = [(0, cookie.cookie_id) for cookie in batch]
    verdict_frame = encode_verdicts(verdicts)
    out["core.parallel.encode_batch_ns"] = best_ns(lambda: encode_batch(batch), len(batch))
    out["core.parallel.decode_batch_ns"] = best_ns(lambda: decode_batch(frame), len(batch))
    out["core.parallel.encode_verdicts_ns"] = best_ns(
        lambda: encode_verdicts(verdicts), len(batch)
    )
    out["core.parallel.decode_verdicts_ns"] = best_ns(
        lambda: decode_verdicts(verdict_frame), len(batch)
    )

    ring = ShmRing.create()
    try:
        out["core.shm_ring.roundtrip_us_per_frame"] = (
            best_ns(lambda: [(ring.try_push(frame), ring.try_pop()) for _ in range(50)], 50)
            / 1e3
        )
    finally:
        ring.close()

    # One real pool: spawn cost, and what IPC adds per cookie over the
    # same matcher run in-process.
    spawn_s: list[float] = []
    pooled = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        pool = ProcessShardExecutor.auto(store, workers=workers)
        spawn_s.append(time.perf_counter() - started)
        try:
            started_ns = time.perf_counter_ns()
            for each in batches:
                pool.match_batch(each, T0)
            pooled = min(pooled, (time.perf_counter_ns() - started_ns) / len(cookies))
        finally:
            pool.close()
    out["core.parallel.spawn_s"] = median(spawn_s)
    out["core.parallel.ipc_overhead_ns"] = pooled - in_process


# ----------------------------------------------------------------------
# Acquisition path
# ----------------------------------------------------------------------


def _replay_plain(server: CookieServer, events: Sequence[ChurnEvent], ops) -> int:
    held = Holdings()
    done = 0
    for event, op in zip(events, ops):
        user = f"sub-{event.subscriber}"
        if op == "acquire":
            held.grant(event.subscriber, server.acquire(user, event.service).cookie_id)
        elif op == "renew":
            held.grant(
                event.subscriber,
                server.renew(user, held.newest(event.subscriber)).cookie_id,
            )
        elif op == "revoke":
            server.revoke(held.take(event.subscriber))
        else:
            continue
        done += 1
    return done


def _replay_sharded(
    controlplane: ShardedControlPlane, events: Sequence[ChurnEvent], ops
) -> None:
    held = Holdings()
    done = {"acquire": 0, "renew": 0, "revoke": 0, "denied": 0}
    for start in range(0, len(events), CHURN_CHUNK):
        stop = start + CHURN_CHUNK
        replay_chunk(controlplane, held, events[start:stop], ops[start:stop], done)


def acquisition_stages(seed: int, scale: float, out: dict[str, float]) -> None:
    population = SubscriberPopulation(
        max(1_000, int(STAGE_POPULATION * scale)),
        seed=derive_seed(seed, "bench", "stage-population"),
    )
    offerings = [
        ServiceOffering(name=name, lifetime=3600.0) for name in population.service_names
    ]
    events = population.take_events(
        max(2 * CHURN_CHUNK, int(STAGE_CHURN_EVENTS * scale)), rate=SCHEDULE_RATE
    )
    sequential = plan_churn(events, 1)
    chunked = plan_churn(events, CHURN_CHUNK)
    clock = VirtualClock()

    def fresh(shards: int = 1, replica: bool = False) -> ShardedControlPlane:
        controlplane = ShardedControlPlane(clock=clock, shards=shards, mode="in-process")
        for offering in offerings:
            controlplane.offer(offering)
        if replica:
            controlplane.register_replica(VerifierReplica("stage-replica"))
        return controlplane

    # Plain CookieServer: the 1.0x reference for cp-churn.
    def plain():
        server = CookieServer(clock=clock)
        for offering in offerings:
            server.offer(offering)
        return lambda: _replay_plain(server, events, sequential.ops)

    out["core.server.churn_ops_per_s"] = 1e9 / best_ns_fresh(plain, sequential.completed)
    for shards in (2, 4):
        out[f"core.cp.service.churn_ops_per_s.shards{shards}"] = 1e9 / best_ns_fresh(
            lambda shards=shards: (
                lambda cp=fresh(shards, replica=True): _replay_sharded(
                    cp, events, chunked.ops
                )
            ),
            chunked.completed,
            repeats=2,
        )

    # core.cp.service, one public call at a time.
    requests = [(f"sub-{e.subscriber}", e.service) for e in events[: 4 * CHURN_CHUNK]]
    batches = [list(batch) for batch in chunks(requests, CHURN_CHUNK)]
    out["core.cp.service.acquire_batch_us_per_op"] = (
        best_ns_fresh(
            lambda: (lambda cp=fresh(): [cp.acquire_batch(b) for b in batches]),
            len(requests),
        )
        / 1e3
    )
    controlplane = fresh()
    granted = [
        int(result["descriptor"]["cookie_id"])
        for result in controlplane.acquire_batch(requests)
    ]
    users = [user for user, _ in requests]
    out["core.cp.service.renew_us"] = (
        best_ns(
            lambda: [controlplane.renew(u, i) for u, i in zip(users[:512], granted[:512])],
            512,
        )
        / 1e3
    )

    def revoke():
        cp = fresh()
        ids = [int(r["descriptor"]["cookie_id"]) for r in cp.acquire_batch(requests)]
        id_batches = [list(batch) for batch in chunks(ids, CHURN_CHUNK)]
        return lambda: [cp.revoke_batch(batch) for batch in id_batches]

    out["core.cp.service.revoke_batch_us_per_op"] = (
        best_ns_fresh(revoke, len(requests)) / 1e3
    )

    def sync():
        cp = fresh(replica=True)
        cp.acquire_batch(requests[:CHURN_CHUNK])
        return cp.sync_replicas

    out["core.cp.service.sync_replicas_us"] = best_ns_fresh(sync, 1) / 1e3

    payloads = [
        {"op": "acquire", "user": user, "service": service} for user, service in requests
    ]
    out["core.cp.service.handle_request_us"] = (
        best_ns_fresh(
            lambda: (lambda cp=fresh(): [cp.handle_request(p) for p in payloads]),
            len(payloads),
        )
        / 1e3
    )

    # core.cp.deltalog / core.cp.replica / core.descriptor
    descriptors = [controlplane.lookup(cookie_id) for cookie_id in granted]
    documents = [descriptor.to_json() for descriptor in descriptors]
    out["core.descriptor.to_json_ns"] = best_ns(
        _each(CookieDescriptor.to_json, descriptors), len(descriptors)
    )
    out["core.descriptor.from_json_ns"] = best_ns(
        _each(CookieDescriptor.from_json, documents), len(documents)
    )

    def log_append():
        log = DeltaLog()
        return lambda: [
            log.append("add", doc["cookie_id"], T0, doc) for doc in documents
        ]

    out["core.cp.deltalog.append_ns"] = best_ns_fresh(log_append, len(documents))
    log = DeltaLog()
    for doc in documents:
        log.append("add", doc["cookie_id"], T0, doc)
    out["core.cp.deltalog.since_ns_per_record"] = best_ns(
        lambda: [log.since(offset) for offset in range(0, len(documents), 64)],
        sum(len(documents) - offset for offset in range(0, len(documents), 64)),
    )
    records = log.since(0)
    out["core.cp.replica.apply_ns_per_delta"] = best_ns_fresh(
        lambda: (lambda r=VerifierReplica("stage"): r.apply_deltas(0, records, now=T0)),
        len(records),
    )

    # core.netserver: what one round trip costs with no control-plane work.
    reply = controlplane.handle_request(payloads[0])

    def codec() -> None:
        for payload in payloads[:512]:
            json.loads(json.dumps(payload).encode("utf-8") + b"\n")
            json.loads(json.dumps(reply).encode("utf-8") + b"\n")

    out["core.netserver.json_codec_us"] = best_ns(codec, 512) / 1e3
    out["core.netserver.rpc_floor_us"] = (
        asyncio.run(_rpc_floor(fresh(), max(100, int(1_000 * scale)))) * 1e6
    )


async def _rpc_floor(controlplane: ShardedControlPlane, requests: int) -> float:
    """Median ``list_services`` round trip on one warm connection."""
    server = AsyncControlPlaneServer(controlplane)
    host, port = await server.start()
    client = CookieClient(host, port)
    samples: list[float] = []
    try:
        await client.connect()
        for _ in range(requests):
            started = time.perf_counter()
            await client.request({"op": "list_services"})
            samples.append(time.perf_counter() - started)
    finally:
        await client.close()
        await server.stop()
    return median(samples)


def run_stages(seed: int, scale: float = 1.0) -> dict[str, float]:
    out: dict[str, float] = {}
    packet_stages(seed, scale, out)
    pool_stages(seed, scale, out)
    acquisition_stages(seed, scale, out)
    return out
