"""Sharded control plane: routing, replication, shedding, recovery.

Covers the PR-8 tentpole end to end at unit scale: rendezvous routing
parity with the data plane, the CookieServer-compatible JSON API plus
the §14 extensions, revocation broadcast under the staleness bound,
partition recovery by snapshot-then-replay, load shedding through the
admission gate, and the telemetry collector.
"""

import asyncio
import hashlib
import json
import os

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import (
    AcquisitionDenied,
    AuthenticatedUsersPolicy,
    CookieAttributes,
    CookieServer,
    DescriptorStore,
    QuotaPolicy,
    ServiceOffering,
)
from repro.core.cp import (
    AsyncControlPlaneServer,
    DeltaLog,
    ShardedControlPlane,
    StoreSnapshot,
    VerifierReplica,
)
from repro.core.descriptor import GRANT_DRAW_BYTES
from repro.core.distributed import rendezvous_shard
from repro.core.netserver import CookieClient
from repro.telemetry import MetricsRegistry


class ManualClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def _controlplane(shards: int = 2, **kwargs) -> ShardedControlPlane:
    clock = kwargs.pop("clock", ManualClock())
    controlplane = ShardedControlPlane(clock=clock, shards=shards, **kwargs)
    controlplane.offer(ServiceOffering(name="Boost", description="fast lane"))
    return controlplane


class TestRoutingAndLifecycle:
    def test_acquire_routes_by_rendezvous_hash(self):
        with _controlplane(shards=4) as controlplane:
            descriptors = [
                controlplane.acquire(f"user{i}", "Boost") for i in range(32)
            ]
            for descriptor in descriptors:
                shard = rendezvous_shard(descriptor.cookie_id, 4)
                assert controlplane.shard_of(descriptor.cookie_id) == shard
                stats = controlplane.shard_stats()[shard]
                assert stats["descriptors"] >= 1
                found = controlplane.lookup(descriptor.cookie_id)
                assert found is not None
                assert found.cookie_id == descriptor.cookie_id
            # Every acquisition landed on exactly one shard.
            assert sum(
                s["acquired"] for s in controlplane.shard_stats()
            ) == len(descriptors)

    def test_revoke_and_renew(self):
        with _controlplane(shards=2) as controlplane:
            controlplane.offer(
                ServiceOffering(name="Shortlived", lifetime=10.0)
            )
            descriptor = controlplane.acquire("alice", "Shortlived")
            renewed = controlplane.renew("alice", descriptor.cookie_id)
            assert renewed.cookie_id != descriptor.cookie_id
            assert renewed.service_data == "Shortlived"
            assert controlplane.revoke(descriptor.cookie_id)
            assert not controlplane.revoke(descriptor.cookie_id + 1)
            looked_up = controlplane.lookup(descriptor.cookie_id)
            assert looked_up is not None and looked_up.revoked

    def test_unknown_service_denied(self):
        with _controlplane() as controlplane:
            with pytest.raises(AcquisitionDenied):
                controlplane.acquire("alice", "nope")
            assert controlplane.stats.denied == 1

    def test_shard_snapshots_partition_the_issued_ids(self):
        with _controlplane(shards=2) as controlplane:
            issued = {
                controlplane.acquire(f"user{i}", "Boost").cookie_id
                for i in range(12)
            }
            assert controlplane.revoke(min(issued))
            assert controlplane.lookup(min(issued)).revoked
            snapshotted = [
                descriptor.cookie_id
                for shard in controlplane._shards
                for descriptor in shard.snapshot().materialize()
            ]
            assert sorted(snapshotted) == sorted(issued)

    @pytest.mark.parametrize("mode", ["process", "auto"])
    def test_only_in_process_mode_is_accepted(self, mode):
        with pytest.raises(ValueError, match="14.4"):
            ShardedControlPlane(shards=2, mode=mode)
        ShardedControlPlane(shards=2, mode="in-process").close()

    def test_json_api_cookieserver_compatible_plus_extensions(self):
        with _controlplane(shards=2) as controlplane:
            services = controlplane.handle_request({"op": "list_services"})
            assert services["ok"]
            assert services["services"][0]["name"] == "Boost"
            granted = controlplane.handle_request(
                {"op": "acquire", "user": "alice", "service": "Boost"}
            )
            assert granted["ok"]
            cookie_id = int(granted["descriptor"]["cookie_id"])
            renewed = controlplane.handle_request(
                {"op": "renew", "user": "alice", "cookie_id": cookie_id}
            )
            assert renewed["ok"]
            revoked = controlplane.handle_request(
                {"op": "revoke", "cookie_id": cookie_id}
            )
            assert revoked["ok"]

            shard = controlplane.shard_of(cookie_id)
            snapshot = controlplane.handle_request(
                {"op": "snapshot", "shard": shard}
            )
            assert snapshot["ok"]
            assert snapshot["snapshot"]["offset"] >= 1
            deltas = controlplane.handle_request(
                {"op": "deltas_since", "shard": shard, "offset": 0}
            )
            assert deltas["ok"]
            assert deltas["records"][0]["op"] == "add"
            stats = controlplane.handle_request({"op": "stats"})
            assert stats["ok"] and stats["stats"]["shards"] == 2
            assert not controlplane.handle_request({"op": "frobnicate"})["ok"]
            assert not controlplane.handle_request(
                {"op": "snapshot", "shard": 99}
            )["ok"]


def _batch(requests):
    return {"op": "acquire_batch", "requests": requests}


class TestRepliesMatchState:
    @pytest.mark.contract
    @pytest.mark.parametrize(
        "payload, error, granted, denied",
        [
            # The malformed third entry fails alone, in its slot, and
            # counts nothing: ``denied`` is policy refusals only.
            (_batch([["u", "Boost"], ["v", "Boost"], ["w", "Boost", [1]]]), None, 2, 0),
            (_batch([[]]), "bad request", 0, 0),
            (_batch([["u"]]), "bad request", 0, 0),
            (_batch("ab"), "bad request", 0, 0),
            ({"op": "snapshot", "shard": -1}, "unknown shard", 0, 0),
            ({"op": "deltas_since", "shard": -1, "offset": 0}, "unknown shard", 0, 0),
        ],
        ids=["one-bad-entry", "empty-entry", "short-entry", "string", "snapshot-1", "deltas-1"],
    )
    def test_store_log_replica_and_stats_agree_with_the_reply(
        self, payload, error, granted, denied
    ):
        with _controlplane(shards=2) as controlplane:
            replica = controlplane.register_replica(VerifierReplica("mb0"))
            reply = controlplane.handle_request(payload)
            controlplane.sync_replicas()
            handed_out = set()
            if error is None:
                assert reply["ok"]
                for result in reply["results"]:
                    if result["ok"]:
                        handed_out.add(int(result["descriptor"]["cookie_id"]))
                    else:
                        assert result["error"].startswith("bad request")
            else:
                assert not reply["ok"] and reply["error"].startswith(error)
            assert len(handed_out) == granted
            shards = controlplane._shards
            assert {d.cookie_id for shard in shards for d in shard.store} == handed_out
            assert {r.cookie_id for shard in shards for r in shard.log} == handed_out
            assert {d.cookie_id for d in replica.store} == handed_out
            assert controlplane.stats.acquired == granted
            assert controlplane.stats.denied == denied


class _Calls:
    """An enforcement store that only writes down what it was told."""

    def __init__(self) -> None:
        self.seen: list[tuple] = []

    def add(self, descriptor) -> None:
        self.seen.append(("add", descriptor.cookie_id))

    def revoke(self, cookie_id: int) -> None:
        self.seen.append(("revoke", cookie_id))


@pytest.mark.contract
class TestPlainServerIsTheSameCore:
    """What only the shard had, plain ``CookieServer`` has too."""

    @staticmethod
    def _server():
        clock = ManualClock()
        server = CookieServer(clock=clock)
        server.offer(ServiceOffering(name="Boost"))
        store, log, calls = DescriptorStore(), DeltaLog(clock=clock), _Calls()
        for attached in (store, log, calls):
            server.attach_enforcement_store(attached)
        return clock, server, store, log, calls

    def test_repeat_revoke_is_idempotent_everywhere(self):
        clock, server, store, log, calls = self._server()
        cookie_id = server.acquire("alice", "Boost").cookie_id
        clock.advance(1.0)
        assert server.revoke(cookie_id, by="alice")
        assert server.revoke(cookie_id, by="alice")
        assert not server.revoke(cookie_id ^ 1)
        report = server.audit_log.regulator_report()
        assert report["services"]["Boost"]["revoked"] == 1
        assert calls.seen == [("add", cookie_id), ("revoke", cookie_id)]
        assert [(r.op, r.cookie_id, r.time) for r in log] == [
            ("add", cookie_id, 1000.0),
            ("revoke", cookie_id, 1001.0),
        ]
        assert store.get(cookie_id).revoked and server.revoked == 1


GRANTED, UNKNOWN = "<the first id this door granted>", 0xDEAD
_ALICE = {"user": "alice", "credentials": {"secret": "s3"}}
FRONT_DOOR_SCRIPT = [
    {"op": "list_services"},
    {"op": "acquire", "service": "Boost", **_ALICE},
    {"op": "acquire", "service": "Boost", "user": "mallory"},
    {"op": "acquire", "service": "Nope", **_ALICE},
    {"op": "renew", "cookie_id": GRANTED, **_ALICE},
    {"op": "renew", "cookie_id": UNKNOWN, **_ALICE},
    {"op": "renew", "cookie_id": GRANTED, "user": "mallory"},
    {"op": "revoke", "cookie_id": GRANTED, "user": "alice"},
    {"op": "revoke", "cookie_id": GRANTED},
    {"op": "revoke", "cookie_id": UNKNOWN},
    {"op": "revoke"},
    {"op": "renew", "cookie_id": "not-an-int", **_ALICE},
    {"op": "acquire", "service": "Boost", "user": "alice", "credentials": "s3"},
    {"op": "frobnicate"},
]


@pytest.mark.contract
def test_two_front_doors_one_core():
    """The plain server, a 1-shard and a 2-shard plane answer one script
    identically (ids and keys masked) and end holding the same state."""

    def drive(door):
        replies, granted = [], None
        for step in FRONT_DOOR_SCRIPT:
            if step.get("cookie_id") == GRANTED:
                step = {**step, "cookie_id": granted}
            reply = door.handle_request(step)
            if "descriptor" in reply:
                if granted is None:
                    granted = reply["descriptor"]["cookie_id"]
                reply["descriptor"].update(cookie_id="*", key="*")
            replies.append(reply)
        return replies

    def tally(store):
        return sorted(d.revoked for d in store)

    policy = AuthenticatedUsersPolicy({"alice": "s3"})
    offering = ServiceOffering(name="Boost", description="fast lane")
    server = CookieServer(clock=ManualClock(), policy=policy)
    server.offer(offering)
    mirror = DescriptorStore()
    server.attach_enforcement_store(mirror)
    expected = drive(server)
    assert [r["ok"] for r in expected] == [
        True, True, False, False, True, False, False,
        True, True, False, False, False, False, False,
    ]
    assert tally(mirror) == [False, True]
    for shards in (1, 2):
        with _controlplane(shards=shards, policy=policy) as controlplane:
            replica = controlplane.register_replica(VerifierReplica("mb0"))
            assert drive(controlplane) == expected
            controlplane.sync_replicas()
            assert tally(replica.store) == tally(mirror)
            assert controlplane.stats.acquired == server.acquired == 2
            assert controlplane.stats.denied == server.denied == 3
            assert controlplane.stats.revoked == server.revoked == 1


class _Draws:
    """Stands in for ``os.urandom``: a batch of n grants draws once,
    ``n * GRANT_DRAW_BYTES``, served as n successive grants' draws — a
    numbered id (big-endian) then a key of that number's bytes."""

    def __init__(self) -> None:
        self.count = 0  # grants' draws served
        self.calls = 0

    def urandom(self, nbytes: int) -> bytes:
        grants, rest = divmod(nbytes, GRANT_DRAW_BYTES)
        assert grants and not rest, "a batch draws whole grants"
        self.calls += 1
        return b"".join(self._one() for _ in range(grants))

    def _one(self) -> bytes:
        self.count += 1
        cookie_id = (0x0123456789ABCDEF * self.count) % 2**64
        return cookie_id.to_bytes(8, "big") + bytes([self.count]) * (GRANT_DRAW_BYTES - 8)


#: The first grant either door makes below, as its reply carries it.
FIRST_GRANT = (
    '{"cookie_id": 81985529216486895, "service_data": "Boost", "attributes": '
    '{"granularity": "flow", "flow_fields": ["src_ip", "src_port", "dst_ip", '
    '"dst_port", "proto"], "apply_reverse": true, "shared": false, '
    '"ack_cookie": false, "delivery_guarantee": false, "transports": ["http", '
    '"tls", "ipv6", "tcp", "udp"], "expires_at": 4600.0, "extra": {}}, '
    '"revoked": false, "key": "' + "01" * 32 + '"}'
)


@pytest.mark.contract
def test_grant_bytes_are_the_recorded_ones(monkeypatch):
    """Every byte a grant produces — replies, batch results, delta
    records, snapshots, the replica's store, the audit log — equals what
    was recorded before grants were built in one pass (SHA-256 over the
    JSON lines; the first grant spelled out).  Re-recorded when a
    grant's id and key became one draw: the same ids and keys drawn two
    at a time through ``secrets`` give these digests too."""
    draws = _Draws()
    monkeypatch.setattr(os, "urandom", draws.urandom)

    def offer(door):
        door.offer(ServiceOffering(name="Boost"))
        door.offer(
            ServiceOffering(name="Forever", lifetime=None, service_data={"tier": 1})
        )

    def plain():
        clock = ManualClock()
        server = CookieServer(clock=clock)
        offer(server)
        log = DeltaLog(clock=clock)
        server.attach_enforcement_store(log)
        ask = server.handle_request
        first = ask({"op": "acquire", "service": "Boost", **_ALICE})
        clock.advance(1.5)
        alice = {"user": "alice", "cookie_id": first["descriptor"]["cookie_id"]}
        out = [
            first,
            ask({"op": "renew", **alice}),
            ask({"op": "acquire", "user": "bob", "service": "Forever"}),
            ask({"op": "revoke", **alice}),
            *(record.to_json() for record in log),
            StoreSnapshot.take(server.issued, log.next_offset).to_json(),
        ]
        audit = [json.dumps(record.to_json()) for record in server.audit_log]
        return [json.dumps(item) for item in out] + audit

    def plane():
        clock = ManualClock()
        controlplane = ShardedControlPlane(clock=clock, shards=1)
        offer(controlplane)
        replica = controlplane.register_replica(VerifierReplica("mb0"))
        ask = controlplane.handle_request
        batch = ask(_batch([["alice", "Boost"], ["bob", "Forever", {"k": 1}]]))
        clock.advance(1.5)
        cookie_id = batch["results"][0]["descriptor"]["cookie_id"]
        out = [
            batch,
            ask({"op": "acquire", "user": "carol", "service": "Boost"}),
            ask({"op": "renew", "user": "alice", "cookie_id": cookie_id}),
            ask({"op": "revoke", "cookie_id": cookie_id}),
            ask({"op": "deltas_since", "shard": 0, "offset": 0}),
            ask({"op": "snapshot", "shard": 0}),
            [descriptor.to_json() for descriptor in replica.store],
        ]
        return [json.dumps(item) for item in out]

    def digest(lines):
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    lines = plain()
    assert lines[0] == '{"ok": true, "descriptor": ' + FIRST_GRANT + "}"
    assert (len(lines), digest(lines)) == (
        17, "8eac1a6ccd6016eff00effad494743945feddf15da3db55a1d650a29c3b89e5e"
    )
    # One draw per batch: acquire, renew, acquire — each a batch of one.
    assert (draws.calls, draws.count) == (3, 3)
    draws.count = draws.calls = 0
    lines = plane()
    assert lines[0].startswith(
        '{"ok": true, "results": [{"ok": true, "descriptor": ' + FIRST_GRANT
    )
    assert (len(lines), digest(lines)) == (
        7, "1c51aff3547744ebbe353412a57a69979ad52fb52d93c7acf5d08370d371ca36"
    )
    # The batch of two draws once; acquire and renew are batches of one.
    assert (draws.calls, draws.count) == (3, 4)


def _reply(grant):
    """What ``acquire_batch`` puts in a slot, from what a single
    ``acquire`` returned or raised."""
    try:
        descriptor = grant()
    except AcquisitionDenied as exc:
        return {"ok": False, "error": str(exc)}
    except (TypeError, ValueError) as exc:
        return {"ok": False, "error": f"bad request: {exc}"}
    return {"ok": True, "descriptor": descriptor.to_json()}


class _TickingClock(ManualClock):
    """A clock that moves on every reading."""

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def _tiered(now: float) -> CookieAttributes:
    return CookieAttributes(expires_at=now + 60.0, extra={"tier": 2})


@pytest.mark.contract
class TestABatchIsOneInstant:
    """A batch is granted at one instant from one draw, and the grants
    of one offering without a factory share one block (PROTOCOL §14.1):
    what comes out is what the same entries, granted one by one at that
    instant from the same draws, give."""

    ENTRIES = [
        ("alice", "Boost", {"secret": "a"}),
        ("bob", "Boost", {"secret": "b"}),  # Boost again: one block
        ("mallory", "Boost", {"secret": "guess"}),  # the policy refuses
        ("carol", "Forever", [1]),  # malformed: fails alone
        ("alice", "Nope", {"secret": "a"}),  # not offered
        ("carol", "Forever", {"secret": "c"}, {"lang": "fr"}),
        ("dave", "Tiered", {"secret": "d"}),  # a factory: a block each
        ("alice", "Tiered", {"secret": "a"}),
    ]

    @staticmethod
    def _offer(door):
        door.offer(ServiceOffering(name="Boost"))
        door.offer(ServiceOffering(name="Forever", lifetime=None, service_data={"tier": 1}))
        door.offer(ServiceOffering(name="Tiered", attribute_factory=_tiered))

    @staticmethod
    def _policy():
        return AuthenticatedUsersPolicy({"alice": "a", "bob": "b", "carol": "c", "dave": "d"})

    def _plane(self, shards):
        controlplane = _controlplane(shards=shards, policy=self._policy())
        self._offer(controlplane)
        replica = controlplane.register_replica(VerifierReplica("mb0"))
        return controlplane, replica

    @staticmethod
    def _state(controlplane, replica, replies):
        controlplane.sync_replicas()
        shards = range(controlplane.shard_count)
        ask = controlplane.handle_request
        return [
            json.dumps(replies),
            *(json.dumps(ask({"op": "deltas_since", "shard": i, "offset": 0})) for i in shards),
            *(json.dumps(ask({"op": "snapshot", "shard": i})) for i in shards),
            json.dumps(sorted((d.to_json() for d in replica.store), key=str)),
            json.dumps(controlplane.stats.as_dict()),
            json.dumps(controlplane.shard_stats()),
        ]

    @pytest.mark.parametrize("shards", [1, 2])
    def test_batch_is_the_entries_one_by_one(self, monkeypatch, shards):
        draws = _Draws()
        monkeypatch.setattr(os, "urandom", draws.urandom)
        controlplane, replica = self._plane(shards)
        batch = self._state(controlplane, replica, controlplane.acquire_batch(self.ENTRIES))
        assert (draws.calls, draws.count) == (1, len(self.ENTRIES))

        draws.count = draws.calls = 0
        controlplane, replica = self._plane(shards)
        replies = [_reply(lambda e=e: controlplane.acquire(*e)) for e in self.ENTRIES]
        assert draws.calls == len(self.ENTRIES)
        assert batch == self._state(controlplane, replica, replies)
        assert [r["ok"] for r in replies] == [True, True, False, False, False, True, True, True]
        assert replies[3]["error"].startswith("bad request")
        assert controlplane.stats.denied == 2 and controlplane.stats.acquired == 5
        if shards > 1:  # the draws stand in for ids that hop shards
            ids = [r["descriptor"]["cookie_id"] for r in replies if r["ok"]]
            assert {controlplane.shard_of(i) for i in ids} == {0, 1}

    def test_plain_server_audits_a_batch_as_its_grants(self, monkeypatch):
        draws = _Draws()
        monkeypatch.setattr(os, "urandom", draws.urandom)

        def server():
            door = CookieServer(clock=ManualClock(), policy=self._policy())
            self._offer(door)
            return door

        batched = server()
        draw = os.urandom(GRANT_DRAW_BYTES * len(self.ENTRIES))
        granted = batched.grant_batch(self.ENTRIES, 1000.0, draw, {})
        draws.count = 0
        single = server()
        for entry in self.ENTRIES:
            _reply(lambda: single.acquire(*entry))
        assert [r.to_json() for r in batched.audit_log] == [
            r.to_json() for r in single.audit_log
        ]
        assert (batched.acquired, batched.denied) == (single.acquired, single.denied) == (5, 2)
        assert [d.to_json() for d in batched.issued] == [d.to_json() for d in single.issued]
        assert [type(g).__name__ for g in granted] == [
            "CookieDescriptor", "CookieDescriptor", "AcquisitionDenied", "TypeError",
            "AcquisitionDenied", "CookieDescriptor", "CookieDescriptor", "CookieDescriptor",
        ]

    @pytest.mark.parametrize("shards", [1, 2])
    def test_one_block_per_default_offering(self, shards):
        controlplane, _ = self._plane(shards)
        replies = controlplane.acquire_batch(self.ENTRIES + [("bob", "Forever", {"secret": "b"})])
        held = [
            controlplane.lookup(r["descriptor"]["cookie_id"]) if r["ok"] else None
            for r in replies
        ]
        alice, bob, carol, dave, alice_tiered, bob_forever = (
            held[0], held[1], held[5], held[6], held[7], held[8]
        )
        assert alice.attributes is bob.attributes
        assert carol.attributes is bob_forever.attributes
        assert alice.attributes is not carol.attributes
        assert dave.attributes == alice_tiered.attributes
        assert dave.attributes is not alice_tiered.attributes
        # ... and nothing of the batch outlives it: the next batch's block is its own.
        (again,) = controlplane.acquire_batch([("bob", "Boost", {"secret": "b"})])
        assert controlplane.lookup(again["descriptor"]["cookie_id"]).attributes is not alice.attributes

    @pytest.mark.parametrize("shards", [1, 2])
    def test_one_clock_reading_per_batch(self, shards):
        clock = _TickingClock()
        with _controlplane(shards=shards, clock=clock) as controlplane:
            # A factory builds each grant's block at the grant's instant.
            controlplane.offer(ServiceOffering(name="Tiered", attribute_factory=_tiered))
            replies = controlplane.acquire_batch([(f"u{i}", "Tiered") for i in range(16)])
            assert len({r["descriptor"]["attributes"]["expires_at"] for r in replies}) == 1
            later = controlplane.acquire("u", "Tiered").attributes.expires_at
            assert later > replies[0]["descriptor"]["attributes"]["expires_at"]

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_a_shared_quota_decides_as_sequential_replay(self, monkeypatch, shards):
        entries = [(user, "Boost") for user in "abababaacbbcaacc"]

        def decide(grant_all):
            draws = _Draws()
            monkeypatch.setattr(os, "urandom", draws.urandom)
            controlplane = _controlplane(shards=shards, policy=QuotaPolicy(3, period=60.0))
            return grant_all(controlplane), controlplane

        batch, plane = decide(lambda cp: [r["ok"] for r in cp.acquire_batch(entries)])
        one_by_one, _ = decide(
            lambda cp: [_reply(lambda e=e: cp.acquire(*e))["ok"] for e in entries]
        )
        assert batch == one_by_one
        assert batch == [True] * 6 + [False, False, True, False, False, True, False, False, True, False]
        # The entries hop shards: more runs than shards they land on, so
        # the order is the dispatcher's to keep, not a shard's.
        draws = _Draws()
        owners = [plane.shard_of(int.from_bytes(draws._one()[:8], "big")) for _ in entries]
        runs = 1 + sum(a != b for a, b in zip(owners, owners[1:]))
        assert shards == 1 or 1 < len(set(owners)) < runs


class TestReplication:
    def test_eager_revocation_broadcast_within_bound(self):
        clock = ManualClock()
        with _controlplane(
            shards=2, clock=clock, staleness_bound=1.0
        ) as controlplane:
            replica = controlplane.register_replica(VerifierReplica("mb0"))
            descriptor = controlplane.acquire("alice", "Boost")
            controlplane.sync_replicas()
            mirrored = replica.store.get(descriptor.cookie_id)
            assert mirrored is not None and not mirrored.revoked
            # Eager broadcast: revoke pushes to the replica immediately.
            assert controlplane.revoke(descriptor.cookie_id)
            assert replica.store.get(descriptor.cookie_id).revoked
            assert (
                controlplane.max_broadcast_lag()
                <= controlplane.staleness_bound
            )

    def test_lazy_broadcast_measures_real_lag(self):
        clock = ManualClock()
        with _controlplane(
            shards=1,
            clock=clock,
            staleness_bound=1.0,
            eager_broadcast=False,
        ) as controlplane:
            replica = controlplane.register_replica(VerifierReplica("mb0"))
            descriptor = controlplane.acquire("alice", "Boost")
            controlplane.sync_replicas()
            assert controlplane.revoke(descriptor.cookie_id)
            assert not replica.store.get(descriptor.cookie_id).revoked
            clock.advance(0.4)  # one anti-entropy period later
            controlplane.sync_replicas()
            assert replica.store.get(descriptor.cookie_id).revoked
            lag = controlplane.max_broadcast_lag()
            # 0.4s of real staleness, reported as its histogram bucket.
            assert 0.4 <= lag <= controlplane.staleness_bound

    def test_partition_recovery_by_snapshot_then_replay(self):
        clock = ManualClock()
        with _controlplane(shards=2, clock=clock) as controlplane:
            replica = controlplane.register_replica(VerifierReplica("mb0"))
            kept = controlplane.acquire("alice", "Boost")
            controlplane.sync_replicas()

            replica.partition()
            revoked = controlplane.acquire("carol", "Boost")
            controlplane.revoke(revoked.cookie_id)
            # Compaction drops the window the replica still needed.
            controlplane.compact_logs(aggressive=True)
            clock.advance(0.2)
            replica.heal()
            controlplane.sync_replicas()

            assert controlplane.stats.snapshot_catchups >= 1
            assert replica.snapshots_installed >= 1
            assert replica.store.get(kept.cookie_id) is not None
            assert replica.store.get(revoked.cookie_id).revoked
            assert (
                controlplane.max_broadcast_lag()
                <= controlplane.staleness_bound
            )

    def test_compaction_default_horizon_is_slowest_replica(self):
        with _controlplane(shards=1) as controlplane:
            fresh = controlplane.register_replica(VerifierReplica("fresh"))
            for i in range(8):
                controlplane.acquire(f"user{i}", "Boost")
            controlplane.sync_replicas()
            laggard = VerifierReplica("laggard")
            laggard.partition()
            controlplane.register_replica(laggard)
            # Laggard is at offset 0: nothing may be dropped.
            assert controlplane.compact_logs() == 0
            laggard.heal()
            controlplane.sync_replicas()
            assert controlplane.compact_logs() == 8
            assert fresh.applied_offset(0) == 8


class TestDescriptorsStayObjects:
    """§14.2: inside the plane a descriptor travels as an object; every
    holder — shard store, log, each replica, the caller — has a shell of
    its own (its ``revoked`` flag) around the one immutable block."""

    @staticmethod
    def _wire(controlplane, shard=0):
        """What ``deltas_since`` / ``snapshot`` would put on the socket."""
        return json.dumps(
            [
                controlplane.handle_request(
                    {"op": "deltas_since", "shard": shard, "offset": 0}
                ),
                controlplane.handle_request({"op": "snapshot", "shard": shard}),
            ],
            sort_keys=True,
        )

    @pytest.mark.contract
    def test_nothing_handed_out_aliases_store_or_log(self):
        with _controlplane(shards=1) as controlplane:
            a = controlplane.register_replica(VerifierReplica("a"))
            b = controlplane.register_replica(VerifierReplica("b"))
            acquired = controlplane.acquire("alice", "Boost")
            renewed = controlplane.renew("alice", acquired.cookie_id)
            batch = controlplane.acquire_batch([("bob", "Boost")])
            controlplane.sync_replicas()
            before = self._wire(controlplane)
            records = {
                r.cookie_id: r for r in controlplane._shards[0].log.since(0)
            }

            # One block per grant, whoever holds the descriptor ...
            for handed_out in (acquired, renewed):
                block = handed_out.attributes
                holders = (
                    handed_out,
                    controlplane.lookup(handed_out.cookie_id),
                    records[handed_out.cookie_id].payload,
                    a.store.get(handed_out.cookie_id),
                    b.store.get(handed_out.cookie_id),
                )
                assert len({id(holder) for holder in holders}) == len(holders)
                assert all(holder.attributes is block for holder in holders)
                # ... and nobody can write to it.
                with pytest.raises(AttributeError):
                    block.expires_at = 0.0
                with pytest.raises(TypeError):
                    block.extra["tampered"] = True
                # The flag is each holder's own: flip the hand-out's,
                # then replica a's — that replica's business alone.
                handed_out.revoke()
                assert [h.revoked for h in holders] == [True] + [False] * 4
                assert a.store.revoke(handed_out.cookie_id)
                assert [h.revoked for h in holders] == [True, False, False, True, False]
            batch[0]["descriptor"]["revoked"] = True
            batch[0]["descriptor"]["attributes"]["extra"]["tampered"] = True
            batched_id = int(batch[0]["descriptor"]["cookie_id"])

            # The hand-outs' and replica a's flags reached nobody else.
            assert self._wire(controlplane) == before
            for cookie_id in (acquired.cookie_id, renewed.cookie_id, batched_id):
                for get in (controlplane.lookup, b.store.get):
                    held = get(cookie_id)
                    assert not held.revoked
                    assert held.attributes.extra == {}
            # The store's flag is the one that travels the log: to the
            # replicas, never back into the record of what was issued.
            assert controlplane.revoke(batched_id)
            assert b.store.get(batched_id).revoked
            assert not records[batched_id].payload.revoked
            # A late replica replays the log and sees what was issued.
            late = controlplane.register_replica(VerifierReplica("late"))
            assert [d.cookie_id for d in late.store if d.revoked] == [batched_id]
            assert len(late.store) == 3

    def test_repeat_revocation_is_idempotent_and_grows_nothing(self):
        with _controlplane(shards=1) as controlplane:
            replica = controlplane.register_replica(VerifierReplica("mb0"))
            cookie_id = controlplane.acquire("alice", "Boost").cookie_id
            assert controlplane.revoke(cookie_id)
            assert controlplane.revoke(cookie_id)
            assert controlplane.revoke_batch([cookie_id, cookie_id]) == [True, True]
            again = controlplane.handle_request(
                {"op": "revoke", "cookie_id": cookie_id}
            )
            assert again == {"ok": True, "error": None}
            unknown = controlplane.handle_request(
                {"op": "revoke", "cookie_id": cookie_id ^ 1}
            )
            assert not unknown["ok"] and unknown["error"] == "unknown id"

            assert controlplane.stats.revoked == 1
            stats = controlplane.shard_stats()[0]
            assert stats["revoked"] == 1
            assert stats["log_len"] == 2  # the add and ONE revoke
            assert replica.records_applied == 2
            assert replica.revocation_lag_samples == 1
            assert replica.stats()["max_revocation_lag"] == (
                replica.max_revocation_lag()
            )
            described = controlplane.describe()
            assert described["pending_revocations"] == 0
            assert controlplane._lag_histogram.snapshot().count == 1
            assert replica.store.get(cookie_id).revoked

    def test_replica_keeps_the_worst_revocation_lag_not_every_sample(self):
        clock = ManualClock()
        with _controlplane(
            shards=1, clock=clock, eager_broadcast=False
        ) as controlplane:
            replica = controlplane.register_replica(VerifierReplica("mb0"))
            ids = [
                controlplane.acquire(f"user{i}", "Boost").cookie_id
                for i in range(3)
            ]
            for cookie_id, wait in zip(ids, (0.25, 0.75, 0.5)):
                controlplane.revoke(cookie_id)
                clock.advance(wait)
                controlplane.sync_replicas()
            assert replica.revocation_lag_samples == 3
            assert replica.max_revocation_lag() == pytest.approx(0.75)

    @settings(max_examples=50, deadline=None)
    @given(cookie_id=st.integers(0, 2**64 - 1))
    def test_shard_of_is_the_rendezvous_hash_at_any_shard_count(self, cookie_id):
        for shards in (1, 4):
            controlplane = ShardedControlPlane(shards=shards)
            assert controlplane.shard_of(cookie_id) == rendezvous_shard(
                cookie_id, shards
            )


class TestLoadShedding:
    def test_pending_cap_sheds_with_structured_error(self):
        with _controlplane(shards=1, max_pending=2) as controlplane:
            assert controlplane.admit() is None
            assert controlplane.admit() is None
            shed = controlplane.admit()
            assert shed is not None and shed["shed"]
            assert "pending" in shed["error"]
            assert controlplane.stats.shed_pending == 1
            controlplane.release()
            assert controlplane.admit() is None

    def test_open_breaker_sheds(self):
        with _controlplane(shards=1) as controlplane:
            for _ in range(5):
                controlplane.breaker.record_failure()
            shed = controlplane.admit()
            assert shed is not None and shed["shed"]
            assert "circuit breaker" in shed["error"]
            assert controlplane.stats.shed_breaker == 1


class TestAsyncServer:
    def test_serves_and_sheds_over_tcp(self):
        async def scenario():
            controlplane = _controlplane(shards=2)
            tcp = AsyncControlPlaneServer(controlplane)
            host, port = await tcp.start()
            client = CookieClient(host, port)
            try:
                granted = await client.request(
                    {"op": "acquire", "user": "alice", "service": "Boost"}
                )
                for _ in range(5):
                    controlplane.breaker.record_failure()
                shed = await client.request(
                    {"op": "acquire", "user": "bob", "service": "Boost"}
                )
            finally:
                await client.close()
                await tcp.stop()
                controlplane.close()
            return granted, shed, controlplane.inflight

        granted, shed, inflight = asyncio.run(scenario())
        assert granted["ok"]
        assert shed["shed"] and not shed["ok"]
        assert inflight == 0  # every admit was released


class TestTelemetry:
    def test_collector_merges_into_registry(self):
        with _controlplane(shards=2) as controlplane:
            registry = MetricsRegistry()
            controlplane.register_telemetry(registry)
            controlplane.register_telemetry(registry)  # same object: once
            descriptor = controlplane.acquire("alice", "Boost")
            controlplane.register_replica(VerifierReplica("mb0"))
            controlplane.revoke(descriptor.cookie_id)
            controlplane.admit()
            controlplane.release()
            snapshot = registry.snapshot()
            assert snapshot.counters["cp.acquired"] == 1
            assert snapshot.counters["cp.revoked"] == 1
            assert snapshot.gauges["cp.shards"] == 2
            assert snapshot.gauges["cp.replicas"] == 1
            shard = controlplane.shard_of(descriptor.cookie_id)
            assert snapshot.gauges[f"cp.shard{shard}.log_len"] >= 2
            lag = snapshot.histograms["cp.broadcast_lag_s"]
            assert lag.count == 1
