"""Property tests for the delta log (PROTOCOL.md §14.2).

The control plane's replication story rests on two invariants, checked
here under arbitrary add/revoke/remove interleavings:

* **Equivalence** — snapshot at any cut point + replay of the suffix
  reproduces the directly-mutated store exactly.
* **Idempotence** — re-delivering an overlapping window from any stale
  offset changes nothing (an ``add`` record never resurrects state a
  later ``revoke``/``remove`` already changed).
"""

import json

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.core.attributes import CookieAttributes
from repro.core.cp.deltalog import (
    DeltaLog,
    DeltaRecord,
    LogTruncated,
    StoreSnapshot,
    replay,
)
from repro.core.cp.replica import VerifierReplica
from repro.core.cp.shard import ControlPlaneShard
from repro.core.descriptor import CookieDescriptor
from repro.core.server import ServiceOffering
from repro.core.store import DescriptorStore

SLOTS = 6

#: (op, slot): ``slot`` names a logical descriptor; revoke targets
#: whatever id that slot last minted (None → no-op, like the shard).
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["add", "revoke"]),
        st.integers(0, SLOTS - 1),
    ),
    max_size=40,
)


def _drive(ops):
    """Apply ``ops`` directly to a store while logging each successful
    mutation — exactly what :class:`ControlPlaneShard` does."""
    log = DeltaLog()
    direct = DescriptorStore()
    slot_ids: dict[int, int] = {}
    for step, (op, slot) in enumerate(ops):
        t = float(step)
        if op == "add":
            descriptor = CookieDescriptor.create(service_data=f"svc{slot}")
            direct.add(descriptor)
            log.append(
                "add", descriptor.cookie_id, t, descriptor.to_json()
            )
            slot_ids[slot] = descriptor.cookie_id
        else:  # revoke
            cookie_id = slot_ids.get(slot)
            if cookie_id is not None and direct.revoke(cookie_id):
                log.append("revoke", cookie_id, t)
    return log, direct


def _state(store) -> dict[int, dict]:
    return {d.cookie_id: d.to_json() for d in store}


@settings(max_examples=150, deadline=None)
@given(ops=ops_strategy)
def test_full_replay_equals_direct_state(ops):
    log, direct = _drive(ops)
    replica = DescriptorStore()
    applied = replay(replica, log.since(0))
    assert applied == log.next_offset
    assert _state(replica) == _state(direct)


@settings(max_examples=150, deadline=None)
@given(ops=ops_strategy, data=st.data())
def test_snapshot_plus_suffix_replay_equals_direct_state(ops, data):
    log, direct = _drive(ops)
    cut = data.draw(st.integers(0, log.next_offset), label="cut")

    # A replica that had applied exactly ``cut`` records…
    donor = DescriptorStore()
    replay(donor, log.since(0)[:cut])
    snapshot = StoreSnapshot.take(donor, cut)

    # …hands its snapshot to a cold store, which replays the suffix.
    cold = DescriptorStore()
    for descriptor in snapshot.materialize():
        cold.add(descriptor)
    applied = replay(cold, log.since(cut), applied_offset=cut)
    assert applied == log.next_offset
    assert _state(cold) == _state(direct)


@settings(max_examples=150, deadline=None)
@given(ops=ops_strategy, data=st.data())
def test_replay_idempotent_from_stale_offset(ops, data):
    """The reconnect case: a replica at offset ``k`` is re-served the
    window starting at ``j <= k``.  The overlap must be skipped."""
    log, direct = _drive(ops)
    k = data.draw(st.integers(0, log.next_offset), label="applied")
    j = data.draw(st.integers(0, k), label="window start")

    replica = DescriptorStore()
    replay(replica, log.since(0)[:k])
    before = _state(replica)

    applied = replay(replica, log.since(j), applied_offset=k)
    assert applied == log.next_offset
    # Everything below k was skipped; only the true suffix landed.
    suffix_only = DescriptorStore()
    replay(suffix_only, log.since(0))
    assert _state(replica) == _state(suffix_only) == _state(direct)

    # Degenerate overlap: redelivering with nothing new is a no-op.
    assert replay(replica, log.since(j), applied_offset=applied) == applied
    assert _state(replica) == _state(direct)
    del before


def test_replay_rejects_gaps():
    log, _direct = _drive([("add", 0), ("add", 1), ("add", 2)])
    records = log.since(0)
    replica = DescriptorStore()
    with pytest.raises(ValueError, match="delta gap"):
        replay(replica, [records[0], records[2]])


def test_stale_add_never_resurrects_revocation():
    """The invariant PROTOCOL.md §14.3 names: redelivered ``add`` must
    not overwrite a later ``revoke`` the replica already applied."""
    log, direct = _drive([("add", 0), ("revoke", 0)])
    replica = DescriptorStore()
    applied = replay(replica, log.since(0))
    assert next(iter(replica)).revoked
    # The server re-serves the whole window; the add is skipped.
    replay(replica, log.since(0), applied_offset=applied)
    assert next(iter(replica)).revoked
    assert _state(replica) == _state(direct)


def test_compaction_truncates_and_since_raises():
    log, _direct = _drive([("add", i % SLOTS) for i in range(10)])
    assert log.compact_to(4) == 4
    assert log.base_offset == 4
    assert len(log) == 6
    assert not log.covers(3)
    assert log.covers(4)
    with pytest.raises(LogTruncated):
        log.since(3)
    assert [r.offset for r in log.since(4)] == list(range(4, 10))
    # Compacting beyond the head clamps; numbering survives.
    assert log.compact_to(99) == 6
    assert log.next_offset == 10
    assert log.since(10) == []


def test_record_roundtrip_and_validation():
    log = DeltaLog()
    with pytest.raises(ValueError, match="unknown delta op"):
        log.append("frobnicate", 1, 0.0)
    with pytest.raises(ValueError, match="must carry the descriptor"):
        log.append("add", 1, 0.0)
    descriptor = CookieDescriptor.create(service_data="Boost")
    record = log.append("add", descriptor.cookie_id, 1.5, descriptor.to_json())
    assert DeltaRecord.from_json(record.to_json()) == record
    snapshot = StoreSnapshot(offset=1, descriptors=[descriptor.to_json()])
    assert StoreSnapshot.from_json(snapshot.to_json()) == snapshot


@pytest.mark.contract
def test_record_is_a_tuple_type_with_json_form_equality():
    descriptor = CookieDescriptor.create(service_data="Boost")
    as_object = DeltaRecord(0, "add", descriptor.cookie_id, 1.5, descriptor)
    as_json = DeltaRecord(0, "add", descriptor.cookie_id, 1.5, descriptor.to_json())
    assert isinstance(as_object, tuple) and as_object.offset == as_object[0] == 0
    assert as_object == as_json and not as_object != as_json
    bare = tuple(as_json)
    assert as_json != bare and bare != as_json and not as_json == bare
    assert as_json != as_json._replace(time=2.5)
    with pytest.raises(TypeError):
        hash(as_json)
    with pytest.raises(AttributeError):
        as_json.time = 2.5


# ----------------------------------------------------------------------
# Object form == JSON form (PROTOCOL.md §14.2): in-process, records hold
# the descriptor as issued; JSON is only its wire rendering.
# ----------------------------------------------------------------------

FIELDS = ("cookie_id", "key", "service_data", "attributes", "revoked")

#: ``sync`` drains the shard's log into both replicas; ``compact`` does
#: that and then drops the whole log (nobody needs the prefix any more).
shard_ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["add", "add", "revoke", "sync", "compact"]),
        st.integers(0, SLOTS - 1),
    ),
    max_size=40,
)


def _fields(store) -> dict[int, tuple]:
    return {
        d.cookie_id: tuple(getattr(d, name) for name in FIELDS) for d in store
    }


def _geofenced(now: float) -> CookieAttributes:
    return CookieAttributes(
        expires_at=now + 60.0, extra={"constraints": {"ssid": "home"}}
    )


class _Clock:
    now = 0.0

    def __call__(self) -> float:
        return self.now


def _shard() -> ControlPlaneShard:
    shard = ControlPlaneShard(0, _Clock())
    shard.offer(ServiceOffering(name="Boost", lifetime=3600.0))
    shard.offer(ServiceOffering(name="Fenced", attribute_factory=_geofenced))
    return shard


def _at(shard: ControlPlaneShard, now: float) -> ControlPlaneShard:
    """Set the shard's clock: ``_at(shard, t).acquire(...)`` happens at t."""
    shard.clock.now = now
    return shard


@pytest.mark.contract
@settings(max_examples=60, deadline=None)
@given(ops=shard_ops_strategy)
@example(
    ops=[
        ("add", 0), ("revoke", 0), ("revoke", 0), ("sync", 0), ("add", 1),
        ("revoke", 0), ("compact", 0), ("revoke", 1), ("add", 0),
    ]
)
def test_object_form_replication_equals_json_form(ops):
    """A replica fed the shard's own records, a replica fed their JSON
    round trip and the shard's store agree field for field, and the
    wire rendering of every record is what ``descriptor.to_json()`` at
    issue time would have logged."""
    shard = _shard()
    in_process = VerifierReplica("objects")
    off_the_wire = VerifierReplica("json")
    slot_ids: dict[int, int] = {}
    revoked: set[int] = set()
    expected_wire: list[str] = []
    seen_wire: list[str] = []

    def logged(op, cookie_id, t, descriptor=None):
        document = {
            "offset": len(expected_wire),
            "op": op,
            "cookie_id": cookie_id,
            "time": t,
        }
        if descriptor is not None:
            document["descriptor"] = descriptor.to_json()
        expected_wire.append(json.dumps(document, sort_keys=True))

    def sync():
        records = shard.log.since(in_process.applied_offset(0))
        seen_wire.extend(json.dumps(r.to_json(), sort_keys=True) for r in records)
        copies = [DeltaRecord.from_json(r.to_json()) for r in records]
        assert copies == records
        in_process.apply_deltas(0, records)
        off_the_wire.apply_deltas(0, copies)

    for step, (op, slot) in enumerate(ops):
        t = float(step)
        cookie_id = slot_ids.get(slot)
        if op == "add":
            service = "Fenced" if slot % 2 else "Boost"
            descriptor = _at(shard, t).acquire(f"user{slot}", service)
            slot_ids[slot] = descriptor.cookie_id
            logged("add", descriptor.cookie_id, t, descriptor)
        elif op == "revoke":
            # A repeat revoke answers True and logs nothing.
            if (
                cookie_id is not None
                and _at(shard, t).revoke(cookie_id)
                and cookie_id not in revoked
            ):
                revoked.add(cookie_id)
                logged("revoke", cookie_id, t)
        else:
            sync()
            if op == "compact":
                shard.log.compact_to(shard.log.next_offset)
    sync()

    assert seen_wire == expected_wire
    assert in_process.records_applied == off_the_wire.records_applied
    assert (
        _fields(in_process.store)
        == _fields(off_the_wire.store)
        == _fields(shard.store)
    )
    # Every store holds shells of its own; an in-process replica's point
    # at the shard's attribute blocks, a parsed one's at equal blocks.
    for descriptor in shard.store:
        objects = in_process.store.get(descriptor.cookie_id)
        parsed = off_the_wire.store.get(descriptor.cookie_id)
        assert len({id(descriptor), id(objects), id(parsed)}) == 3
        assert objects.attributes is descriptor.attributes
        assert parsed.attributes == descriptor.attributes
        assert parsed.attributes is not descriptor.attributes


def test_late_replica_short_of_the_revoke_holds_the_descriptor_as_issued():
    """The log's copy is the descriptor as issued, not a view of the
    live object the shard later revoked."""
    shard = _shard()
    descriptor = _at(shard, 1.0).acquire("alice", "Boost")
    assert _at(shard, 2.0).revoke(descriptor.cookie_id)
    assert shard.lookup(descriptor.cookie_id).revoked
    records = shard.log.since(0)
    assert [r.op for r in records] == ["add", "revoke"]
    assert records[0].descriptor["revoked"] is False

    late = VerifierReplica("late")
    late.apply_deltas(0, records[:-1])
    assert not late.store.get(descriptor.cookie_id).revoked
    late.apply_deltas(0, records)
    assert late.store.get(descriptor.cookie_id).revoked
    # Revoking on the replica did not reach back into the record either.
    assert not records[0].materialize().revoked


@pytest.mark.contract
def test_materialize_hands_out_a_fresh_object_each_time_for_both_origins():
    descriptor = _at(_shard(), 1.0).acquire("alice", "Fenced")
    log = DeltaLog()
    as_object = log.append("add", descriptor.cookie_id, 1.0, descriptor)
    as_json = log.append("add", descriptor.cookie_id, 1.0, descriptor.to_json())
    descriptor.revoke()  # after the append: the records are as issued
    with pytest.raises(TypeError):
        descriptor.attributes.extra["constraints"] = {}
    for record in (as_object, as_json):
        first, second = record.materialize(), record.materialize()
        assert first == second and first is not second
        assert not first.revoked
        assert first.attributes.extra == {"constraints": {"ssid": "home"}}
        first.revoke()
        with pytest.raises(TypeError):
            first.attributes.extra["tampered"] = True
        assert record.materialize() == second
        assert DeltaRecord.from_json(record.to_json()) == record
    # An object record's shells share the issuer's block; a JSON
    # record parses one per materialization.
    assert as_object.materialize().attributes is descriptor.attributes
    assert as_json.materialize().attributes is not descriptor.attributes
    assert as_object.descriptor == as_json.descriptor
    with pytest.raises(ValueError, match="carry no descriptor"):
        log.append("revoke", descriptor.cookie_id, 2.0).materialize()


def test_snapshot_installs_the_same_store_from_either_form():
    shard = _shard()
    ids = [_at(shard, float(i)).acquire(f"user{i}", "Fenced").cookie_id for i in range(6)]
    _at(shard, 7.0).revoke(ids[1])
    taken = shard.snapshot()
    parsed = StoreSnapshot.from_json(json.loads(json.dumps(taken.to_json())))

    from_objects, from_json = VerifierReplica("objects"), VerifierReplica("json")
    for replica, snapshot in ((from_objects, taken), (from_json, parsed)):
        assert replica.install_snapshot(0, snapshot) == 6
        assert replica.applied_offset(0) == shard.log.next_offset
    assert (
        _fields(from_objects.store) == _fields(from_json.store) == _fields(shard.store)
    )
    # The snapshot is a copy too: revoking after it was taken, or on one
    # replica, moves nothing else.
    _at(shard, 9.0).revoke(ids[0])
    from_objects.store.revoke(ids[3])
    cold = DescriptorStore()
    for descriptor in taken.materialize():
        cold.add(descriptor)
    assert not cold.get(ids[0]).revoked and not cold.get(ids[3]).revoked
    assert not from_json.store.get(ids[3]).revoked
