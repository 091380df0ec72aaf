"""Property tests for the descriptor audit log (the public database).

The regulatory story (PROTOCOL.md §13) rests on three invariants:

- the log is append-only and preserves insertion order;
- the JSON-lines export round-trips losslessly;
- the public views (``regulator_report`` / ``to_json``) never leak a
  signing key, no matter what gets recorded.
"""

import json

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.audit import AuditEvent, AuditLog, AuditRecord

EVENTS = st.sampled_from(
    [
        AuditEvent.REQUESTED,
        AuditEvent.GRANTED,
        AuditEvent.DENIED,
        AuditEvent.REVOKED,
        AuditEvent.RENEWED,
        AuditEvent.DELEGATED,
    ]
)

NAMES = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N"), max_codepoint=0x2FF),
    min_size=1,
    max_size=12,
)

ENTRIES = st.tuples(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    EVENTS,
    NAMES,  # user
    NAMES,  # service
    st.one_of(st.none(), st.integers(min_value=0, max_value=2**64 - 1)),
)


def _fill(log: AuditLog, entries) -> None:
    for time, event, user, service, cookie_id in entries:
        log.record(time, event, user, service, cookie_id=cookie_id)


@given(st.lists(ENTRIES, max_size=40))
@settings(max_examples=60, deadline=None)
def test_append_only_preserves_insertion_order(entries):
    log = AuditLog()
    _fill(log, entries)
    assert len(log) == len(entries)
    observed = [(r.time, r.event, r.user, r.service, r.cookie_id) for r in log]
    assert observed == list(entries)


@given(st.lists(ENTRIES, max_size=40))
@settings(max_examples=60, deadline=None)
def test_jsonl_round_trip(entries):
    log = AuditLog()
    _fill(log, entries)
    lines = [json.dumps(r.to_json()) for r in log]
    assert len(lines) == len(entries)
    for line, record in zip(lines, log):
        data = json.loads(line)
        rebuilt = AuditRecord(
            time=data["time"],
            event=data["event"],
            user=data["user"],
            service=data["service"],
            cookie_id=data["cookie_id"],
            detail=data["detail"],
        )
        assert rebuilt == record


@given(st.lists(ENTRIES, max_size=40), st.binary(min_size=8, max_size=32))
@settings(max_examples=60, deadline=None)
def test_public_views_leak_no_signing_key(entries, key):
    """Even if a caller stuffs key material into the detail blob, neither
    public view may contain it — keys stay out-of-band by construction."""
    log = AuditLog()
    _fill(log, entries)
    log.record(0.0, AuditEvent.GRANTED, "alice", "boost", cookie_id=7, key=key.hex())
    report = json.dumps(log.regulator_report(), sort_keys=True)
    assert key.hex() not in report
    assert "key" not in json.loads(report)["services"]["boost"]
    # The report exposes only tallies + grantee names — spot-check shape.
    for entry in json.loads(report)["services"].values():
        assert set(entry) == {"granted", "denied", "revoked", "grantees"}


@given(st.lists(ENTRIES, max_size=60))
@settings(max_examples=60, deadline=None)
def test_regulator_report_tallies_match_queries(entries):
    log = AuditLog()
    _fill(log, entries)
    report = log.regulator_report()
    assert report["total_records"] == len(log)
    granted = sum(e["granted"] for e in report["services"].values())
    denied = sum(e["denied"] for e in report["services"].values())
    assert granted == len(log.grants())
    assert denied == len(log.by_event(AuditEvent.DENIED))
