"""Audit log and delegation tests: the accountability half of the tussle."""

import json

import pytest

from repro.audit.log import AuditEvent, AuditLog
from repro.core.attributes import CookieAttributes
from repro.core.delegation import DelegatedParty, delegate_descriptor, make_ack_cookie
from repro.core.descriptor import CookieDescriptor
from repro.core.errors import DelegationError
from repro.core.generator import CookieGenerator
from repro.core.matcher import CookieMatcher
from repro.core.store import DescriptorStore
from repro.netsim.appmsg import HTTPRequest
from repro.netsim.packet import make_tcp_packet


class TestAuditLog:
    def test_records_appended(self):
        log = AuditLog()
        log.record(1.0, AuditEvent.GRANTED, "alice", "Boost", cookie_id=7)
        assert len(log) == 1

    def test_queries(self):
        log = AuditLog()
        log.record(0.0, AuditEvent.REQUESTED, "alice", "Boost")
        log.record(1.0, AuditEvent.GRANTED, "alice", "Boost", cookie_id=7)
        log.record(2.0, AuditEvent.DENIED, "bob", "Boost")
        log.record(3.0, AuditEvent.GRANTED, "bob", "zero-rate", cookie_id=8)
        assert [r.cookie_id for r in log.grants()] == [7, 8]
        assert [r.user for r in log.by_event(AuditEvent.DENIED)] == ["bob"]
        assert log.by_event(AuditEvent.REVOKED) == []

    def test_regulator_report(self):
        log = AuditLog()
        log.record(0.0, AuditEvent.GRANTED, "alice", "Boost", cookie_id=1)
        log.record(1.0, AuditEvent.GRANTED, "bob", "Boost", cookie_id=2)
        log.record(2.0, AuditEvent.DENIED, "eve", "Boost")
        log.record(3.0, AuditEvent.REVOKED, "network", "Boost", cookie_id=1)
        report = log.regulator_report()
        boost = report["services"]["Boost"]
        assert boost["granted"] == 2
        assert boost["denied"] == 1
        assert boost["revoked"] == 1
        assert boost["grantees"] == ["alice", "bob"]

    def test_jsonl_export_parses(self):
        log = AuditLog()
        log.record(0.0, AuditEvent.GRANTED, "alice", "Boost", cookie_id=1, note="x")
        (record,) = log
        assert json.loads(json.dumps(record.to_json()))["detail"]["note"] == "x"


class TestDelegation:
    def _shared_descriptor(self):
        return CookieDescriptor.create(
            service_data="Boost", attributes=CookieAttributes(shared=True)
        )

    def test_shared_descriptor_delegates(self):
        descriptor = self._shared_descriptor()
        log = AuditLog()
        result = delegate_descriptor(
            descriptor, "netflix", audit_log=log, now=5.0, by="alice"
        )
        assert result is descriptor
        delegations = log.by_event(AuditEvent.DELEGATED)
        assert delegations[0].detail["delegate"] == "netflix"

    def test_unshared_descriptor_refuses(self):
        descriptor = CookieDescriptor.create()
        with pytest.raises(DelegationError):
            delegate_descriptor(descriptor, "netflix")

    def test_revoked_descriptor_refuses(self):
        descriptor = self._shared_descriptor()
        descriptor.revoke()
        with pytest.raises(DelegationError):
            delegate_descriptor(descriptor, "netflix")

    def test_delegate_stamps_valid_downlink_cookies(self):
        store = DescriptorStore()
        descriptor = store.add(self._shared_descriptor())
        party = DelegatedParty("netflix", clock=lambda: 0.0)
        party.accept_delegation(delegate_descriptor(descriptor, "netflix"))
        packet = make_tcp_packet(
            "203.0.113.5", 443, "10.0.0.1", 5000, content=HTTPRequest(host="")
        )
        transport = party.stamp(packet, descriptor.cookie_id)
        assert transport is not None
        matcher = CookieMatcher(store)
        [cookie] = party.registry.extract(packet)
        assert matcher.match(cookie, now=0.0) is not None

    def test_revocation_cuts_off_delegates(self):
        """Delegation hands over signing, not new key material: revoking
        the descriptor kills the delegate's cookies too."""
        store = DescriptorStore()
        descriptor = store.add(self._shared_descriptor())
        party = DelegatedParty("netflix", clock=lambda: 0.0)
        party.accept_delegation(descriptor)
        store.revoke(descriptor.cookie_id)
        matcher = CookieMatcher(store)
        from repro.core.errors import CookieError

        with pytest.raises(CookieError):
            party_generator = party._generators[descriptor.cookie_id]
            cookie = party_generator.generate()
            assert matcher.match(cookie, now=0.0) is None

    def test_party_refuses_unshared(self):
        party = DelegatedParty("netflix", clock=lambda: 0.0)
        with pytest.raises(DelegationError):
            party.accept_delegation(CookieDescriptor.create())

    def test_stamp_without_delegation_raises(self):
        party = DelegatedParty("netflix", clock=lambda: 0.0)
        packet = make_tcp_packet("1.1.1.1", 1, "2.2.2.2", 2)
        with pytest.raises(DelegationError):
            party.stamp(packet, 42)

    def test_holds(self):
        descriptor = self._shared_descriptor()
        party = DelegatedParty("netflix", clock=lambda: 0.0)
        packet = make_tcp_packet("203.0.113.5", 443, "192.168.1.2", 5000)
        with pytest.raises(DelegationError):
            party.stamp(packet, descriptor.cookie_id)
        party.accept_delegation(descriptor)
        assert party.stamp(packet, descriptor.cookie_id)


class TestAckCookies:
    def test_playback_without_descriptor(self):
        descriptor = CookieDescriptor.create()
        original = CookieGenerator(descriptor, clock=lambda: 0.0).generate()
        ack = make_ack_cookie(original, None, clock=lambda: 1.0)
        assert ack == original

    def test_fresh_ack_from_descriptor(self):
        store = DescriptorStore()
        descriptor = store.add(
            CookieDescriptor.create(attributes=CookieAttributes(shared=True))
        )
        original = CookieGenerator(descriptor, clock=lambda: 0.0).generate()
        ack = make_ack_cookie(original, descriptor, clock=lambda: 1.0)
        assert ack != original
        # A fresh ack passes verification even after the original was used.
        matcher = CookieMatcher(store)
        assert matcher.match(original, now=1.0) is not None
        assert matcher.match(ack, now=1.0) is not None
