"""Cookie server + user agent tests: acquisition, policy, renewal, audit."""

import pytest

from repro.core import (
    AcquisitionDenied,
    AuditEvent,
    AuthenticatedUsersPolicy,
    CookieAttributes,
    CookieMatcher,
    CookieServer,
    DescriptorStore,
    OpenAccessPolicy,
    ServiceOffering,
    UserAgent,
)
from repro.audit.log import NullAuditLog
from repro.netsim.appmsg import HTTPRequest
from repro.netsim.packet import make_tcp_packet


class Clock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return Clock()


@pytest.fixture
def server(clock):
    server = CookieServer(clock=clock)
    server.offer(
        ServiceOffering(name="Boost", description="fast lane", lifetime=3600.0)
    )
    return server


class TestOfferings:
    def test_list_services(self, server):
        services = server.list_services()
        assert services == [
            {"name": "Boost", "description": "fast lane", "lifetime": 3600.0}
        ]

    def test_offering_attribute_factory(self, clock):
        server = CookieServer(clock=clock)
        server.offer(
            ServiceOffering(
                name="custom",
                attribute_factory=lambda now: CookieAttributes(
                    shared=True, expires_at=now + 5.0
                ),
            )
        )
        clock.now = 100.0
        descriptor = server.acquire("alice", "custom")
        assert descriptor.attributes.shared
        assert descriptor.attributes.expires_at == 105.0


class TestAcquisition:
    def test_acquire_returns_descriptor(self, server):
        descriptor = server.acquire("alice", "Boost")
        assert descriptor.service_data == "Boost"
        assert descriptor.attributes.expires_at == 3600.0

    def test_unknown_service_denied(self, server):
        with pytest.raises(AcquisitionDenied):
            server.acquire("alice", "TimeMachine")

    def test_descriptor_mirrored_to_enforcement(self, server):
        store = DescriptorStore()
        server.attach_enforcement_store(store)
        descriptor = server.acquire("alice", "Boost")
        assert store.get(descriptor.cookie_id) is not None

    def test_policy_denial_audited(self, clock):
        server = CookieServer(
            clock=clock, policy=AuthenticatedUsersPolicy(accounts={"alice": "pw"})
        )
        server.offer(ServiceOffering(name="Boost"))
        with pytest.raises(AcquisitionDenied):
            server.acquire("mallory", "Boost", credentials={"secret": "nope"})
        assert len(server.audit_log.by_event(AuditEvent.DENIED)) == 1

    def test_grant_audited_with_cookie_id(self, server):
        descriptor = server.acquire("alice", "Boost")
        grants = server.audit_log.grants()
        assert grants[0].cookie_id == descriptor.cookie_id
        assert grants[0].user == "alice"

    def test_policy_cannot_write_into_absent_arguments(self, clock):
        seen = []

        class Scribbler(OpenAccessPolicy):
            def authorize(self, request):
                seen.append(request)
                if request.user == "mallory":
                    request.credentials["secret"] = "planted"

        server = CookieServer(clock=clock, policy=Scribbler())
        server.offer(ServiceOffering(name="Boost"))
        with pytest.raises(TypeError):
            server.acquire("mallory", "Boost")
        server.acquire("alice", "Boost", credentials={})
        assert len(seen[1].credentials) == len(seen[1].preferences) == 0
        reply = server.handle_request(
            {"op": "acquire", "user": "mallory", "service": "Boost"}
        )
        assert reply["error"].startswith("bad request")

    def test_callers_arguments_changed_after_the_grant_reach_no_policy(self, clock):
        granted = []

        class Recorder(OpenAccessPolicy):
            def on_granted(self, request):
                granted.append(request)

        server = CookieServer(clock=clock, policy=Recorder())
        server.offer(ServiceOffering(name="Boost"))
        credentials, preferences = {"secret": "pw"}, {"tier": "gold"}
        server.acquire("alice", "Boost", credentials, preferences)
        credentials["secret"] = "changed"
        preferences.clear()
        assert granted[0].credentials == {"secret": "pw"}
        assert granted[0].preferences == {"tier": "gold"}

    def test_a_log_that_keeps_nothing_is_never_called(self, clock):
        class Tripwire(NullAuditLog):
            def record(self, *args, **detail):
                raise AssertionError("an unaudited server wrote to its log")

        server = CookieServer(clock=clock, audit_log=Tripwire())
        server.offer(ServiceOffering(name="Boost"))
        descriptor = server.acquire("alice", "Boost")
        renewed = server.renew("alice", descriptor.cookie_id)
        assert server.revoke(renewed.cookie_id)
        with pytest.raises(AcquisitionDenied):
            server.acquire("alice", "Nope")
        assert (server.acquired, server.denied, server.revoked) == (2, 1, 1)


class TestRevocation:
    def test_revoke_propagates_to_stores(self, server):
        store = DescriptorStore()
        server.attach_enforcement_store(store)
        descriptor = server.acquire("alice", "Boost")
        assert server.revoke(descriptor.cookie_id)
        assert store.get(descriptor.cookie_id).revoked
        assert descriptor.revoked

    def test_revoke_unknown_returns_false(self, server):
        assert not server.revoke(424242)

    def test_revocation_audited(self, server):
        descriptor = server.acquire("alice", "Boost")
        server.revoke(descriptor.cookie_id, by="alice")
        revocations = server.audit_log.by_event(AuditEvent.REVOKED)
        assert revocations[0].user == "alice"


class TestRenewal:
    def test_renew_issues_fresh_descriptor(self, server, clock):
        old = server.acquire("alice", "Boost")
        clock.now = 3000.0
        new = server.renew("alice", old.cookie_id)
        assert new.cookie_id != old.cookie_id
        assert new.attributes.expires_at == 3000.0 + 3600.0

    def test_renew_unknown_denied(self, server):
        with pytest.raises(AcquisitionDenied):
            server.renew("alice", 999)


class TestJsonApi:
    def test_list_services_op(self, server):
        response = server.handle_request({"op": "list_services"})
        assert response["ok"] and response["services"][0]["name"] == "Boost"

    def test_acquire_op(self, server):
        response = server.handle_request(
            {"op": "acquire", "user": "alice", "service": "Boost"}
        )
        assert response["ok"]
        assert "key" in response["descriptor"]

    def test_acquire_denied_op(self, server):
        response = server.handle_request(
            {"op": "acquire", "user": "alice", "service": "Nope"}
        )
        assert not response["ok"] and "error" in response

    def test_revoke_op(self, server):
        descriptor = server.acquire("alice", "Boost")
        response = server.handle_request(
            {"op": "revoke", "cookie_id": descriptor.cookie_id}
        )
        assert response["ok"]

    def test_unknown_op(self, server):
        assert not server.handle_request({"op": "fly"})["ok"]

    def test_malformed_request(self, server):
        assert not server.handle_request({"op": "revoke"})["ok"]


class TestUserAgent:
    def test_discover_and_acquire(self, server, clock):
        agent = UserAgent("alice", clock=clock, channel=server.handle_request)
        services = agent.channel({"op": "list_services"})["services"]
        assert services[0]["name"] == "Boost"
        descriptor = agent.acquire("Boost")
        assert agent.generate_cookie("Boost").cookie_id == descriptor.cookie_id
        assert agent.stats.descriptors_acquired == 1

    def test_insert_cookie_verifies(self, server, clock):
        store = DescriptorStore()
        server.attach_enforcement_store(store)
        agent = UserAgent("alice", clock=clock, channel=server.handle_request)
        packet = make_tcp_packet(
            "10.0.0.1", 5000, "1.2.3.4", 80, content=HTTPRequest(host="x.com")
        )
        transport = agent.insert_cookie(packet, "Boost")
        assert transport == "http"
        matcher = CookieMatcher(store)
        [cookie] = agent.registry.extract(packet)
        assert matcher.match(cookie, now=clock()) is not None

    def test_lazy_acquisition_on_first_insert(self, server, clock):
        agent = UserAgent("alice", clock=clock, channel=server.handle_request)
        agent.generate_cookie("Boost")  # never explicitly acquired
        assert agent.stats.descriptors_acquired == 1

    def test_auto_renew_after_expiry(self, server, clock):
        agent = UserAgent("alice", clock=clock, channel=server.handle_request)
        agent.acquire("Boost")
        clock.now = 4000.0  # past the 1 h lifetime
        agent.generate_cookie("Boost")
        assert agent.stats.descriptors_renewed == 1
        assert agent.stats.descriptors_acquired == 2

    def test_insertion_failure_counted(self, server, clock):
        from repro.netsim.packet import Packet

        agent = UserAgent("alice", clock=clock, channel=server.handle_request)
        assert agent.insert_cookie(Packet(), "Boost") is None
        assert agent.stats.insertions_failed == 1

    def test_request_revocation(self, server, clock):
        store = DescriptorStore()
        server.attach_enforcement_store(store)
        agent = UserAgent("alice", clock=clock, channel=server.handle_request)
        descriptor = agent.acquire("Boost")
        assert agent.request_revocation("Boost")
        assert store.get(descriptor.cookie_id).revoked

    def test_revocation_without_descriptor(self, server, clock):
        agent = UserAgent("alice", clock=clock, channel=server.handle_request)
        assert not agent.request_revocation("Boost")

    def test_denied_acquisition_raises(self, clock):
        server = CookieServer(
            clock=clock, policy=AuthenticatedUsersPolicy(accounts={})
        )
        server.offer(ServiceOffering(name="Boost"))
        agent = UserAgent("mallory", clock=clock, channel=server.handle_request)
        with pytest.raises(AcquisitionDenied):
            agent.acquire("Boost")

    def test_transport_stats(self, server, clock):
        agent = UserAgent("alice", clock=clock, channel=server.handle_request)
        packet = make_tcp_packet(
            "10.0.0.1", 5000, "1.2.3.4", 80, content=HTTPRequest(host="x.com")
        )
        agent.insert_cookie(packet, "Boost")
        assert agent.stats.by_transport == {"http": 1}
