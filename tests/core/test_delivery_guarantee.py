"""Network delivery guarantees, end to end (§4.3 / §4.5).

The full loop: a delivery-guaranteed descriptor, the switch attaching an
acknowledgment cookie on reverse traffic, and the client noticing whether
the ack arrived — warning the user when it did not.
"""

from repro.core import (
    CookieAttributes,
    CookieMatcher,
    CookieServer,
    DescriptorStore,
    ServiceOffering,
    UserAgent,
)
from repro.core.switch import CookieSwitch
from repro.netsim.appmsg import TLSClientHello
from repro.netsim.middlebox import Sink
from repro.netsim.packet import make_tcp_packet


def _env():
    clock = lambda: 0.0  # noqa: E731
    server = CookieServer(clock=clock)
    server.offer(
        ServiceOffering(
            name="guaranteed-boost",
            attribute_factory=lambda now: CookieAttributes(
                delivery_guarantee=True
            ),
        )
    )
    store = DescriptorStore()
    server.attach_enforcement_store(store)
    agent = UserAgent("alice", clock=clock, channel=server.handle_request)
    agent.acquire("guaranteed-boost")
    switch = CookieSwitch(CookieMatcher(store), clock=clock)
    sink = Sink()
    switch >> sink
    return agent, switch, sink


def _request(agent=None, sport=5000):
    packet = make_tcp_packet(
        "192.168.1.2", sport, "203.0.113.5", 443,
        content=TLSClientHello(sni="x.com"),
    )
    if agent is not None:
        agent.insert_cookie(packet, "guaranteed-boost")
    return packet


def _response(sport=5000):
    return make_tcp_packet(
        "203.0.113.5", 443, "192.168.1.2", sport,
        content=TLSClientHello(sni=""), payload_size=1000,
    )


class TestDeliveryGuaranteeLoop:
    def test_client_sees_ack_when_network_acted(self):
        agent, switch, _sink = _env()
        switch.push(_request(agent))
        response = _response()
        switch.push(response)  # switch attaches the ack cookie
        assert agent.check_delivery_ack(response, "guaranteed-boost")

    def test_client_warns_when_network_ignored_cookie(self):
        """If the path had no cookie-aware network (response untouched),
        the client detects the missing ack and alerts the user."""
        agent, _switch, _sink = _env()
        warnings = []
        agent.on_missing_ack = warnings.append
        bare_response = _response()
        assert not agent.check_delivery_ack(bare_response, "guaranteed-boost")
        assert warnings == ["guaranteed-boost"]

    def test_foreign_ack_not_accepted(self):
        """An ack from some other descriptor does not satisfy ours."""
        agent, _switch, _sink = _env()
        from repro.core import CookieDescriptor, CookieGenerator
        from repro.core.transport import default_registry

        stranger = CookieDescriptor.create()
        response = _response()
        default_registry().attach(
            response, CookieGenerator(stranger, clock=lambda: 0.0).generate()
        )
        assert not agent.check_delivery_ack(response, "guaranteed-boost")

    def test_unknown_service_returns_false(self):
        agent, _switch, _sink = _env()
        assert not agent.check_delivery_ack(_response(), "never-acquired")

    def test_ack_is_fresh_not_a_replay_of_ours(self):
        """The switch generates a NEW cookie for the ack — the uuid the
        client sent is not simply echoed."""
        agent, switch, _sink = _env()
        from repro.core.transport import default_registry

        request = _request(agent)
        [sent_cookie] = default_registry().extract(request)
        switch.push(request)
        response = _response()
        switch.push(response)
        [ack_cookie] = default_registry().extract(response)
        assert ack_cookie.uuid != sent_cookie.uuid
