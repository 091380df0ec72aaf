"""Composition and constraint tests: multiple cookies per packet, and
context-scoped descriptors (§4.3, §4.5)."""

import pytest

from repro.core import (
    CookieAttributes,
    CookieDescriptor,
    CookieGenerator,
    CookieMatcher,
    DescriptorStore,
)
from repro.core.switch import CookieSwitch
from repro.core.transport import default_registry
from repro.netsim.appmsg import HTTPRequest, TLSClientHello
from repro.netsim.middlebox import Sink
from repro.netsim.packet import make_tcp_packet
from repro.services.billing import BillingAccountant, BillingJournal
from repro.services.zerorate import (
    AppCoverage,
    CatalogSet,
    OperatorCatalog,
    ZeroRatingMiddlebox,
)


def _network(service_data, attributes=None, context=None):
    """One access network: its own store, matcher, and switch."""
    store = DescriptorStore()
    descriptor = store.add(
        CookieDescriptor.create(
            service_data=service_data,
            attributes=attributes or CookieAttributes(),
        )
    )
    switch = CookieSwitch(
        CookieMatcher(store), clock=lambda: 0.0, context=context
    )
    sink = Sink()
    switch >> sink
    return descriptor, switch, sink


class TestCompositionCarriers:
    def _two_cookies(self):
        a = CookieGenerator(CookieDescriptor.create(), clock=lambda: 0.0).generate()
        b = CookieGenerator(CookieDescriptor.create(), clock=lambda: 0.0).generate()
        return a, b

    def test_http_carries_multiple(self):
        registry = default_registry()
        a, b = self._two_cookies()
        packet = make_tcp_packet(
            "10.0.0.1", 1, "2.2.2.2", 80, content=HTTPRequest(host="x.com")
        )
        registry.attach(packet, a)
        registry.attach(packet, b)
        assert registry.extract_all(packet) == [a, b]

    def test_tls_carries_multiple(self):
        registry = default_registry()
        a, b = self._two_cookies()
        packet = make_tcp_packet(
            "10.0.0.1", 1, "2.2.2.2", 443, content=TLSClientHello(sni="x.com")
        )
        registry.attach(packet, a)
        registry.attach(packet, b)
        assert registry.extract_all(packet) == [a, b]

    def test_tcp_options_carry_multiple(self):
        registry = default_registry()
        a, b = self._two_cookies()
        packet = make_tcp_packet("10.0.0.1", 1, "2.2.2.2", 443, encrypted=True)
        registry.attach(packet, a)
        registry.attach(packet, b)
        assert registry.extract_all(packet) == [a, b]

    def test_extract_all_empty(self):
        registry = default_registry()
        packet = make_tcp_packet("10.0.0.1", 1, "2.2.2.2", 443)
        assert registry.extract_all(packet) == []

    def test_garbled_entry_skipped_others_survive(self):
        registry = default_registry()
        a, _b = self._two_cookies()
        packet = make_tcp_packet(
            "10.0.0.1", 1, "2.2.2.2", 80, content=HTTPRequest(host="x.com")
        )
        registry.attach(packet, a)
        header = packet.payload.content.header("X-Network-Cookie")
        packet.payload.content.set_header(
            "X-Network-Cookie", header + ",garbage!!"
        )
        assert registry.extract_all(packet) == [a]


class TestCrossNetworkComposition:
    def test_videocall_through_two_access_networks(self):
        """The paper's videocall: one cookie per access network, no
        coordination between operators — each switch serves on the cookie
        its own store knows and ignores the other."""
        desc_a, switch_a, sink_a = _network("fastlane-ispA")
        desc_b, switch_b, sink_b = _network("fastlane-ispB")
        registry = default_registry()

        packet = make_tcp_packet(
            "192.168.1.5", 5000, "198.51.100.77", 443,
            content=TLSClientHello(sni="call.example"),
        )
        registry.attach(packet, CookieGenerator(desc_a, clock=lambda: 0.0).generate())
        registry.attach(packet, CookieGenerator(desc_b, clock=lambda: 0.0).generate())

        switch_a.push(packet)
        assert sink_a.packets[0].meta["service"] == "fastlane-ispA"
        # Network B sees the same packet later in the path.
        packet.meta.pop("service")
        switch_b.push(packet)
        assert sink_b.packets[0].meta["service"] == "fastlane-ispB"

    def test_foreign_cookie_alone_gets_best_effort(self):
        _desc_a, switch_a, sink_a = _network("fastlane-ispA")
        foreign = CookieGenerator(
            CookieDescriptor.create(), clock=lambda: 0.0
        ).generate()
        registry = default_registry()
        packet = make_tcp_packet(
            "192.168.1.5", 5001, "198.51.100.77", 443,
            content=TLSClientHello(sni="call.example"),
        )
        registry.attach(packet, foreign)
        switch_a.push(packet)
        assert "service" not in sink_a.packets[0].meta
        assert switch_a.stats.cookies_rejected == 1


class _Spy:
    """A verifier that logs the cookies it is asked about and raises on
    the ones whose bytes are in ``raise_on``."""

    def __init__(self, inner, raise_on=()):
        self.inner, self.raise_on, self.asked = inner, set(raise_on), []

    def match(self, cookie, now):
        self.asked.append(cookie.to_bytes())
        if cookie.to_bytes() in self.raise_on:
            raise RuntimeError("verifier down")
        return self.inner.match(cookie, now)


SUBSCRIBER, ORIGIN = "192.168.1.5", "198.51.100.77"


@pytest.mark.contract
@pytest.mark.parametrize("billed", [False, True], ids=["unbilled", "billed"])
class TestZeroRatingBoxesCompose:
    """A packet may carry one cookie per network (§4.5).  The
    zero-rating middlebox, billed or not, tries its cookies in order and
    acts on the first its verifier accepts, as the switch does; a
    verifier that raises on one cookie is no verdict, and the box tries
    the next."""

    @pytest.fixture
    def send(self, billed, tmp_path):
        journals = []

        def send(ours_first=False, raise_on_first=False):
            store = DescriptorStore()
            ours = CookieGenerator(
                store.add(CookieDescriptor.create(service_data="video")),
                clock=lambda: 0.0,
            ).generate()
            foreign = CookieGenerator(
                CookieDescriptor.create(service_data="video"), clock=lambda: 0.0
            ).generate()
            cookies = [ours, foreign] if ours_first else [foreign, ours]
            packet = make_tcp_packet(
                SUBSCRIBER, 5004, ORIGIN, 443,
                content=TLSClientHello(sni="call.example"),
            )
            registry = default_registry()
            for cookie in cookies:
                registry.attach(packet, cookie)
            matcher = CookieMatcher(store)
            spy = _Spy(matcher, [cookies[0].to_bytes()] if raise_on_first else ())
            billing = None
            if billed:
                catalogs = CatalogSet([OperatorCatalog("op", apps=(
                    AppCoverage(app="video", origin_ips=frozenset({ORIGIN})),
                ))])
                catalogs.assign(SUBSCRIBER, "op")
                journals.append(BillingJournal(str(tmp_path), fsync="never"))
                billing = BillingAccountant(catalogs, journals[-1])
            box = ZeroRatingMiddlebox(spy, clock=lambda: 0.0, billing=billing)
            box >> Sink()
            box.push(packet)
            return packet, box, matcher, spy, [c.to_bytes() for c in cookies]

        yield send
        for journal in journals:
            journal.close()

    def test_a_foreign_cookie_ahead_of_ours_is_rejected_and_ours_serves(self, send):
        packet, box, matcher, spy, cookies = send()
        assert packet.meta["zero_rated"] and packet.meta["cookie_checked"]
        assert spy.asked == cookies
        assert (matcher.stats.unknown_id, matcher.stats.accepted) == (1, 1)
        assert (box.cookie_hits, box.cookie_misses) == (1, 0)
        counters = box.counters_for(SUBSCRIBER)
        assert (counters.free_bytes, counters.charged_bytes) == (packet.wire_length, 0)

    def test_our_cookie_first_leaves_the_second_unverified(self, send):
        packet, box, matcher, spy, cookies = send(ours_first=True)
        assert packet.meta["zero_rated"]
        assert spy.asked == cookies[:1]
        assert matcher.stats.total == matcher.stats.accepted == 1
        assert (box.cookie_hits, box.cookie_misses) == (1, 0)

    def test_a_verifier_that_raises_on_the_first_cookie_moves_on(self, send):
        packet, box, matcher, spy, cookies = send(raise_on_first=True)
        assert packet.meta["zero_rated"]
        assert spy.asked == cookies
        assert box.verifier_failures == 1
        assert matcher.stats.total == matcher.stats.accepted == 1
        assert (box.cookie_hits, box.cookie_misses) == (1, 0)

    def test_a_raise_on_our_cookie_leaves_the_packet_charged(self, send):
        packet, box, matcher, spy, cookies = send(ours_first=True, raise_on_first=True)
        assert not packet.meta.get("zero_rated") and packet.meta["cookie_checked"]
        assert spy.asked == cookies
        assert box.verifier_failures == 1
        assert (matcher.stats.unknown_id, matcher.stats.accepted) == (1, 0)
        assert (box.cookie_hits, box.cookie_misses) == (0, 1)
        counters = box.counters_for(SUBSCRIBER)
        assert (counters.free_bytes, counters.charged_bytes) == (0, packet.wire_length)


class TestConstraints:
    def _constrained(self, constraints):
        return CookieAttributes(extra={"constraints": constraints})

    def test_matching_context_serves(self):
        descriptor, switch, sink = _network(
            "Boost",
            attributes=self._constrained({"network": "home-wifi"}),
            context={"network": "home-wifi"},
        )
        registry = default_registry()
        packet = make_tcp_packet(
            "192.168.1.5", 5000, "1.2.3.4", 443,
            content=TLSClientHello(sni="x.com"),
        )
        registry.attach(packet, CookieGenerator(descriptor, clock=lambda: 0.0).generate())
        switch.push(packet)
        assert sink.packets[0].meta.get("service") == "Boost"

    def test_wrong_network_refused(self):
        descriptor, switch, sink = _network(
            "Boost",
            attributes=self._constrained({"network": "home-wifi"}),
            context={"network": "coffee-shop"},
        )
        registry = default_registry()
        packet = make_tcp_packet(
            "192.168.1.5", 5000, "1.2.3.4", 443,
            content=TLSClientHello(sni="x.com"),
        )
        registry.attach(packet, CookieGenerator(descriptor, clock=lambda: 0.0).generate())
        switch.push(packet)
        assert "service" not in sink.packets[0].meta

    @pytest.mark.parametrize(
        "extra, zero_rated",
        [({"constraints": {"network": "home-wifi"}}, False), ({"note": 1}, True), (None, True)],
        ids=["fenced", "unfenced-extra", "default"],
    )
    def test_the_middlebox_attests_no_context(self, extra, zero_rated):
        """The middlebox has no context: a descriptor fenced to one
        network is charged there, where a switch on that network serves
        it; a block whose extras hold no constraints zero-rates."""
        store = DescriptorStore()
        descriptor = store.add(
            CookieDescriptor.create("zero-rate", CookieAttributes(extra=extra))
        )
        box = ZeroRatingMiddlebox(CookieMatcher(store), clock=lambda: 0.0)
        box >> Sink()
        packet = make_tcp_packet(
            "192.168.1.5", 5000, "1.2.3.4", 443,
            content=TLSClientHello(sni="x.com"),
        )
        default_registry().attach(
            packet, CookieGenerator(descriptor, clock=lambda: 0.0).generate()
        )
        box.push(packet)
        counters = box.counters_for("192.168.1.5")
        assert bool(packet.meta.get("zero_rated")) is zero_rated
        assert (box.cookie_hits, box.cookie_misses) == (int(zero_rated), int(not zero_rated))
        charged = 0 if zero_rated else packet.wire_length
        assert (counters.free_bytes, counters.charged_bytes) == (
            packet.wire_length - charged, charged
        )

    def test_unattested_context_fails_closed(self):
        """A geo-fenced cookie must not work on a switch that cannot
        attest its region."""
        attrs = self._constrained({"region": "us-west"})
        assert not attrs.matches_context({})
        assert not attrs.matches_context({"network": "home"})
        assert attrs.matches_context({"region": "us-west", "extra": 1})

    def test_unconstrained_matches_anywhere(self):
        assert CookieAttributes().matches_context({})
        assert CookieAttributes().matches_context({"anything": "goes"})

    def test_constraints_roundtrip_json(self):
        attrs = self._constrained({"network": "home-wifi"})
        recovered = CookieAttributes.from_json(attrs.to_json())
        assert recovered.constraints == {"network": "home-wifi"}
