"""Integration tests: full workflows across the whole stack."""

import pytest

from repro.core import (
    AuthenticatedUsersPolicy,
    CookieMatcher,
    CookieServer,
    DescriptorStore,
    ServiceOffering,
    UserAgent,
    delegate_descriptor,
    DelegatedParty,
)
from repro.core.switch import CookieSwitch
from repro.netsim.events import EventLoop
from repro.netsim.middlebox import Sink
from repro.netsim.packet import make_tcp_packet
from repro.netsim.topology import HomeNetwork, HomeNetworkConfig
from repro.netsim.tcpmodel import TcpTransfer
from repro.services.boost import BOOST_SERVICE, BoostAgent, BoostDaemon, make_boost_server
from repro.services.zerorate import ZeroRatingMiddlebox
from repro.web.browser import Browser
from repro.web.sites import build_cnn


class TestBoostEndToEnd:
    """The complete Boost story: preference -> cookie -> daemon -> fast lane."""

    def test_boosted_download_beats_throttled_household(self):
        loop = EventLoop()
        server, _db = make_boost_server(clock=lambda: loop.now)
        store = DescriptorStore()
        server.attach_enforcement_store(store)
        daemon = BoostDaemon(loop, store)
        home = HomeNetwork(
            loop, config=HomeNetworkConfig(), middleboxes=[daemon.switch]
        )
        daemon.attach(home)

        # The resident boosts a site via the browser agent; the agent's
        # cookie flows through the daemon, which binds and throttles.
        agent = BoostAgent("resident", clock=lambda: loop.now,
                           channel=server.handle_request)
        agent.always_boost("example.com")
        browser = Browser(clock=lambda: loop.now)
        agent.attach(browser)
        from repro.web.page import PageModel, ResourceFlow, ServerInfo

        page = PageModel(domain="example.com")
        page.add(ResourceFlow(
            server=ServerInfo("www.example.com", "93.184.216.34", "example"),
            response_packets=4,
        ))
        packets = browser.load_page(browser.open_tab("example.com"), page)
        for packet in packets:
            home.wan_ingress.push(packet)
        # Bounded horizon: running to idle would also fire the one-hour
        # boost-expiry timer and deactivate the throttle again.
        loop.run(until=5.0)
        assert daemon.boost_active
        assert home.throttle_active
        # A competing (unboosted) transfer is now throttled to ~1 Mb/s.
        competing = TcpTransfer(loop, home.wan_ingress, size_bytes=100_000,
                                dst_ip="192.168.1.200")
        competing.start()
        loop.run(until=loop.now + 30.0)
        assert competing.completed
        assert competing.completion_time > 100_000 * 8 / 6e6 * 2


class TestZeroRatingEndToEnd:
    """Carrier zero-rating: acquire -> tag -> count free -> invoice."""

    def test_invoice_reflects_zero_rated_traffic(self):
        clock_value = [0.0]
        clock = lambda: clock_value[0]  # noqa: E731
        server = CookieServer(
            clock=clock,
            policy=AuthenticatedUsersPolicy(accounts={"sub-1": "pin"}),
        )
        server.offer(ServiceOffering(name="zero-rate-music",
                                     service_data="zero-rate"))
        store = DescriptorStore()
        server.attach_enforcement_store(store)

        agent = UserAgent(
            "sub-1", clock=clock, channel=server.handle_request,
            credentials={"secret": "pin"},
        )
        middlebox = ZeroRatingMiddlebox(CookieMatcher(store), clock=clock)
        sink = Sink(keep=False)
        middlebox >> sink

        from repro.netsim.appmsg import TLSClientHello

        # A zero-rated flow and a regular one.
        free_first = make_tcp_packet(
            "10.0.0.5", 5000, "93.184.216.34", 443,
            content=TLSClientHello(sni="music.example.com"), payload_size=200,
        )
        agent.insert_cookie(free_first, "zero-rate-music")
        middlebox.handle(free_first)
        for _ in range(9):
            middlebox.handle(make_tcp_packet(
                "93.184.216.34", 443, "10.0.0.5", 5000, payload_size=1200,
            ))
        for _ in range(10):
            middlebox.handle(make_tcp_packet(
                "10.0.0.5", 5001, "198.51.100.9", 443, payload_size=1200,
            ))

        counters = middlebox.counters_for("10.0.0.5")
        assert counters.free_bytes > 0 and counters.charged_bytes > 0
        # Auditability: the regulator sees who got the descriptor.
        report = server.audit_log.regulator_report()
        assert "sub-1" in report["services"]["zero-rate-music"]["grantees"]


class TestDelegationEndToEnd:
    """User delegates to a content provider who stamps downlink cookies."""

    def test_provider_stamped_downlink_gets_service(self):
        clock = lambda: 0.0  # noqa: E731
        server = CookieServer(clock=clock)
        from repro.core import CookieAttributes

        server.offer(ServiceOffering(
            name=BOOST_SERVICE,
            attribute_factory=lambda now: CookieAttributes(shared=True),
        ))
        store = DescriptorStore()
        server.attach_enforcement_store(store)
        descriptor = server.acquire("alice", BOOST_SERVICE)

        provider = DelegatedParty("cdn", clock=clock)
        provider.accept_delegation(
            delegate_descriptor(descriptor, "cdn",
                                audit_log=server.audit_log, by="alice")
        )

        switch = CookieSwitch(CookieMatcher(store), clock=clock)
        sink = Sink()
        switch >> sink
        from repro.netsim.appmsg import HTTPRequest

        downlink = make_tcp_packet(
            "203.0.113.5", 443, "10.0.0.1", 5000,
            content=HTTPRequest(host=""), payload_size=1000,
        )
        provider.stamp(downlink, descriptor.cookie_id)
        switch.push(downlink)
        assert sink.packets[0].meta.get("qos_class") == 0

        # Revoking the original cuts the delegate off.
        server.revoke(descriptor.cookie_id, by="alice")
        second = make_tcp_packet(
            "203.0.113.5", 443, "10.0.0.1", 6000,
            content=HTTPRequest(host=""), payload_size=1000,
        )
        with pytest.raises(Exception):
            provider.stamp(second, descriptor.cookie_id)


class TestAccuracyIntegration:
    def test_full_cnn_load_through_switch_and_nat(self):
        """A real page load through agent + NAT + switch boosts >90 %."""
        from repro.experiments.fig6_accuracy import run_cookies

        result = run_cookies("cnn.com")
        assert result.matched_fraction > 0.9
        assert result.false_packets == 0
        page = build_cnn()
        assert result.target_packets == sum(f.total_packets for f in page.flows)
