"""Boost service tests: agent preferences, daemon enforcement, QoS plans."""

import pytest

from repro.core import CookieMatcher, DescriptorStore
from repro.core.switch import CookieSwitch
from repro.netsim.events import EventLoop
from repro.netsim.middlebox import Sink
from repro.netsim.packet import make_tcp_packet
from repro.netsim.topology import HomeNetwork, HomeNetworkConfig
from repro.services.boost import (
    BOOST_SERVICE,
    BoostAgent,
    BoostDaemon,
    CapacityEstimator,
    ThrottlePlan,
    make_boost_server,
)
from repro.web.browser import Browser
from repro.web.page import PageModel, ResourceFlow, ServerInfo


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _page(domain="example.com", flows=2):
    page = PageModel(domain=domain)
    for i in range(flows):
        page.add(
            ResourceFlow(
                server=ServerInfo(
                    hostname=f"s{i}.{domain}", ip=f"9.9.9.{i + 1}", operator="ex"
                ),
                response_packets=3,
            )
        )
    return page


@pytest.fixture
def clock():
    return Clock()


@pytest.fixture
def boost_env(clock):
    server, _db = make_boost_server(clock=clock)
    store = DescriptorStore()
    server.attach_enforcement_store(store)
    agent = BoostAgent("resident", clock=clock, channel=server.handle_request)
    return server, store, agent


class TestAgentPreferences:
    def test_always_boost_inserts_cookies(self, boost_env, clock):
        _server, store, agent = boost_env
        agent.always_boost("example.com")
        browser = Browser(clock=clock)
        agent.attach(browser)
        browser.load_page(browser.open_tab("example.com"), _page())
        assert agent.cookies_inserted == 2  # one per flow

    def test_unboosted_site_untouched(self, boost_env, clock):
        _server, _store, agent = boost_env
        agent.always_boost("other.com")
        browser = Browser(clock=clock)
        agent.attach(browser)
        browser.load_page(browser.open_tab("example.com"), _page())
        assert agent.cookies_inserted == 0
        assert agent.requests_seen == 2

    def test_boost_tab(self, boost_env, clock):
        _server, _store, agent = boost_env
        browser = Browser(clock=clock)
        agent.attach(browser)
        tab = browser.open_tab("anything.com")
        agent.boost_tab(tab)
        browser.load_page(tab, _page(domain="whatever.net"))
        assert agent.cookies_inserted == 2

    def test_tab_boost_expires_after_an_hour(self, boost_env, clock):
        _server, _store, agent = boost_env
        browser = Browser(clock=clock)
        agent.attach(browser)
        tab = browser.open_tab("x.com")
        agent.boost_tab(tab)
        clock.now = 3700.0
        browser.load_page(tab, _page())
        assert agent.cookies_inserted == 0

    def test_tab_boost_ends_when_tab_closes(self, boost_env, clock):
        _server, _store, agent = boost_env
        browser = Browser(clock=clock)
        agent.attach(browser)
        tab = browser.open_tab("x.com")
        agent.boost_tab(tab)
        tab.closed = True
        browser.load_page(tab, _page())
        assert agent.cookies_inserted == 0

    def test_preference_case_insensitive(self, boost_env, clock):
        _server, _store, agent = boost_env
        agent.always_boost("Example.COM")
        browser = Browser(clock=clock)
        agent.attach(browser)
        browser.load_page(browser.open_tab("example.com"), _page())
        assert agent.cookies_inserted == 2

    def test_preferences_snapshot(self, boost_env):
        _server, _store, agent = boost_env
        agent.always_boost("a.com")
        snapshot = agent.preferences.snapshot()
        assert snapshot["always_boost"] == ["a.com"]


class TestAgentToSwitch:
    def test_inserted_cookies_verify_at_switch(self, boost_env, clock):
        _server, store, agent = boost_env
        agent.always_boost("example.com")
        browser = Browser(clock=clock)
        agent.attach(browser)
        packets = browser.load_page(browser.open_tab("example.com"), _page())
        switch = CookieSwitch(CookieMatcher(store), clock=clock)
        sink = Sink()
        switch >> sink
        for packet in packets:
            switch.push(packet)
        boosted = [p for p in sink.packets if p.meta.get("qos_class") == 0]
        assert len(boosted) == len(packets)  # reverse flows covered too


class TestDaemon:
    def _env(self, clock):
        loop = EventLoop()
        server, _db = make_boost_server(clock=lambda: loop.now)
        store = DescriptorStore()
        server.attach_enforcement_store(store)
        daemon = BoostDaemon(loop, store)
        home = HomeNetwork(
            loop,
            config=HomeNetworkConfig(),
            middleboxes=[daemon.switch],
        )
        daemon.attach(home)
        return loop, server, store, daemon, home

    def _cookied_packet(self, server, loop, sport=5000):
        from repro.core.generator import CookieGenerator
        from repro.core.transport import default_registry

        descriptor = server.acquire("resident", BOOST_SERVICE)
        packet = make_tcp_packet(
            "203.0.113.5", 443, "192.168.1.50", sport, payload_size=100
        )
        cookie = CookieGenerator(descriptor, clock=lambda: loop.now).generate()
        default_registry().attach(packet, cookie)
        return packet, descriptor

    def test_boost_activates_throttle(self, clock):
        loop, server, _store, daemon, home = self._env(clock)
        packet, _descriptor = self._cookied_packet(server, loop)
        home.wan_ingress.push(packet)
        assert daemon.boost_active
        assert home.throttle_active

    def test_boost_expires(self, clock):
        loop, server, _store, daemon, home = self._env(clock)
        packet, _descriptor = self._cookied_packet(server, loop)
        home.wan_ingress.push(packet)
        loop.run(until=daemon.boost_lifetime + 1.0)
        assert not daemon.boost_active
        assert not home.throttle_active

    def test_last_one_wins(self, clock):
        loop, server, _store, daemon, home = self._env(clock)
        first, first_descriptor = self._cookied_packet(server, loop, sport=5000)
        second, second_descriptor = self._cookied_packet(server, loop, sport=6000)
        home.wan_ingress.push(first)
        home.wan_ingress.push(second)
        assert daemon.active_descriptor_id == second_descriptor.cookie_id
        assert daemon.superseded_events == 1

    def test_cancel_boost(self, clock):
        loop, server, _store, daemon, home = self._env(clock)
        packet, _descriptor = self._cookied_packet(server, loop)
        home.wan_ingress.push(packet)
        daemon.cancel_boost()
        assert not daemon.boost_active
        assert not home.throttle_active
        daemon.cancel_boost()  # idempotent

    def test_boosted_packets_stamped_fast_lane(self, clock):
        loop, server, _store, daemon, home = self._env(clock)
        packet, _descriptor = self._cookied_packet(server, loop)
        home.wan_ingress.push(packet)
        loop.run_until_idle()
        assert packet.meta.get("qos_class") == 0
        assert packet.meta.get("qos_class_name") == "video"


class TestQosPlans:
    def test_throttle_plan_matches_paper_scenario(self):
        """6 Mb/s line with the default plan yields the 1 Mb/s throttle."""
        plan = ThrottlePlan()
        assert plan.throttle_rate(6_000_000) == pytest.approx(1_000_000)

    def test_floor_respected(self):
        plan = ThrottlePlan(floor_bps=500_000)
        assert plan.throttle_rate(1_000_000) == 500_000

    def test_validation(self):
        with pytest.raises(ValueError):
            ThrottlePlan(reserve_fraction=1.5)
        with pytest.raises(ValueError):
            ThrottlePlan(floor_bps=0)
        with pytest.raises(ValueError):
            ThrottlePlan().throttle_rate(0)

    def test_capacity_estimator_converges(self):
        loop = EventLoop()
        estimator = CapacityEstimator(
            loop, true_capacity=lambda: 6e6, interval=10.0, noise=0.05
        )
        estimator.start()
        loop.run(until=300.0)
        estimator.stop()
        assert estimator.probes_run >= 30
        assert estimator.estimate == pytest.approx(6e6, rel=0.1)

    def test_estimator_validation(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            CapacityEstimator(loop, true_capacity=lambda: 1.0, interval=0)
        with pytest.raises(ValueError):
            CapacityEstimator(loop, true_capacity=lambda: 1.0, noise=1.5)


class TestBoostServer:
    def test_descriptor_expires_with_boost_event(self, clock):
        server, _db = make_boost_server(clock=clock, lifetime=3600.0)
        descriptor = server.acquire("resident", BOOST_SERVICE)
        assert descriptor.attributes.expires_at == 3600.0
        assert descriptor.attributes.shared  # router may cache for devices

    def test_persistent_store(self, clock, tmp_path):
        path = str(tmp_path / "boost.db")
        server, db = make_boost_server(clock=clock, db_path=path)
        descriptor = server.acquire("resident", BOOST_SERVICE)
        assert db is not None
        assert db.get(descriptor.cookie_id) is not None
        db.close()


class TestBoostOverWmm:
    def test_boost_wins_on_wmm_downlink(self):
        """Fig. 5(b)'s mechanism with the prototype's actual queue: the
        WMM video category instead of strict priority."""
        from repro.core.generator import CookieGenerator
        from repro.core.transport import default_registry
        from repro.netsim.middlebox import FunctionElement
        from repro.netsim.tcpmodel import TcpTransfer

        loop = EventLoop()
        server, _db = make_boost_server(clock=lambda: loop.now)
        store = DescriptorStore()
        server.attach_enforcement_store(store)
        daemon = BoostDaemon(loop, store)
        home = HomeNetwork(
            loop,
            config=HomeNetworkConfig(use_wmm=True, throttle_bps=None),
            middleboxes=[daemon.switch],
        )
        daemon.attach(home)
        descriptor = server.acquire("resident", BOOST_SERVICE)
        generator = CookieGenerator(descriptor, clock=lambda: loop.now)
        registry = default_registry()

        def tag(packet):
            if packet.meta.get("boosted") and packet.meta.get("segment", 9) < 2:
                registry.attach(packet, generator.generate())
            return packet

        tagger = FunctionElement(tag)
        tagger >> home.wan_ingress
        boosted = TcpTransfer(
            loop, tagger, size_bytes=150_000, dst_port=50_001,
            meta={"boosted": True},
        )
        plain = TcpTransfer(loop, home.wan_ingress, size_bytes=150_000,
                            dst_port=50_002)
        boosted.start()
        plain.start()
        loop.run(until=60.0)
        assert boosted.completed and plain.completed
        assert boosted.completion_time < plain.completion_time
