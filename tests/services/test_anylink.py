"""AnyLink proxy tests: cookie-selected slow lanes."""

import pytest

from repro.core import CookieMatcher, DescriptorStore, UserAgent
from repro.core.transport import default_registry
from repro.netsim.appmsg import TLSClientHello
from repro.netsim.events import EventLoop
from repro.netsim.middlebox import Sink
from repro.netsim.packet import make_tcp_packet
from repro.services.anylink import (
    STANDARD_PROFILES,
    AnyLinkProxy,
    LinkProfile,
    make_anylink_server,
)


def _env():
    loop = EventLoop()
    server = make_anylink_server(clock=lambda: loop.now)
    store = DescriptorStore()
    server.attach_enforcement_store(store)
    proxy = AnyLinkProxy(loop, CookieMatcher(store))
    sink = Sink()
    proxy >> sink
    agent = UserAgent("dev", clock=lambda: loop.now, channel=server.handle_request)
    return loop, server, proxy, sink, agent


def _request_packet(sport=5000):
    return make_tcp_packet(
        "10.0.0.1", sport, "93.184.216.34", 443,
        content=TLSClientHello(sni="app.example.com"), payload_size=200,
    )


def _data_packet(sport=5000, size=1200):
    return make_tcp_packet(
        "10.0.0.1", sport, "93.184.216.34", 443, payload_size=size, encrypted=True
    )


class TestServer:
    def test_offers_one_service_per_profile(self):
        loop = EventLoop()
        server = make_anylink_server(clock=lambda: loop.now)
        names = {s["name"] for s in server.list_services()}
        assert names == {f"anylink-{p}" for p in STANDARD_PROFILES}

    def test_service_data_is_profile_name(self):
        loop = EventLoop()
        server = make_anylink_server(clock=lambda: loop.now)
        descriptor = server.acquire("dev", "anylink-3g")
        assert descriptor.service_data == "3g"


class TestProxy:
    def test_cookied_flow_shaped(self):
        loop, _server, proxy, sink, agent = _env()
        packet = _request_packet()
        agent.insert_cookie(packet, "anylink-2g")
        proxy.push(packet)
        assert proxy.stats.flows_bound == 1
        # Follow-up data rides the 2g shaper: 50 kb/s on ~1.2 KB packets.
        for _ in range(10):
            proxy.push(_data_packet())
        loop.run_until_idle()
        assert sink.count == 11
        assert all(
            p.meta.get("anylink_profile") == "2g" for p in sink.packets[1:]
        )
        # 10 x 1240-byte packets at 50 kb/s is meaningful virtual time.
        assert loop.now > 0.5

    def test_uncookied_flow_passes_at_full_speed(self):
        loop, _server, proxy, sink, _agent = _env()
        for _ in range(10):
            proxy.push(_data_packet(sport=6000))
        assert sink.count == 10
        assert loop.now == 0.0  # never touched a shaper

    @pytest.mark.contract
    def test_verifier_error_passes_the_packet_unshaped(self):
        """A verifier that raises is treated as no cookie: the packet
        goes out at full speed, uncounted as a binding, never dropped."""
        from repro.telemetry import MetricsRegistry

        class Broken:
            def match(self, cookie, now):
                raise RuntimeError("store backend down")

        loop, _server, proxy, sink, agent = _env()
        proxy.matcher = Broken()
        registry = MetricsRegistry()
        proxy.register_telemetry(registry)
        packet = _request_packet()
        agent.insert_cookie(packet, "anylink-2g")
        proxy.process_batch([packet, _data_packet()])
        assert sink.count == 2 and loop.now == 0.0
        assert "anylink_profile" not in packet.meta
        assert (proxy.stats.verifier_failures, proxy.stats.flows_bound) == (1, 0)
        assert registry.snapshot().counters["anylink.verifier_failures"] == 1

    @pytest.mark.contract
    def test_a_revoked_descriptor_ends_the_slow_lane_mid_flow(self):
        """PROTOCOL §3: a mid-flow revocation drops the binding on the
        next packet, which then passes unshaped."""
        from repro.telemetry import MetricsRegistry

        loop, server, proxy, sink, agent = _env()
        registry = MetricsRegistry()
        proxy.register_telemetry(registry)
        packet = _request_packet()
        agent.insert_cookie(packet, "anylink-2g")
        proxy.push(packet)
        loop.run_until_idle()
        assert registry.snapshot().gauges["anylink.profile.2g.flows"] == 1
        [cookie] = agent.registry.extract(packet)
        assert server.revoke(cookie.cookie_id)
        shaped_until = loop.now
        after = _data_packet()
        proxy.push(after)
        assert sink.packets[-1] is after and loop.now == shaped_until
        assert "anylink_profile" not in after.meta
        assert registry.snapshot().gauges["anylink.profile.2g.flows"] == 0

    def test_profiles_have_distinct_rates(self):
        def drain_time(profile):
            loop, _server, proxy, sink, agent = _env()
            packet = _request_packet()
            agent.insert_cookie(packet, f"anylink-{profile}")
            proxy.push(packet)
            for _ in range(20):
                proxy.push(_data_packet())
            loop.run_until_idle()
            return loop.now

        assert drain_time("2g") > drain_time("3g") * 2

    def test_unknown_profile_descriptor_ignored(self):
        loop, server, proxy, sink, _agent = _env()
        # Server-side descriptor whose service_data is not a profile.
        from repro.core import CookieDescriptor, CookieGenerator

        descriptor = CookieDescriptor.create(service_data="not-a-profile")
        proxy.matcher.store.add(descriptor)
        packet = _request_packet(sport=7000)
        cookie = CookieGenerator(descriptor, clock=lambda: loop.now).generate()
        default_registry().attach(packet, cookie)
        proxy.push(packet)
        assert proxy.stats.flows_bound == 0
        assert sink.count == 1

    def test_rewire_updates_shapers(self):
        loop, _server, proxy, _old_sink, agent = _env()
        packet = _request_packet()
        agent.insert_cookie(packet, "anylink-dsl")
        proxy.push(packet)
        new_sink = Sink()
        proxy >> new_sink
        proxy.push(_data_packet())
        loop.run_until_idle()
        assert new_sink.count >= 1

    def test_custom_profiles(self):
        loop = EventLoop()
        profiles = {"lab": LinkProfile("lab", 2_000_000.0, "lab link")}
        server = make_anylink_server(clock=lambda: loop.now, profiles=profiles)
        assert server.list_services()[0]["name"] == "anylink-lab"

    def test_non_ip_passthrough(self):
        from repro.netsim.packet import Packet

        _loop, _server, proxy, sink, _agent = _env()
        proxy.push(Packet())
        assert sink.count == 1
