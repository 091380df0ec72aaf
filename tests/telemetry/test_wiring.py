"""Component → registry wiring: one merged view across the data path."""

from repro.core import (
    CookieDescriptor,
    CookieGenerator,
    CookieMatcher,
    DescriptorStore,
)
from repro.core.switch import CookieSwitch
from repro.core.transport import default_registry
from repro.netsim.appmsg import TLSClientHello
from repro.netsim.events import EventLoop
from repro.netsim.middlebox import Sink
from repro.netsim.packet import make_tcp_packet
from repro.services.anylink import AnyLinkProxy
from repro.services.boost import BoostDaemon
from repro.services.zerorate import ZeroRatingMiddlebox
from repro.telemetry import MetricsRegistry


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _cookied_packet(descriptor, clock, sport=5000):
    packet = make_tcp_packet(
        "10.0.0.1", sport, "203.0.113.5", 443,
        content=TLSClientHello(sni="x.com"), payload_size=300,
    )
    default_registry().attach(
        packet, CookieGenerator(descriptor, clock).generate()
    )
    return packet


class TestUnifiedView:
    def test_matcher_switch_middlebox_one_snapshot(self):
        clock = Clock()
        store = DescriptorStore()
        descriptor = store.add(CookieDescriptor.create(service_data="svc"))
        registry = MetricsRegistry()

        switch = CookieSwitch(CookieMatcher(store), clock=clock)
        middlebox = ZeroRatingMiddlebox(CookieMatcher(store), clock=clock)
        switch.register_telemetry(registry)
        switch.matcher.register_telemetry(registry)
        middlebox.register_telemetry(registry)
        middlebox.matcher.register_telemetry(
            registry, prefix="middlebox.matcher"
        )
        switch >> middlebox >> Sink()

        switch.push(_cookied_packet(descriptor, clock))
        switch.push(
            make_tcp_packet("10.0.0.1", 5000, "203.0.113.5", 443,
                            payload_size=800)
        )

        snapshot = registry.snapshot()
        assert snapshot.counters["matcher.accepted"] == 1
        assert snapshot.counters["middlebox.matcher.accepted"] == 1
        assert snapshot.counters["switch.packets"] == 2
        assert snapshot.counters["switch.flows_bound"] == 1
        assert snapshot.counters["middlebox.packets_processed"] == 2
        assert snapshot.counters["middlebox.cookie_hits"] == 1
        assert snapshot.gauges["switch.tracked_flows"] == 1
        assert snapshot.gauges["middlebox.tracked_flows"] == 1
        assert snapshot.gauges["matcher.replay_cache.size"] == 1

    def test_register_telemetry_is_idempotent(self):
        clock = Clock()
        store = DescriptorStore()
        registry = MetricsRegistry()
        switch = CookieSwitch(CookieMatcher(store), clock=clock)
        switch.register_telemetry(registry)
        switch.register_telemetry(registry)  # replaces, does not double
        switch.push(make_tcp_packet("10.0.0.1", 1, "8.8.8.8", 2))
        assert registry.snapshot().counters["switch.packets"] == 1

    def test_shard_snapshots_merge_to_fleet_totals(self):
        """N middlebox shards registered on ONE registry under one
        metric prefix sum into fleet totals — the scale-out story the
        registry was built for (no shard replaces another)."""
        clock = Clock()
        store = DescriptorStore()
        registry = MetricsRegistry()
        shards = [
            ZeroRatingMiddlebox(CookieMatcher(store), clock=clock)
            for _ in range(3)
        ]
        for i, shard in enumerate(shards):
            shard.register_telemetry(registry)
            for port in range(i + 1):  # shard i sees i+1 flows
                shard.handle(
                    make_tcp_packet("10.0.0.1", 100 + port, "8.8.8.8", 443)
                )
        fleet = registry.snapshot()
        assert fleet.counters["middlebox.packets_processed"] == 6
        assert fleet.gauges["middlebox.tracked_flows"] == 6

    def test_boost_and_anylink_register(self):
        """Values, not names: ``test_surface.py`` pins the name set."""
        loop = EventLoop()
        store = DescriptorStore()
        registry = MetricsRegistry()
        daemon = BoostDaemon(loop, store)
        proxy = AnyLinkProxy(loop, CookieMatcher(store))
        daemon.register_telemetry(registry)
        proxy.register_telemetry(registry)
        proxy >> Sink()
        proxy.push(make_tcp_packet("10.0.0.1", 1, "8.8.8.8", 2))
        daemon.switch.push(make_tcp_packet("10.0.0.1", 1, "8.8.8.8", 2))
        snapshot = registry.snapshot()
        assert snapshot.counters["boost.switch.packets"] == 1
        assert snapshot.gauges["boost.boost_active"] == 0
        assert snapshot.gauges["anylink.tracked_flows"] == 1
