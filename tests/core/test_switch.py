"""Cookie switch tests: flow binding, sniffing, granularity, guarantees."""

import pytest

from repro.core.attributes import CookieAttributes, Granularity
from repro.core.descriptor import CookieDescriptor
from repro.core.generator import CookieGenerator
from repro.core.matcher import CookieMatcher
from repro.core.parallel import ProcessShardExecutor
from repro.core.store import DescriptorStore
from repro.core.switch import CookieSwitch, DscpServiceApplier, FAST_LANE_CLASS
from repro.core.transport import default_registry
from repro.netsim.appmsg import TLSClientHello
from repro.netsim.middlebox import Sink
from repro.netsim.packet import make_tcp_packet
from repro.telemetry import MetricsRegistry


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _setup(attributes=None, sniff_packets=3, applier=None):
    clock = Clock()
    store = DescriptorStore()
    descriptor = store.add(
        CookieDescriptor.create(
            service_data="Boost", attributes=attributes or CookieAttributes()
        )
    )
    switch = CookieSwitch(
        CookieMatcher(store),
        clock=clock,
        sniff_packets=sniff_packets,
        applier=applier,
    )
    sink = Sink()
    switch >> sink
    return clock, descriptor, switch, sink


def _flow_packet(sport=5000, reverse=False, content=None):
    if reverse:
        return make_tcp_packet(
            "203.0.113.5", 443, "10.0.0.1", sport, payload_size=1000, content=content
        )
    return make_tcp_packet(
        "10.0.0.1", sport, "203.0.113.5", 443, payload_size=300, content=content
    )


def _cookied_packet(descriptor, clock, sport=5000):
    packet = _flow_packet(sport=sport, content=TLSClientHello(sni="x.com"))
    cookie = CookieGenerator(descriptor, clock).generate()
    default_registry().attach(packet, cookie)
    return packet


class TestBinding:
    def test_cookied_flow_gets_service(self):
        clock, descriptor, switch, sink = _setup()
        switch.push(_cookied_packet(descriptor, clock))
        assert sink.packets[0].meta["qos_class"] == FAST_LANE_CLASS
        assert sink.packets[0].meta["service"] == "Boost"
        assert switch.stats.flows_bound == 1

    def test_subsequent_packets_served_without_cookie(self):
        clock, descriptor, switch, sink = _setup()
        switch.push(_cookied_packet(descriptor, clock))
        switch.push(_flow_packet())
        assert sink.packets[1].meta["qos_class"] == FAST_LANE_CLASS
        assert switch.stats.cookies_found == 1  # only the first carried one

    def test_reverse_flow_served(self):
        clock, descriptor, switch, sink = _setup()
        switch.push(_cookied_packet(descriptor, clock))
        switch.push(_flow_packet(reverse=True))
        assert sink.packets[1].meta["qos_class"] == FAST_LANE_CLASS

    def test_reverse_not_served_when_disabled(self):
        clock, descriptor, switch, sink = _setup(
            attributes=CookieAttributes(apply_reverse=False)
        )
        switch.push(_cookied_packet(descriptor, clock))
        switch.push(_flow_packet(reverse=True))
        assert "qos_class" not in sink.packets[1].meta

    def test_uncookied_flow_untouched(self):
        _clock, _descriptor, switch, sink = _setup()
        switch.push(_flow_packet())
        assert "qos_class" not in sink.packets[0].meta

    def test_invalid_cookie_degrades_to_best_effort(self):
        clock, _descriptor, switch, sink = _setup()
        stranger = CookieDescriptor.create()
        switch.push(_cookied_packet(stranger, clock))
        assert "qos_class" not in sink.packets[0].meta
        assert switch.stats.cookies_rejected == 1

    def test_distinct_flows_bind_separately(self):
        clock, descriptor, switch, _sink = _setup()
        switch.push(_cookied_packet(descriptor, clock, sport=5000))
        switch.push(_cookied_packet(descriptor, clock, sport=5001))
        assert switch.stats.flows_bound == 2


class TestSniffWindow:
    def test_cookie_after_window_ignored(self):
        clock, descriptor, switch, sink = _setup(sniff_packets=3)
        for _ in range(3):
            switch.push(_flow_packet())
        switch.push(_cookied_packet(descriptor, clock))  # 4th packet
        assert "qos_class" not in sink.packets[3].meta
        assert switch.stats.cookies_found == 0

    def test_cookie_on_third_packet_found(self):
        clock, descriptor, switch, sink = _setup(sniff_packets=3)
        switch.push(_flow_packet())
        switch.push(_flow_packet())
        switch.push(_cookied_packet(descriptor, clock))
        assert sink.packets[2].meta["qos_class"] == FAST_LANE_CLASS

    def test_sniff_counter_stat(self):
        _clock, _descriptor, switch, _sink = _setup(sniff_packets=2)
        for _ in range(5):
            switch.push(_flow_packet())
        assert switch.stats.packets_sniffed == 2

    def test_zero_sniff_rejected(self):
        store = DescriptorStore()
        with pytest.raises(ValueError):
            CookieSwitch(CookieMatcher(store), clock=lambda: 0.0, sniff_packets=0)

    def test_needs_loop_or_clock(self):
        with pytest.raises(ValueError):
            CookieSwitch(CookieMatcher(DescriptorStore()))


class TestGranularity:
    def test_packet_granularity_serves_single_packet(self):
        clock, descriptor, switch, sink = _setup(
            attributes=CookieAttributes(granularity=Granularity.PACKET)
        )
        switch.push(_cookied_packet(descriptor, clock))
        switch.push(_flow_packet())  # same flow, no cookie
        assert sink.packets[0].meta["qos_class"] == FAST_LANE_CLASS
        assert "qos_class" not in sink.packets[1].meta
        assert switch.stats.flows_bound == 0


class TestRevocationMidFlow:
    def test_service_stops_when_descriptor_revoked(self):
        clock, descriptor, switch, sink = _setup()
        switch.push(_cookied_packet(descriptor, clock))
        descriptor.revoke()
        switch.push(_flow_packet())
        assert "qos_class" not in sink.packets[1].meta

    def test_service_stops_after_expiry(self):
        clock, descriptor, switch, sink = _setup(
            attributes=CookieAttributes(expires_at=10.0)
        )
        switch.push(_cookied_packet(descriptor, clock))
        clock.now = 20.0
        switch.push(_flow_packet())
        assert "qos_class" not in sink.packets[1].meta


class TestDeliveryGuarantee:
    def test_ack_attached_to_first_reverse_packet(self):
        clock, descriptor, switch, sink = _setup(
            attributes=CookieAttributes(delivery_guarantee=True)
        )
        switch.push(_cookied_packet(descriptor, clock))
        reverse = _flow_packet(reverse=True, content=TLSClientHello(sni=""))
        switch.push(reverse)
        assert default_registry().extract(reverse)
        assert switch.stats.acks_attached == 1

    def test_ack_only_once(self):
        clock, descriptor, switch, _sink = _setup(
            attributes=CookieAttributes(delivery_guarantee=True)
        )
        switch.push(_cookied_packet(descriptor, clock))
        switch.push(_flow_packet(reverse=True, content=TLSClientHello(sni="")))
        switch.push(_flow_packet(reverse=True, content=TLSClientHello(sni="")))
        assert switch.stats.acks_attached == 1


class TestDscpApplier:
    def test_marks_dscp_instead_of_meta(self):
        applier = DscpServiceApplier({"Boost": 34})
        clock, descriptor, switch, sink = _setup(applier=applier)
        switch.push(_cookied_packet(descriptor, clock))
        assert sink.packets[0].dscp == 34
        assert applier.marked == 1

    def test_unknown_service_uses_default(self):
        applier = DscpServiceApplier({}, default_dscp=0)
        clock, descriptor, switch, sink = _setup(applier=applier)
        switch.push(_cookied_packet(descriptor, clock))
        assert sink.packets[0].dscp == 0


class TestNonIpTraffic:
    def test_passes_through(self):
        from repro.netsim.packet import Packet

        _clock, _descriptor, switch, sink = _setup()
        switch.push(Packet())
        assert sink.count == 1


class TestBindingLifetime:
    def test_binding_expires_with_flow_idle_timeout(self):
        clock = Clock()
        store = DescriptorStore()
        descriptor = store.add(CookieDescriptor.create(service_data="Boost"))
        switch = CookieSwitch(
            CookieMatcher(store, nct=1e9), clock=clock, flow_idle_timeout=30.0
        )
        sink = Sink()
        switch >> sink
        switch.push(_cookied_packet(descriptor, clock))
        clock.now = 100.0  # flow idles out; binding state evicted
        switch.push(_flow_packet())
        assert "qos_class" not in sink.packets[1].meta

    def test_rebinding_after_idle_works(self):
        clock = Clock()
        store = DescriptorStore()
        descriptor = store.add(CookieDescriptor.create(service_data="Boost"))
        switch = CookieSwitch(
            CookieMatcher(store, nct=1e9), clock=clock, flow_idle_timeout=30.0
        )
        sink = Sink()
        switch >> sink
        switch.push(_cookied_packet(descriptor, clock))
        clock.now = 100.0
        switch.push(_cookied_packet(descriptor, clock))  # fresh cookie
        assert sink.packets[1].meta.get("qos_class") == FAST_LANE_CLASS


class TestAckWithoutReverseService:
    def test_ack_attached_even_when_reverse_not_serviced(self):
        """A forward-only descriptor with a delivery guarantee must still
        ack on reverse traffic: the guarantee is about the forward service
        having been applied, not about servicing the reverse path."""
        clock, descriptor, switch, sink = _setup(
            attributes=CookieAttributes(
                delivery_guarantee=True, apply_reverse=False
            )
        )
        switch.push(_cookied_packet(descriptor, clock))
        reverse = _flow_packet(reverse=True, content=TLSClientHello(sni=""))
        switch.push(reverse)
        assert default_registry().extract(reverse)
        assert switch.stats.acks_attached == 1
        # The reverse packet itself is still best-effort.
        assert "qos_class" not in reverse.meta

    def test_ack_still_only_once_without_reverse_service(self):
        clock, descriptor, switch, _sink = _setup(
            attributes=CookieAttributes(
                delivery_guarantee=True, apply_reverse=False
            )
        )
        switch.push(_cookied_packet(descriptor, clock))
        switch.push(_flow_packet(reverse=True, content=TLSClientHello(sni="")))
        second = _flow_packet(reverse=True, content=TLSClientHello(sni=""))
        switch.push(second)
        assert switch.stats.acks_attached == 1
        assert not default_registry().extract(second)


class TestRevocationRebinding:
    def test_rebind_with_new_cookie_inside_sniff_window(self):
        """After a mid-flow revocation drops the binding, a packet still
        inside the sniff window carrying a cookie from a *different*
        (valid) descriptor re-binds the flow to the new service."""
        clock = Clock()
        store = DescriptorStore()
        first = store.add(CookieDescriptor.create(service_data="Boost"))
        second = store.add(CookieDescriptor.create(service_data="Turbo"))
        switch = CookieSwitch(CookieMatcher(store), clock=clock)
        sink = Sink()
        switch >> sink
        switch.push(_cookied_packet(first, clock))
        first.revoke()
        switch.push(_flow_packet())  # packet 2: binding dropped, no service
        assert "service" not in sink.packets[1].meta
        rebind = _flow_packet(content=TLSClientHello(sni="x.com"))
        default_registry().attach(
            rebind, CookieGenerator(second, clock).generate()
        )
        switch.push(rebind)  # packet 3: still within the sniff window
        assert sink.packets[2].meta.get("service") == "Turbo"
        assert switch.stats.flows_bound == 2

    def test_no_rebind_after_sniff_window(self):
        """Revocation after the sniff window leaves the flow best-effort
        for good — late cookies are ignored, per the sniff rule."""
        clock = Clock()
        store = DescriptorStore()
        first = store.add(CookieDescriptor.create(service_data="Boost"))
        second = store.add(CookieDescriptor.create(service_data="Turbo"))
        switch = CookieSwitch(CookieMatcher(store), clock=clock)
        sink = Sink()
        switch >> sink
        switch.push(_cookied_packet(first, clock))
        for _ in range(3):  # burn through the sniff window while bound
            switch.push(_flow_packet())
        first.revoke()
        switch.push(_flow_packet())  # binding dropped here
        late = _flow_packet(content=TLSClientHello(sni="x.com"))
        default_registry().attach(
            late, CookieGenerator(second, clock).generate()
        )
        switch.push(late)
        assert "service" not in sink.packets[-1].meta
        assert switch.stats.flows_bound == 1

    def test_rebinding_flow_acks_again_on_new_guarantee(self):
        """A re-bound delivery-guaranteed descriptor gets its own ack."""
        clock = Clock()
        store = DescriptorStore()
        attrs = CookieAttributes(delivery_guarantee=True)
        first = store.add(
            CookieDescriptor.create(service_data="A", attributes=attrs)
        )
        second = store.add(
            CookieDescriptor.create(
                service_data="B",
                attributes=CookieAttributes(delivery_guarantee=True),
            )
        )
        switch = CookieSwitch(CookieMatcher(store), clock=clock)
        switch >> Sink()
        switch.push(_cookied_packet(first, clock))
        first.revoke()
        switch.push(_flow_packet())  # packet 2: old binding dropped
        rebind = _flow_packet(content=TLSClientHello(sni="x.com"))
        default_registry().attach(
            rebind, CookieGenerator(second, clock).generate()
        )
        switch.push(rebind)  # packet 3: re-binds, arms a fresh ack
        reverse = _flow_packet(reverse=True, content=TLSClientHello(sni=""))
        switch.push(reverse)
        assert switch.stats.acks_attached == 1
        [ack_cookie] = default_registry().extract(reverse)
        assert ack_cookie.cookie_id == second.cookie_id


class TestFailSafe:
    @pytest.mark.contract
    @pytest.mark.parametrize("batched", [False, True])
    def test_verifier_error_forwards_the_packet_unserved(self, batched):
        """A verifier that raises is no verdict: best effort, counted,
        and the packet still comes out the other side."""
        clock, descriptor, switch, sink = _setup()
        pool = ProcessShardExecutor(
            DescriptorStore(), workers=1, transport="in-process"
        )
        pool.close()  # match() now raises RuntimeError
        switch.matcher = pool
        registry = MetricsRegistry()
        switch.register_telemetry(registry)
        packets = [_cookied_packet(descriptor, clock), _flow_packet()]
        if batched:
            switch.process_batch(packets)
        else:
            for packet in packets:
                switch.push(packet)
        assert sink.packets == packets
        assert not any("qos_class" in packet.meta for packet in packets)
        stats = switch.stats
        assert (stats.verifier_failures, stats.cookies_found) == (1, 1)
        assert (stats.cookies_rejected, stats.flows_bound) == (1, 0)
        assert registry.snapshot().counters["switch.verifier_failures"] == 1
