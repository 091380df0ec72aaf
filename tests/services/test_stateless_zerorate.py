"""Stateless (packet-based) zero-rating (§4.6): the middlebox fed
packet-granularity grants.  A packet grant zero-rates only the packet
that carries it and leaves the box no flow entry, so every packet is
judged alone."""

import pytest

from repro.core import (
    CookieAttributes,
    CookieDescriptor,
    CookieGenerator,
    CookieMatcher,
    DescriptorStore,
    Granularity,
)
from repro.core.transport import default_registry
from repro.netsim.headers import IPProto, IPv6Header, TCPHeader
from repro.netsim.packet import Packet, Payload, make_tcp_packet
from repro.services.zerorate import ZeroRatingMiddlebox


def _env():
    store = DescriptorStore()
    descriptor = store.add(
        CookieDescriptor.create(
            service_data="zero-rate",
            attributes=CookieAttributes(granularity=Granularity.PACKET),
        )
    )
    rater = ZeroRatingMiddlebox(CookieMatcher(store), clock=lambda: 0.0)
    generator = CookieGenerator(descriptor, clock=lambda: 0.0)
    return store, descriptor, rater, generator


def _ipv6_packet(payload=1000):
    return Packet(
        ip=IPv6Header(src="2001:db8::10", dst="2001:db8::2",
                      next_header=IPProto.TCP),
        l4=TCPHeader(src_port=5000, dst_port=443),
        payload=Payload(size=payload),
    )


class TestPerPacketAccounting:
    def test_cookied_packet_free_uncookied_charged(self):
        _store, _descriptor, rater, generator = _env()
        registry = default_registry()
        free = make_tcp_packet("10.0.0.1", 5000, "2.2.2.2", 443, payload_size=500)
        registry.attach(free, generator.generate())
        charged = make_tcp_packet("10.0.0.1", 5000, "2.2.2.2", 443, payload_size=500)
        rater.handle(free)
        rater.handle(charged)
        counters = rater.counters_for("10.0.0.1")
        assert counters.free_bytes == free.wire_length
        assert counters.charged_bytes == charged.wire_length

    def test_same_flow_mixed_outcomes(self):
        """No flow binding: each packet stands alone — the defining
        difference from a flow grant."""
        _store, _descriptor, rater, generator = _env()
        registry = default_registry()
        first = make_tcp_packet("10.0.0.1", 5000, "2.2.2.2", 443, payload_size=100)
        registry.attach(first, generator.generate())
        rater.handle(first)
        follow_up = make_tcp_packet("10.0.0.1", 5000, "2.2.2.2", 443, payload_size=100)
        rater.handle(follow_up)  # same 5-tuple, no cookie -> charged
        counters = rater.counters_for("10.0.0.1")
        assert counters.charged_bytes == follow_up.wire_length

    def test_no_flow_state_ever(self):
        _store, _descriptor, rater, generator = _env()
        registry = default_registry()
        for sport in range(5000, 5050):
            packet = make_tcp_packet("10.0.0.1", sport, "2.2.2.2", 443)
            registry.attach(packet, generator.generate())
            rater.handle(packet)
        assert rater.tracked_flows == 0
        assert rater.cookie_hits == 50

    def test_replayed_cookie_charged(self):
        _store, _descriptor, rater, generator = _env()
        registry = default_registry()
        cookie = generator.generate()
        first = make_tcp_packet("10.0.0.1", 5000, "2.2.2.2", 443, payload_size=100)
        registry.attach(first, cookie)
        rater.handle(first)
        replay = make_tcp_packet("10.0.0.1", 5001, "2.2.2.2", 443, payload_size=100)
        registry.attach(replay, cookie)
        rater.handle(replay)
        assert rater.cookie_misses == 1
        assert rater.counters_for("10.0.0.1").charged_bytes == replay.wire_length

    def test_restart_survival(self):
        """A rebuilt rater (fresh object) continues charging correctly —
        there was no flow state to lose."""
        store, descriptor, rater, generator = _env()
        registry = default_registry()
        packet = make_tcp_packet("10.0.0.1", 5000, "2.2.2.2", 443, payload_size=100)
        registry.attach(packet, generator.generate())
        rater.handle(packet)
        rebuilt = ZeroRatingMiddlebox(CookieMatcher(store), clock=lambda: 0.0)
        fresh = make_tcp_packet("10.0.0.1", 5000, "2.2.2.2", 443, payload_size=100)
        registry.attach(fresh, generator.generate())
        rebuilt.handle(fresh)
        assert rebuilt.counters_for("10.0.0.1").free_bytes == fresh.wire_length

    def test_ipv6_extension_header_carrier(self):
        """The single-packet carrier the paper recommends for this mode."""
        _store, _descriptor, rater, generator = _env()
        registry = default_registry()
        packet = _ipv6_packet()
        registry.attach(packet, generator.generate(), allowed=("ipv6",))
        rater.handle(packet)
        # IPv6 source is not an RFC1918 subscriber here; sender billed.
        assert rater.counters_for("2001:db8::10").free_bytes == packet.wire_length

    def test_non_ip_passthrough(self):
        _store, _descriptor, rater, _generator = _env()
        rater.handle(Packet())
        assert rater.packets_processed == 1
        assert rater.counters == {}


@pytest.mark.parametrize(
    "src,dst,billed",
    [
        ("10.0.0.1", "2.2.2.2", "10.0.0.1"),   # upstream
        ("2.2.2.2", "10.0.0.1", "10.0.0.1"),   # downstream
        ("10.0.0.1", "10.0.0.2", "10.0.0.1"),  # subscriber to subscriber
        ("2.2.2.2", "3.3.3.3", "2.2.2.2"),     # transit: the sender
    ],
)
def test_both_boxes_bill_the_same_side(src, dst, billed):
    """One subscriber-side rule: a packet grant's packet, the box's
    scalar path and its batch path all bill the same end."""
    store, _descriptor, stateless, generator = _env()
    scalar = ZeroRatingMiddlebox(CookieMatcher(store), clock=lambda: 0.0)
    batch = ZeroRatingMiddlebox(CookieMatcher(store), clock=lambda: 0.0)
    packets = [
        make_tcp_packet(src, 5000, dst, 443, payload_size=100) for _ in range(3)
    ]
    default_registry().attach(packets[0], generator.generate())
    stateless.handle(packets[0])
    scalar.handle(packets[1])
    batch.process_batch([packets[2]])
    assert list(stateless.counters) == [billed]
    assert stateless.counters_for(billed).free_bytes == packets[0].wire_length
    for box in (scalar, batch):
        assert list(box.counters) == [billed]
        assert box.counters_for(billed).charged_bytes == packets[1].wire_length


@pytest.mark.contract
@pytest.mark.parametrize(
    "granularity,every_packet,free,flows,hits",
    [
        # The rest of the flow opens a fresh window and resolves charged.
        (Granularity.PACKET, False, 1, 1, 1),
        (Granularity.PACKET, True, 10, 0, 10),
        (Granularity.FLOW, False, 10, 1, 1),
        (Granularity.FLOW, True, 10, 1, 1),
    ],
    ids=["packet-first", "packet-every", "flow-first", "flow-every"],
)
def test_granularity_is_the_descriptors(granularity, every_packet, free, flows, hits):
    """One flow of 10 packets, a cookie on its first or on every packet.
    A packet grant zero-rates the packets that carry one and keeps no
    flow entry for them; a flow grant zero-rates the flow its first
    cookie opens, and later cookies ride the resolved flow unverified."""
    store = DescriptorStore()
    descriptor = store.add(CookieDescriptor.create(
        service_data="zero-rate",
        attributes=CookieAttributes(granularity=granularity),
    ))
    generator = CookieGenerator(descriptor, clock=lambda: 0.0)
    box = ZeroRatingMiddlebox(CookieMatcher(store), clock=lambda: 0.0)
    registry = default_registry()
    packets = []
    for index in range(10):
        packet = make_tcp_packet("10.0.0.1", 5000, "2.2.2.2", 443, payload_size=100)
        if every_packet or index == 0:
            registry.attach(packet, generator.generate())
        packets.append(packet)
        box.handle(packet)
    assert sum(bool(p.meta.get("zero_rated")) for p in packets) == free
    assert (box.tracked_flows, box.cookie_hits, box.cookie_misses) == (flows, hits, 0)
    assert box.flows_resolved == flows
    counters = box.counters_for("10.0.0.1")
    zero_rated = [p for p in packets if p.meta.get("zero_rated")]
    assert counters.free_bytes == sum(p.wire_length for p in zero_rated)
    assert counters.total_bytes == sum(p.wire_length for p in packets)
