"""FaultInjector semantics: every fault class, both data paths, and the
corruption safety property (a mangled cookie is *absent*, never a crash).
"""

import pytest

from repro.core.descriptor import CookieDescriptor
from repro.core.generator import CookieGenerator
from repro.core.store import DescriptorStore
from repro.core.matcher import CookieMatcher
from repro.core.transport import (
    HttpHeaderCarrier,
    Ipv6ExtensionCarrier,
    TcpOptionCarrier,
    TlsExtensionCarrier,
    UdpShimCarrier,
    default_registry,
)
from repro.netsim import (
    EventLoop,
    FaultInjector,
    FaultPlan,
    Sink,
    SkewedClock,
    make_tcp_packet,
    make_udp_packet,
)
from repro.netsim.appmsg import HTTPRequest, TLSClientHello
from repro.netsim.headers import IPProto, IPv6Header, TCPHeader
from repro.netsim.packet import Packet, Payload
from repro.telemetry import MetricsRegistry


def _packet(seq: int = 0):
    return make_tcp_packet(
        "10.0.0.1", 40000, "1.2.3.4", 443, payload_size=100, seq=seq
    )


def _cookied_packet(store=None):
    descriptor = CookieDescriptor.create(service_data="svc")
    if store is not None:
        store.add(descriptor)
    cookie = CookieGenerator(descriptor, clock=lambda: 50.0).generate()
    packet = _packet()
    TcpOptionCarrier().attach(packet, cookie)
    return packet, cookie


def _drive(injector, packets):
    sink = Sink(keep=True)
    injector >> sink
    for packet in packets:
        injector.push(packet)
    injector.flush()
    return sink.packets


class TestFaultPlan:
    @pytest.mark.parametrize("field", [
        "drop_rate", "duplicate_rate", "reorder_rate", "corrupt_rate",
        "delay_rate",
    ])
    def test_rates_validated(self, field):
        with pytest.raises(ValueError):
            FaultPlan(**{field: 1.5})
        with pytest.raises(ValueError):
            FaultPlan(**{field: -0.1})

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(delay_jitter_s=-1.0)

    def test_delay_without_loop_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(FaultPlan(delay_rate=0.5, delay_jitter_s=0.1))


class TestScalarFaults:
    def test_clean_plan_is_transparent(self):
        packets = [_packet(i) for i in range(20)]
        out = _drive(FaultInjector(FaultPlan()), packets)
        assert out == packets

    def test_drop_everything(self):
        injector = FaultInjector(FaultPlan(drop_rate=1.0))
        out = _drive(injector, [_packet(i) for i in range(10)])
        assert out == []
        assert injector.stats.drops == 10

    def test_duplicates_are_marked_deep_copies(self):
        injector = FaultInjector(FaultPlan(duplicate_rate=1.0))
        original = _packet()
        out = _drive(injector, [original])
        assert len(out) == 2
        assert out[0] is original
        dup = out[1]
        assert dup is not original
        assert dup.meta.get("fault_duplicate") is True
        # Deep copy: mutating the clone leaves the original untouched.
        dup.l4.seq = 999
        assert original.l4.seq != 999

    def test_reorder_swaps_adjacent_and_flush_releases(self):
        injector = FaultInjector(FaultPlan(reorder_rate=1.0))
        a, b, c = _packet(1), _packet(2), _packet(3)
        out = _drive(injector, [a, b, c])
        # a is held, b overtakes it, then c is held until flush.
        assert out == [b, a, c]
        assert injector.stats.reorders == 2

    def test_delay_redelivers_later_via_loop(self):
        loop = EventLoop()
        injector = FaultInjector(
            FaultPlan(delay_rate=1.0, delay_jitter_s=0.5, seed=3),
            loop=loop,
        )
        sink = Sink(keep=True)
        injector >> sink
        packet = _packet()
        injector.push(packet)
        assert sink.packets == []  # in flight
        loop.run_until_idle()
        assert sink.packets == [packet]
        assert injector.stats.delays == 1

    def test_determinism_same_seed_same_story(self):
        def run():
            injector = FaultInjector(FaultPlan(
                drop_rate=0.3, duplicate_rate=0.3, reorder_rate=0.3,
                corrupt_rate=0.3, seed=7,
            ))
            out = _drive(injector, [_packet(i) for i in range(50)])
            return [p.l4.seq for p in out], injector.stats.as_dict()

        assert run() == run()

    def test_different_seeds_differ(self):
        def run(seed):
            injector = FaultInjector(FaultPlan(drop_rate=0.5, seed=seed))
            return [
                p.l4.seq
                for p in _drive(injector, [_packet(i) for i in range(50)])
            ]

        assert run(1) != run(2)


class TestBatchFaults:
    def test_batch_drop_and_duplicate(self):
        injector = FaultInjector(FaultPlan(duplicate_rate=1.0))
        sink = Sink(keep=True)
        injector >> sink
        batch = [_packet(i) for i in range(4)]
        injector.process_batch(list(batch))
        assert len(sink.packets) == 8
        assert injector.stats.duplicates == 4

    def test_batch_delay_displaces_to_end(self):
        loop = EventLoop()
        # delay only the stream; rate 1 hits every packet, so all land
        # in the late tail — order within the tail is preserved.
        injector = FaultInjector(
            FaultPlan(delay_rate=1.0, delay_jitter_s=0.2), loop=loop
        )
        sink = Sink(keep=True)
        injector >> sink
        batch = [_packet(i) for i in range(3)]
        injector.process_batch(list(batch))
        assert [p.l4.seq for p in sink.packets] == [0, 1, 2]
        assert injector.stats.delays == 3

    def test_batch_determinism_matches_itself(self):
        def run():
            injector = FaultInjector(FaultPlan(
                drop_rate=0.2, duplicate_rate=0.2, reorder_rate=0.2,
                delay_rate=0.0, seed=11,
            ))
            sink = Sink(keep=True)
            injector >> sink
            injector.process_batch([_packet(i) for i in range(40)])
            return [p.l4.seq for p in sink.packets]

        assert run() == run()


class TestCorruption:
    def test_packet_without_cookie_unharmed(self):
        injector = FaultInjector(FaultPlan(corrupt_rate=1.0))
        out = _drive(injector, [_packet()])
        assert len(out) == 1
        assert injector.stats.corruptions == 0
        assert "fault_corrupted" not in out[0].meta

    def _assert_corruption_is_safe(self, packet, cookie, store):
        """The property the paper's robustness rests on: after a bit
        flip, the carrier reports no (valid) cookie — extraction either
        degrades to None or yields a cookie the matcher rejects —
        and nothing raises."""
        seen = []
        injector = FaultInjector(
            FaultPlan(corrupt_rate=1.0, seed=5), on_corrupt=seen.append
        )
        out = _drive(injector, [packet])
        assert len(out) == 1
        assert injector.stats.corruptions == 1
        assert out[0].meta.get("fault_corrupted") is True
        assert seen == [packet]
        found = default_registry().extract(out[0])
        if found:
            matcher = CookieMatcher(store)
            assert matcher.match(found[0], 50.0) is None

    def test_tcp_option_carrier(self):
        store = DescriptorStore()
        packet, cookie = _cookied_packet(store)
        self._assert_corruption_is_safe(packet, cookie, store)

    def test_udp_shim_carrier(self):
        store = DescriptorStore()
        descriptor = store.add(CookieDescriptor.create(service_data="svc"))
        cookie = CookieGenerator(descriptor, clock=lambda: 50.0).generate()
        packet = make_udp_packet(
            "10.0.0.1", 4000, "1.2.3.4", 53, payload_size=64
        )
        UdpShimCarrier().attach(packet, cookie)
        self._assert_corruption_is_safe(packet, cookie, store)

    def test_tls_extension_carrier(self):
        store = DescriptorStore()
        descriptor = store.add(CookieDescriptor.create(service_data="svc"))
        cookie = CookieGenerator(descriptor, clock=lambda: 50.0).generate()
        packet = make_tcp_packet(
            "10.0.0.1", 4000, "1.2.3.4", 443,
            content=TLSClientHello(sni="example.com"), payload_size=300,
        )
        TlsExtensionCarrier().attach(packet, cookie)
        self._assert_corruption_is_safe(packet, cookie, store)

    def test_http_header_carrier(self):
        store = DescriptorStore()
        descriptor = store.add(CookieDescriptor.create(service_data="svc"))
        cookie = CookieGenerator(descriptor, clock=lambda: 50.0).generate()
        packet = make_tcp_packet(
            "10.0.0.1", 4000, "1.2.3.4", 80,
            content=HTTPRequest(host="example.com"), payload_size=300,
        )
        HttpHeaderCarrier().attach(packet, cookie)
        self._assert_corruption_is_safe(packet, cookie, store)

    def test_ipv6_extension_carrier(self):
        store = DescriptorStore()
        descriptor = store.add(CookieDescriptor.create(service_data="svc"))
        cookie = CookieGenerator(descriptor, clock=lambda: 50.0).generate()
        packet = Packet(
            ip=IPv6Header(
                src="2001:db8::1", dst="2001:db8::2",
                next_header=IPProto.TCP,
            ),
            l4=TCPHeader(src_port=5000, dst_port=443),
            payload=Payload(size=100),
        )
        Ipv6ExtensionCarrier().attach(packet, cookie)
        self._assert_corruption_is_safe(packet, cookie, store)


class TestTelemetryAndClock:
    def test_registry_snapshot_carries_fault_counters(self):
        registry = MetricsRegistry()
        injector = FaultInjector(FaultPlan(drop_rate=1.0))
        injector.register_telemetry(registry)
        _drive(injector, [_packet(i) for i in range(5)])
        counters = registry.snapshot().counters
        assert counters["faults.packets"] == 5
        assert counters["faults.drops"] == 5

    def test_skewed_clock(self):
        base = [100.0]
        clock = SkewedClock(lambda: base[0], skew=-2.5)
        assert clock() == 97.5
        base[0] = 200.0
        assert clock() == 197.5
