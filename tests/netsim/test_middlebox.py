"""Element pipeline tests: wiring, sinks, taps, function elements, shapers."""

from repro.netsim.events import EventLoop
from repro.netsim.middlebox import (
    Counter,
    FunctionElement,
    ShaperElement,
    Sink,
    Tap,
)
from repro.netsim.packet import make_tcp_packet
from repro.netsim.queues import TokenBucket


def _packet(size=100):
    return make_tcp_packet("1.1.1.1", 1, "2.2.2.2", 2, payload_size=size)


class TestWiring:
    def test_rshift_chains(self):
        a, b, sink = Counter(), Counter(), Sink()
        a >> b >> sink
        a.push(_packet())
        assert a.count == b.count == sink.count == 1

    def test_emit_at_end_is_silent(self):
        Counter().push(_packet())  # no downstream: packet dropped quietly


class TestSink:
    def test_collects_packets(self):
        sink = Sink()
        packet = _packet()
        sink.push(packet)
        assert sink.packets == [packet]
        assert sink.bytes == packet.wire_length

    def test_keep_false_counts_only(self):
        sink = Sink(keep=False)
        sink.push(_packet())
        assert sink.count == 1 and sink.packets == []


class TestTap:
    def test_callback_sees_every_packet(self):
        seen = []
        sink = Sink()
        tap = Tap(seen.append)
        tap >> sink
        tap.push(_packet())
        assert len(seen) == 1 and sink.count == 1


class TestFunctionElement:
    def test_none_drops(self):
        sink = Sink()
        element = FunctionElement(lambda p: None)
        element >> sink
        element.push(_packet())
        assert sink.count == 0

    def test_mutation_forwards(self):
        sink = Sink()

        def stamp(packet):
            packet.meta["seen"] = True
            return packet

        element = FunctionElement(stamp)
        element >> sink
        element.push(_packet())
        assert sink.packets[0].meta["seen"]


class TestShaper:
    def test_conforming_passes_immediately(self):
        loop = EventLoop()
        sink = Sink()
        shaper = ShaperElement(loop, TokenBucket(rate_bps=1e6, burst_bytes=10_000))
        shaper >> sink
        shaper.push(_packet())
        assert sink.count == 1  # no event loop turn needed

    def test_nonconforming_delayed(self):
        loop = EventLoop()
        sink = Sink()
        shaper = ShaperElement(loop, TokenBucket(rate_bps=8000, burst_bytes=200))
        shaper >> sink
        shaper.push(_packet(size=160))  # 200 wire bytes: drains the bucket
        shaper.push(_packet(size=160))  # must wait ~0.2 s
        assert sink.count == 1
        loop.run_until_idle()
        assert sink.count == 2
        assert loop.now >= 0.15
        assert shaper.delayed == 1

    def test_order_preserved_through_backlog(self):
        loop = EventLoop()
        sink = Sink()
        shaper = ShaperElement(loop, TokenBucket(rate_bps=80_000, burst_bytes=150))
        shaper >> sink
        packets = [_packet(size=100) for _ in range(5)]
        for packet in packets:
            shaper.push(packet)
        loop.run_until_idle()
        assert [p.packet_id for p in sink.packets] == [p.packet_id for p in packets]

    def test_bypass_predicate(self):
        loop = EventLoop()
        sink = Sink()
        shaper = ShaperElement(
            loop,
            TokenBucket(rate_bps=8, burst_bytes=1),
            predicate=lambda p: p.meta.get("slow", False),
        )
        shaper >> sink
        shaper.push(_packet())  # not "slow": bypasses entirely
        assert sink.count == 1

    def test_backlog_overflow_drops(self):
        loop = EventLoop()
        shaper = ShaperElement(
            loop, TokenBucket(rate_bps=8, burst_bytes=1), max_backlog=2
        )
        for _ in range(5):
            shaper.push(_packet())
        assert shaper.dropped == 3
