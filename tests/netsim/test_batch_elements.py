"""Batched element plumbing: push_batch/process_batch/emit_batch.

The contract under test is the one ``Element.process_batch`` documents:
a batch must leave every element exactly as the equivalent scalar loop
would — same counters, same emitted packets in the same order — and the
default implementation must provide that automatically for elements that
never opted into batching.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.netsim.middlebox import Counter, Element, Sink
from repro.netsim.packet import make_tcp_packet


def _packets(count, payload=100):
    return [
        make_tcp_packet(
            "10.0.0.1", 5000 + i, "2.2.2.2", 80, payload_size=payload + i
        )
        for i in range(count)
    ]


class _Doubler(Element):
    """Scalar-only element: emits every packet twice (no batch override)."""

    def __init__(self):
        super().__init__()
        self.handled = 0

    def handle(self, packet):
        self.handled += 1
        self.emit(packet)
        self.emit(packet)


class TestDefaultBatchPath:
    @settings(max_examples=25, deadline=None)
    @given(count=st.integers(0, 20))
    def test_default_process_batch_equals_scalar_loop(self, count):
        packets = _packets(count)
        scalar, batched = _Doubler(), _Doubler()
        scalar_sink, batched_sink = Sink(), Sink()
        scalar >> scalar_sink
        batched >> batched_sink
        for packet in packets:
            scalar.push(packet)
        batched.push_batch(packets)
        assert batched.handled == scalar.handled == count
        assert [p.packet_id for p in batched_sink.packets] == [
            p.packet_id for p in scalar_sink.packets
        ]

    def test_emit_batch_skips_empty_and_unwired(self):
        element = Element()
        element.emit_batch([])  # no downstream, no packets: both no-ops
        sink = Sink()
        element >> sink
        element.emit_batch([])
        assert sink.count == 0


class TestBatchedElements:
    @settings(max_examples=25, deadline=None)
    @given(count=st.integers(0, 20))
    def test_counter_batch_equals_scalar(self, count):
        packets = _packets(count)
        scalar, batched = Counter(), Counter()
        for packet in packets:
            scalar.push(packet)
        batched.push_batch(packets)
        assert (batched.count, batched.bytes) == (scalar.count, scalar.bytes)

    @settings(max_examples=25, deadline=None)
    @given(count=st.integers(0, 20))
    def test_sink_batch_equals_scalar(self, count):
        packets = _packets(count)
        scalar, batched = Sink(), Sink()
        for packet in packets:
            scalar.push(packet)
        batched.push_batch(packets)
        assert (batched.count, batched.bytes) == (scalar.count, scalar.bytes)
        assert batched.packets == scalar.packets

    def test_pipeline_push_batch_traverses_chain(self):
        packets = _packets(7)
        head, counter, sink = Counter(), Counter(), Sink()
        head >> counter >> sink
        head.push_batch(packets)
        assert head.count == counter.count == sink.count == 7
        assert sink.packets == packets

