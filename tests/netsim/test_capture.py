"""Packet-capture tests."""

import pytest

from repro.netsim.capture import PacketCapture
from repro.netsim.events import EventLoop
from repro.netsim.middlebox import Sink
from repro.netsim.packet import make_tcp_packet


def _packet(size=100, sport=1000, **meta):
    packet = make_tcp_packet("10.0.0.1", sport, "2.2.2.2", 443, payload_size=size)
    packet.meta.update(meta)
    return packet


class TestRecording:
    def test_records_and_forwards(self):
        capture = PacketCapture()
        sink = Sink()
        capture >> sink
        capture.push(_packet())
        assert len(capture) == 1 and sink.count == 1

    def test_record_fields(self):
        capture = PacketCapture(clock=lambda: 7.5)
        capture.push(_packet(size=60))
        record = capture.records[0]
        assert record.time == 7.5
        assert record.src_ip == "10.0.0.1" and record.dst_port == 443
        assert record.wire_length == 100

    def test_clock_from_loop(self):
        loop = EventLoop()
        capture = PacketCapture(loop=loop)
        loop.schedule(2.0, lambda: capture.push(_packet()))
        loop.run_until_idle()
        assert capture.records[0].time == 2.0

    def test_predicate_filters_recording_not_forwarding(self):
        capture = PacketCapture(predicate=lambda p: p.payload.size > 50)
        sink = Sink()
        capture >> sink
        capture.push(_packet(size=10))
        capture.push(_packet(size=100))
        assert len(capture) == 1 and sink.count == 2

    def test_meta_snapshot(self):
        capture = PacketCapture(keep_meta=("qos_class", "site"))
        capture.push(_packet(qos_class=0, site="cnn.com", irrelevant=1))
        record = capture.records[0]
        assert record.annotation("qos_class") == 0
        assert record.annotation("site") == "cnn.com"
        assert record.annotation("irrelevant") is None

    def test_ring_bound(self):
        capture = PacketCapture(max_records=3)
        for i in range(5):
            capture.push(_packet(sport=1000 + i))
        assert len(capture) == 3
        assert capture.records_dropped == 2
        assert capture.records[0].src_port == 1002  # oldest dropped

    def test_validation(self):
        with pytest.raises(ValueError):
            PacketCapture(max_records=0)


class TestQueries:
    def _loaded(self):
        loop = EventLoop()
        capture = PacketCapture(loop=loop)
        for t, size in ((0.5, 100), (1.5, 200), (2.5, 300)):
            loop.schedule(t, lambda s=size: capture.push(_packet(size=s)))
        loop.run_until_idle()
        return capture

    def test_clear(self):
        capture = self._loaded()
        capture.clear()
        assert len(capture) == 0

