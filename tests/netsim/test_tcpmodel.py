"""TCP model tests: completion, congestion response, loss recovery."""

import pytest

from repro.netsim.events import EventLoop
from repro.netsim.links import Link
from repro.netsim.middlebox import Sink
from repro.netsim.queues import DropTailQueue
from repro.netsim.tcpmodel import TcpTransfer, TransferEndpoint


def _path(loop, rate_bps=6e6, queue_packets=100):
    endpoint = TransferEndpoint()
    link = Link(
        loop,
        rate_bps=rate_bps,
        delay=0.01,
        scheduler=DropTailQueue(capacity_packets=queue_packets),
    )
    link >> endpoint
    return link, endpoint


class TestTransferBasics:
    def test_completes_on_idle_link(self):
        loop = EventLoop()
        link, _ = _path(loop)
        transfer = TcpTransfer(loop, link, size_bytes=300_000)
        transfer.start()
        loop.run_until_idle()
        assert transfer.completed
        assert transfer.completion_time is not None

    def test_fct_close_to_ideal_on_idle_link(self):
        loop = EventLoop()
        link, _ = _path(loop, rate_bps=6e6)
        transfer = TcpTransfer(loop, link, size_bytes=300_000)
        transfer.start()
        loop.run_until_idle()
        ideal = 300_000 * 8 / 6e6  # 0.4 s
        assert ideal <= transfer.completion_time < ideal * 3

    def test_faster_link_means_faster_fct(self):
        def fct(rate):
            loop = EventLoop()
            link, _ = _path(loop, rate_bps=rate)
            transfer = TcpTransfer(loop, link, size_bytes=200_000)
            transfer.start()
            loop.run_until_idle()
            return transfer.completion_time

        assert fct(12e6) < fct(2e6)

    def test_cannot_start_twice(self):
        loop = EventLoop()
        link, _ = _path(loop)
        transfer = TcpTransfer(loop, link, size_bytes=1000)
        transfer.start()
        with pytest.raises(RuntimeError):
            transfer.start()

    def test_zero_size_rejected(self):
        loop = EventLoop()
        link, _ = _path(loop)
        with pytest.raises(ValueError):
            TcpTransfer(loop, link, size_bytes=0)

    def test_completion_callback(self):
        loop = EventLoop()
        link, _ = _path(loop)
        finished = []
        transfer = TcpTransfer(
            loop, link, size_bytes=10_000, on_complete=finished.append
        )
        transfer.start()
        loop.run_until_idle()
        assert finished == [transfer]

    def test_total_segments(self):
        loop = EventLoop()
        link, _ = _path(loop)
        transfer = TcpTransfer(loop, link, size_bytes=3000, mss=1460)
        assert transfer.total_segments == 3


class TestCongestionResponse:
    def test_loss_triggers_retransmission(self):
        loop = EventLoop()
        link, _ = _path(loop, rate_bps=1e6, queue_packets=5)  # tiny queue
        transfer = TcpTransfer(loop, link, size_bytes=500_000)
        transfer.start()
        loop.run_until_idle()
        assert transfer.completed
        assert transfer.retransmissions > 0

    def test_two_flows_share_a_link(self):
        loop = EventLoop()
        link, _ = _path(loop, rate_bps=2e6)
        a = TcpTransfer(loop, link, size_bytes=200_000, dst_port=50_001)
        b = TcpTransfer(loop, link, size_bytes=200_000, dst_port=50_002)
        a.start()
        b.start()
        loop.run(until=30.0)
        assert a.completed and b.completed
        solo_ideal = 200_000 * 8 / 2e6
        # Sharing means each takes clearly longer than solo ideal.
        assert a.completion_time > solo_ideal * 1.5
        assert b.completion_time > solo_ideal * 1.5

    def test_qos_meta_stamped_on_segments(self):
        loop = EventLoop()
        endpoint = TransferEndpoint()
        seen = []

        class Spy(Sink):
            def handle(self, packet):
                seen.append(packet)
                endpoint.push(packet)

        transfer = TcpTransfer(
            loop, Spy(), size_bytes=2000, qos_class=0, qos_class_name="video"
        )
        transfer.start()
        loop.run_until_idle()
        assert all(p.meta["qos_class"] == 0 for p in seen)
        assert all(p.meta["qos_class_name"] == "video" for p in seen)


class TestEndpoint:
    def test_untracked_packets_counted(self):
        endpoint = TransferEndpoint()
        from repro.netsim.packet import make_udp_packet

        endpoint.push(make_udp_packet("1.1.1.1", 1, "2.2.2.2", 2, payload_size=10))
        assert endpoint.untracked_packets == 1
