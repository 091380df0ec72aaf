"""Home-network topology tests: paths, throttle behaviour, NAT uplink."""

import pytest

from repro.netsim.events import EventLoop
from repro.netsim.middlebox import Counter, Sink
from repro.netsim.packet import make_tcp_packet
from repro.netsim.tcpmodel import TcpTransfer
from repro.netsim.topology import HomeNetwork, HomeNetworkConfig


def _home(loop, **overrides):
    config = HomeNetworkConfig(**overrides)
    return HomeNetwork(loop, config=config)


class TestDownlink:
    def test_packets_reach_endpoint(self):
        loop = EventLoop()
        home = _home(loop)
        transfer = TcpTransfer(loop, home.wan_ingress, size_bytes=50_000)
        transfer.start()
        loop.run_until_idle()
        assert transfer.completed

    def test_middleboxes_spliced_in(self):
        loop = EventLoop()
        counter = Counter()
        home = HomeNetwork(loop, middleboxes=[counter])
        transfer = TcpTransfer(loop, home.wan_ingress, size_bytes=5000)
        transfer.start()
        loop.run_until_idle()
        assert counter.count > 0


class TestThrottle:
    def test_inactive_by_default(self):
        loop = EventLoop()
        home = _home(loop)
        packet = make_tcp_packet("8.8.8.8", 443, "192.168.1.2", 5000)
        assert not home._should_throttle(packet)

    def test_activation_throttles_default_class(self):
        loop = EventLoop()
        home = _home(loop)
        home.activate_throttle()
        default = make_tcp_packet("8.8.8.8", 443, "192.168.1.2", 5000)
        fast = make_tcp_packet("8.8.8.8", 443, "192.168.1.2", 5001)
        fast.meta["qos_class"] = 0
        assert home._should_throttle(default)
        assert not home._should_throttle(fast)

    def test_deactivation(self):
        loop = EventLoop()
        home = _home(loop)
        home.activate_throttle()
        home.deactivate_throttle()
        packet = make_tcp_packet("8.8.8.8", 443, "192.168.1.2", 5000)
        assert not home._should_throttle(packet)

    def test_activate_with_rate_retargets_bucket(self):
        loop = EventLoop()
        home = _home(loop)
        home.activate_throttle(rate_bps=500_000)
        assert home.throttle.bucket.rate_bps == 500_000

    def test_throttled_transfer_is_slower(self):
        def fct(throttled: bool) -> float:
            loop = EventLoop()
            home = _home(loop, downlink_bps=6e6, throttle_bps=1e6)
            if throttled:
                home.activate_throttle()
            transfer = TcpTransfer(loop, home.wan_ingress, size_bytes=100_000)
            transfer.start()
            loop.run(until=60.0)
            assert transfer.completed
            return transfer.completion_time

        assert fct(throttled=True) > 2.0 * fct(throttled=False)

    def test_no_throttle_stage_raises(self):
        loop = EventLoop()
        home = _home(loop, throttle_bps=None)
        with pytest.raises(RuntimeError):
            home.activate_throttle()


class TestUplink:
    def test_uplink_traverses_nat(self):
        loop = EventLoop()
        home = _home(loop)
        sink = Sink()
        home.wan_egress >> sink
        home.lan_ingress.push(make_tcp_packet("192.168.1.2", 5000, "8.8.8.8", 443))
        loop.run_until_idle()
        assert sink.count == 1
        assert sink.packets[0].ip.src == home.config.public_ip

    def test_wan_egress_counter(self):
        loop = EventLoop()
        home = _home(loop)
        home.lan_ingress.push(make_tcp_packet("192.168.1.2", 5000, "8.8.8.8", 443))
        loop.run_until_idle()
        assert home.wan_egress.count == 1


class TestWmmDownlink:
    def test_wmm_scheduler_selected(self):
        from repro.netsim.queues import WMMScheduler

        loop = EventLoop()
        home = _home(loop, use_wmm=True)
        assert isinstance(home.downlink.scheduler, WMMScheduler)

    def test_boosted_video_class_beats_best_effort(self):
        """With WMM, fast-lane traffic stamped into the video access
        category gets most of the contended downlink."""
        loop = EventLoop()
        home = _home(loop, use_wmm=True, throttle_bps=None)
        video = TcpTransfer(
            loop, home.wan_ingress, size_bytes=150_000,
            qos_class_name="video", dst_port=50_001,
        )
        bulk = TcpTransfer(
            loop, home.wan_ingress, size_bytes=150_000, dst_port=50_002,
        )
        video.start()
        bulk.start()
        loop.run(until=60.0)
        assert video.completed and bulk.completed
        assert video.completion_time < bulk.completion_time
