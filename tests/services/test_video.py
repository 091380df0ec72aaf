"""Video-player tests: playback model and application-assisted boosting."""

import pytest

from repro.netsim.events import EventLoop
from repro.netsim.links import Link
from repro.netsim.queues import DropTailQueue
from repro.netsim.tcpmodel import TcpTransfer, TransferEndpoint
from repro.services.video import VideoPlayer


def _fast_path(loop, rate_bps=20e6):
    endpoint = TransferEndpoint()
    link = Link(loop, rate_bps=rate_bps, delay=0.01, scheduler=DropTailQueue())
    link >> endpoint
    return link


class TestSmoothPlayback:
    def test_fast_link_plays_smoothly(self):
        loop = EventLoop()
        player = VideoPlayer(
            loop, _fast_path(loop), duration_seconds=20.0, bitrate_bps=2.5e6
        )
        player.start()
        loop.run(until=120.0)
        assert player.finished
        assert player.stats.rebuffer_events == 0
        assert player.stats.chunks_downloaded == player.total_chunks

    def test_wall_time_close_to_duration(self):
        loop = EventLoop()
        player = VideoPlayer(
            loop, _fast_path(loop), duration_seconds=20.0, bitrate_bps=2.5e6
        )
        player.start()
        loop.run(until=120.0)
        # duration + startup, no stalls.
        assert player.stats.finished_at == pytest.approx(
            20.0 + player.stats.startup_delay, abs=0.5
        )

    def test_startup_delay_recorded(self):
        loop = EventLoop()
        player = VideoPlayer(
            loop, _fast_path(loop), duration_seconds=10.0, bitrate_bps=2.5e6
        )
        player.start()
        loop.run(until=60.0)
        assert player.stats.startup_delay is not None
        assert player.stats.startup_delay > 0

    def test_buffer_never_exceeds_target_much(self):
        loop = EventLoop()
        player = VideoPlayer(
            loop, _fast_path(loop), duration_seconds=30.0,
            bitrate_bps=1e6, buffer_target=6.0,
        )
        player.start()
        loop.run(until=5.0)
        player._sync_buffer()
        assert player._buffer_seconds <= 6.0 + player.chunk_seconds


class TestRebuffering:
    def test_slow_link_stalls(self):
        loop = EventLoop()
        # 1.5 Mb/s link cannot sustain 3 Mb/s video.
        player = VideoPlayer(
            loop, _fast_path(loop, rate_bps=1.5e6),
            duration_seconds=20.0, bitrate_bps=3e6,
        )
        player.start()
        loop.run(until=300.0)
        assert player.finished
        assert player.stats.rebuffer_events > 0
        assert player.stats.rebuffer_seconds > 0

    def test_boost_trigger_called_when_buffer_low(self):
        loop = EventLoop()
        calls = []

        def trigger():
            calls.append(loop.now)
            return True

        player = VideoPlayer(
            loop, _fast_path(loop, rate_bps=1.5e6),
            duration_seconds=10.0, bitrate_bps=3e6, boost_trigger=trigger,
        )
        player.start()
        loop.run(until=120.0)
        assert calls
        assert player.stats.boost_requests == len(calls) >= 1

    def test_trigger_rearms_after_recovery(self):
        """Once the buffer refills past the target, a later dip triggers
        again — bursts, not a permanent lane."""
        loop = EventLoop()
        calls = []

        class FlakyPath:
            """Fast for a while, then slow, then fast again."""

            def __init__(self):
                self.fast = _fast_path(loop, rate_bps=20e6)
                self.slow = _fast_path(loop, rate_bps=1.0e6)

            def push(self, packet):
                target = self.slow if 6.0 < loop.now < 14.0 else self.fast
                target.push(packet)

        player = VideoPlayer(
            loop, FlakyPath(), duration_seconds=30.0, bitrate_bps=3e6,
            boost_trigger=lambda: calls.append(loop.now) or True,
        )
        player.start()
        loop.run(until=300.0)
        assert player.stats.boost_requests >= 1


class TestBoostIntegration:
    def _watch(self, with_boost, background_flows=3):
        from repro.core import CookieGenerator, DescriptorStore
        from repro.core.transport import default_registry
        from repro.netsim.middlebox import FunctionElement
        from repro.netsim.topology import HomeNetwork, HomeNetworkConfig
        from repro.services.boost import BOOST_SERVICE, BoostDaemon, make_boost_server

        loop = EventLoop()
        server, _db = make_boost_server(clock=lambda: loop.now)
        store = DescriptorStore()
        server.attach_enforcement_store(store)
        daemon = BoostDaemon(loop, store)
        home = HomeNetwork(
            loop, config=HomeNetworkConfig(), middleboxes=[daemon.switch]
        )
        daemon.attach(home)
        for i in range(background_flows):
            TcpTransfer(
                loop, home.wan_ingress, size_bytes=50_000_000,
                src_ip=f"203.0.113.{30 + i}", dst_ip="192.168.1.101",
                dst_port=40_000 + i,
            ).start()
        registry = default_registry()
        descriptor = server.acquire("resident", BOOST_SERVICE)
        generator = CookieGenerator(descriptor, clock=lambda: loop.now)
        armed = [False]

        def tag(packet):
            if (armed[0] and packet.meta.get("video")
                    and packet.meta.get("segment", 99) < 2):
                registry.attach(packet, generator.generate())
            return packet

        tagger = FunctionElement(tag)
        tagger >> home.wan_ingress

        player = VideoPlayer(
            loop, tagger, duration_seconds=20.0, bitrate_bps=3e6,
            boost_trigger=(lambda: armed.__setitem__(0, True) or True)
            if with_boost else None,
            transfer_meta={"video": True},
        )
        player.start()
        loop.run(until=300.0)
        return player.stats

    def test_buffer_boost_eliminates_stalls(self):
        plain = self._watch(with_boost=False)
        boosted = self._watch(with_boost=True)
        assert plain.rebuffer_events > 0
        assert boosted.rebuffer_events < plain.rebuffer_events
        assert boosted.rebuffer_seconds < plain.rebuffer_seconds
        assert boosted.boost_requests >= 1


class TestValidation:
    def test_bad_parameters(self):
        loop = EventLoop()
        path = _fast_path(loop)
        with pytest.raises(ValueError):
            VideoPlayer(loop, path, duration_seconds=0)
        with pytest.raises(ValueError):
            VideoPlayer(loop, path, bitrate_bps=0)
        with pytest.raises(ValueError):
            VideoPlayer(loop, path, buffer_low=10.0, buffer_target=5.0)
