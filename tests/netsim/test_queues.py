"""Queueing discipline tests: drop-tail, priority, DRR, token bucket, WMM."""

import pytest
from hypothesis import given, strategies as st

from repro.netsim.packet import make_tcp_packet
from repro.netsim.queues import (
    DropTailQueue,
    StrictPriorityScheduler,
    TokenBucket,
    WeightedScheduler,
    WMMScheduler,
)


def _packet(size=100, qos=None, qos_name=None):
    packet = make_tcp_packet("1.1.1.1", 1, "2.2.2.2", 2, payload_size=size)
    if qos is not None:
        packet.meta["qos_class"] = qos
    if qos_name is not None:
        packet.meta["qos_class_name"] = qos_name
    return packet


class TestDropTail:
    def test_fifo_order(self):
        queue = DropTailQueue()
        first, second = _packet(), _packet()
        queue.enqueue(first)
        queue.enqueue(second)
        assert queue.dequeue() is first
        assert queue.dequeue() is second

    def test_packet_capacity_drop(self):
        queue = DropTailQueue(capacity_packets=2)
        assert queue.enqueue(_packet())
        assert queue.enqueue(_packet())
        assert not queue.enqueue(_packet())
        assert queue.stats.dropped == 1

    def test_byte_capacity_drop(self):
        queue = DropTailQueue(capacity_bytes=200)
        assert queue.enqueue(_packet(size=100))  # 140 wire bytes
        assert not queue.enqueue(_packet(size=100))
        assert queue.stats.bytes_dropped > 0

    def test_empty_dequeue_returns_none(self):
        assert DropTailQueue().dequeue() is None

    def test_drop_rate(self):
        queue = DropTailQueue(capacity_packets=1)
        queue.enqueue(_packet())
        queue.enqueue(_packet())
        assert queue.stats.drop_rate == pytest.approx(0.5)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            DropTailQueue(capacity_packets=0)


class TestStrictPriority:
    def test_high_priority_dequeued_first(self):
        scheduler = StrictPriorityScheduler(levels=2)
        low = _packet(qos=1)
        high = _packet(qos=0)
        scheduler.enqueue(low)
        scheduler.enqueue(high)
        assert scheduler.dequeue() is high
        assert scheduler.dequeue() is low

    def test_unmarked_defaults_to_lowest(self):
        scheduler = StrictPriorityScheduler(levels=3)
        assert scheduler.classify(_packet()) == 2

    def test_out_of_range_class_clamped(self):
        scheduler = StrictPriorityScheduler(levels=2)
        assert scheduler.classify(_packet(qos=7)) == 1
        assert scheduler.classify(_packet(qos=-3)) == 0

    def test_len_and_empty(self):
        scheduler = StrictPriorityScheduler()
        assert scheduler.is_empty
        scheduler.enqueue(_packet(qos=0))
        assert len(scheduler) == 1 and not scheduler.is_empty

    def test_peek_respects_priority(self):
        scheduler = StrictPriorityScheduler(levels=2)
        scheduler.enqueue(_packet(qos=1))
        high = _packet(qos=0)
        scheduler.enqueue(high)
        assert scheduler.peek() is high

    def test_needs_one_level(self):
        with pytest.raises(ValueError):
            StrictPriorityScheduler(levels=0)


class TestWeightedScheduler:
    def test_proportional_share(self):
        scheduler = WeightedScheduler(weights={"a": 3.0, "b": 1.0}, default_class="b")
        for _ in range(200):
            scheduler.enqueue(_packet(qos_name="a"))
            scheduler.enqueue(_packet(qos_name="b"))
        first_100 = [scheduler.dequeue().meta["qos_class_name"] for _ in range(100)]
        share_a = first_100.count("a") / 100
        assert 0.6 < share_a < 0.9  # ~3:1 with quantum granularity

    def test_work_conserving_when_one_class_idle(self):
        scheduler = WeightedScheduler(weights={"a": 10.0, "b": 1.0}, default_class="b")
        for _ in range(5):
            scheduler.enqueue(_packet(qos_name="b"))
        drained = [scheduler.dequeue() for _ in range(5)]
        assert all(p is not None for p in drained)

    def test_unknown_class_goes_to_default(self):
        scheduler = WeightedScheduler(weights={"a": 1.0}, default_class="a")
        assert scheduler.classify(_packet(qos_name="zzz")) == "a"

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedScheduler(weights={})
        with pytest.raises(ValueError):
            WeightedScheduler(weights={"a": -1.0})
        with pytest.raises(ValueError):
            WeightedScheduler(weights={"a": 1.0}, default_class="missing")

    def test_empty_dequeue(self):
        scheduler = WeightedScheduler(weights={"a": 1.0})
        assert scheduler.dequeue() is None


class TestTokenBucket:
    def test_burst_allows_initial_send(self):
        bucket = TokenBucket(rate_bps=8000, burst_bytes=1000)
        assert bucket.consume(1000, now=0.0)
        assert not bucket.consume(1, now=0.0)

    def test_refills_at_rate(self):
        bucket = TokenBucket(rate_bps=8000, burst_bytes=1000)  # 1000 B/s
        bucket.consume(1000, now=0.0)
        assert not bucket.consume(500, now=0.1)  # only ~100 B refilled
        assert bucket.consume(500, now=0.5)

    def test_tokens_capped_at_burst(self):
        bucket = TokenBucket(rate_bps=8000, burst_bytes=100)
        bucket.consume(100, now=0.0)
        bucket._refill(now=100.0)
        assert bucket.tokens <= 100

    def test_delay_until_conforming(self):
        bucket = TokenBucket(rate_bps=8000, burst_bytes=1000)
        bucket.consume(1000, now=0.0)
        delay = bucket.delay_until_conforming(1000, now=0.0)
        assert delay == pytest.approx(1.0, rel=0.01)

    def test_conforming_after_computed_delay(self):
        bucket = TokenBucket(rate_bps=12_345, burst_bytes=700)
        bucket.consume(700, now=0.0)
        delay = bucket.delay_until_conforming(700, now=0.0)
        assert bucket.consume(700, now=delay)

    def test_set_rate(self):
        bucket = TokenBucket(rate_bps=8000)
        bucket.set_rate(16_000)
        assert bucket.rate_bps == 16_000
        with pytest.raises(ValueError):
            bucket.set_rate(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate_bps=0)
        with pytest.raises(ValueError):
            TokenBucket(rate_bps=1, burst_bytes=0)

    @given(
        rate=st.floats(1000, 1e9),
        burst=st.integers(100, 100_000),
        size=st.integers(1, 100_000),
        gap=st.floats(0, 10),
    )
    def test_delay_always_conforms(self, rate, burst, size, gap):
        """After the computed delay, the packet always conforms."""
        bucket = TokenBucket(rate_bps=rate, burst_bytes=burst)
        bucket.consume(min(size, burst), now=0.0)
        delay = bucket.delay_until_conforming(min(size, burst), now=gap)
        assert bucket.consume(min(size, burst), now=gap + delay)


class TestWMM:
    def test_four_access_categories(self):
        scheduler = WMMScheduler()
        assert set(scheduler.queues) == {"voice", "video", "best_effort", "background"}

    def test_video_beats_best_effort(self):
        scheduler = WMMScheduler()
        for _ in range(100):
            scheduler.enqueue(_packet(qos_name="video"))
            scheduler.enqueue(_packet(qos_name="best_effort"))
        first_50 = [scheduler.dequeue().meta["qos_class_name"] for _ in range(50)]
        assert first_50.count("video") > first_50.count("best_effort")

    def test_default_category(self):
        scheduler = WMMScheduler()
        assert scheduler.classify(_packet()) == "best_effort"
