"""Queueing disciplines used by links and QoS enforcement.

The Boost prototype provisions its fast lane with (i) a high-priority
wireless WMM queue and (ii) a token-bucket throttle on everything else
(Linux ``tc`` analogues).  This module provides those building blocks:

- :class:`DropTailQueue` — bounded FIFO.
- :class:`StrictPriorityScheduler` — N queues, lowest index drains first.
- :class:`WeightedScheduler` — deficit-round-robin across classes.
- :class:`TokenBucket` — shaper/policer with burst.
- :class:`WMMScheduler` — 4 access categories (VO/VI/BE/BK) approximated as
  a weighted scheduler with WMM-like weights.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .packet import Packet

__all__ = [
    "QueueStats",
    "DropTailQueue",
    "StrictPriorityScheduler",
    "WeightedScheduler",
    "TokenBucket",
    "WMMScheduler",
    "WMM_ACCESS_CATEGORIES",
]

WMM_ACCESS_CATEGORIES = ("voice", "video", "best_effort", "background")


@dataclass
class QueueStats:
    """Counters shared by all queue types."""

    enqueued: int = 0
    dequeued: int = 0
    dropped: int = 0
    bytes_enqueued: int = 0
    bytes_dequeued: int = 0
    bytes_dropped: int = 0

    @property
    def drop_rate(self) -> float:
        total = self.enqueued + self.dropped
        return self.dropped / total if total else 0.0


class DropTailQueue:
    """A bounded FIFO that drops arrivals when full.

    ``capacity_packets`` and ``capacity_bytes`` each bound the queue; a
    packet is dropped if admitting it would exceed either bound.
    """

    def __init__(
        self,
        capacity_packets: int = 1000,
        capacity_bytes: int | None = None,
    ) -> None:
        if capacity_packets <= 0:
            raise ValueError("capacity_packets must be positive")
        self.capacity_packets = capacity_packets
        self.capacity_bytes = capacity_bytes
        self._queue: deque[Packet] = deque()
        self._bytes = 0
        self.stats = QueueStats()

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def is_empty(self) -> bool:
        return not self._queue

    def enqueue(self, packet: Packet) -> bool:
        """Admit a packet; returns False (and counts a drop) when full."""
        if len(self._queue) >= self.capacity_packets or (
            self.capacity_bytes is not None
            and self._bytes + packet.wire_length > self.capacity_bytes
        ):
            self.stats.dropped += 1
            self.stats.bytes_dropped += packet.wire_length
            return False
        self._queue.append(packet)
        self._bytes += packet.wire_length
        self.stats.enqueued += 1
        self.stats.bytes_enqueued += packet.wire_length
        return True

    def dequeue(self) -> Packet | None:
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self._bytes -= packet.wire_length
        self.stats.dequeued += 1
        self.stats.bytes_dequeued += packet.wire_length
        return packet

    def peek(self) -> Packet | None:
        return self._queue[0] if self._queue else None


class StrictPriorityScheduler:
    """Strict-priority scheduling over N drop-tail queues.

    Class 0 is highest priority.  ``classify`` defaults to reading
    ``packet.meta['qos_class']`` (set by the enforcement layer), falling
    back to the lowest priority.
    """

    def __init__(self, levels: int = 2, capacity_packets: int = 1000) -> None:
        if levels < 1:
            raise ValueError("need at least one priority level")
        self.levels = levels
        self.queues = [
            DropTailQueue(capacity_packets=capacity_packets) for _ in range(levels)
        ]

    def __len__(self) -> int:
        return sum(len(q) for q in self.queues)

    @property
    def is_empty(self) -> bool:
        return all(q.is_empty for q in self.queues)

    def classify(self, packet: Packet) -> int:
        level = packet.meta.get("qos_class", self.levels - 1)
        return max(0, min(self.levels - 1, int(level)))

    def enqueue(self, packet: Packet) -> bool:
        return self.queues[self.classify(packet)].enqueue(packet)

    def dequeue(self) -> Packet | None:
        for queue in self.queues:
            packet = queue.dequeue()
            if packet is not None:
                return packet
        return None

    def peek(self) -> Packet | None:
        for queue in self.queues:
            packet = queue.peek()
            if packet is not None:
                return packet
        return None


class WeightedScheduler:
    """Deficit-round-robin scheduler across named classes.

    Each class gets bandwidth proportional to its weight when backlogged;
    idle classes' share is redistributed (work-conserving).
    """

    def __init__(
        self,
        weights: dict[str, float],
        default_class: str | None = None,
        capacity_packets: int = 1000,
        quantum_bytes: int = 1500,
    ) -> None:
        if not weights:
            raise ValueError("need at least one class")
        if any(w <= 0 for w in weights.values()):
            raise ValueError("weights must be positive")
        self.weights = dict(weights)
        self.default_class = default_class or next(iter(weights))
        if self.default_class not in self.weights:
            raise ValueError(f"default class {self.default_class!r} not in weights")
        self.quantum_bytes = quantum_bytes
        self.queues = {
            name: DropTailQueue(capacity_packets=capacity_packets) for name in weights
        }
        self._deficits = {name: 0.0 for name in weights}
        self._order = list(weights)
        self._cursor = 0
        self._topped_up = False  # has the cursor's class gotten this
        # round's quantum yet?

    def __len__(self) -> int:
        return sum(len(q) for q in self.queues.values())

    @property
    def is_empty(self) -> bool:
        return all(q.is_empty for q in self.queues.values())

    def classify(self, packet: Packet) -> str:
        name = packet.meta.get("qos_class_name", self.default_class)
        return name if name in self.queues else self.default_class

    def enqueue(self, packet: Packet) -> bool:
        return self.queues[self.classify(packet)].enqueue(packet)

    def dequeue(self) -> Packet | None:
        if self.is_empty:
            return None
        # Classic DRR: each round-robin visit tops up the class's deficit
        # by weight * quantum exactly once, then the class sends while the
        # deficit covers its head packet.  Bounded visits guarantee
        # progress even with tiny weights (deficits accumulate per visit).
        max_visits = 2 * len(self._order) + int(
            max(p.wire_length for q in self.queues.values() for p in [q.peek()] if p)
            / (min(self.weights.values()) * self.quantum_bytes)
            + 1
        ) * len(self._order)
        for _ in range(max_visits):
            name = self._order[self._cursor]
            queue = self.queues[name]
            if queue.is_empty:
                self._deficits[name] = 0.0
                self._advance()
                continue
            if not self._topped_up:
                self._deficits[name] += self.weights[name] * self.quantum_bytes
                self._topped_up = True
            head = queue.peek()
            assert head is not None
            if self._deficits[name] >= head.wire_length:
                self._deficits[name] -= head.wire_length
                return queue.dequeue()
            self._advance()
        # Fallback: guaranteed progress even with pathological weights.
        for queue in self.queues.values():
            if not queue.is_empty:
                return queue.dequeue()
        return None

    def _advance(self) -> None:
        self._cursor = (self._cursor + 1) % len(self._order)
        self._topped_up = False


class TokenBucket:
    """A token-bucket rate limiter (the ``tc`` throttle analogue).

    ``rate_bps`` is the sustained rate in *bits* per second;
    ``burst_bytes`` the bucket depth.  :meth:`consume` asks whether a packet
    may pass now; :meth:`delay_until_conforming` computes how long a shaper
    must hold it.
    """

    def __init__(self, rate_bps: float, burst_bytes: int = 15_000) -> None:
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        if burst_bytes <= 0:
            raise ValueError("burst must be positive")
        self.rate_bps = rate_bps
        self.burst_bytes = burst_bytes
        self._tokens = float(burst_bytes)
        self._last_refill = 0.0

    def set_rate(self, rate_bps: float) -> None:
        """Retarget the sustained rate (used by adaptive throttling)."""
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.rate_bps = rate_bps

    def _refill(self, now: float) -> None:
        elapsed = now - self._last_refill
        if elapsed > 0:
            self._tokens = min(
                self.burst_bytes, self._tokens + elapsed * self.rate_bps / 8.0
            )
            self._last_refill = now

    #: Tolerance for float drift between a computed conforming delay and
    #: the refill arithmetic at that instant (tokens, i.e. bytes).
    EPSILON = 1e-6

    def consume(self, nbytes: int, now: float) -> bool:
        """Try to send ``nbytes`` at time ``now`` (policer behaviour)."""
        self._refill(now)
        if self._tokens >= nbytes - self.EPSILON:
            self._tokens -= nbytes
            return True
        return False

    def delay_until_conforming(self, nbytes: int, now: float) -> float:
        """Seconds to wait before ``nbytes`` conforms (shaper behaviour).

        The returned delay is padded slightly so that consuming at
        ``now + delay`` always succeeds despite float rounding.
        """
        self._refill(now)
        if self._tokens >= nbytes - self.EPSILON:
            return 0.0
        deficit = nbytes - self._tokens
        return deficit * 8.0 / self.rate_bps + 1e-9

    @property
    def tokens(self) -> float:
        return self._tokens


class WMMScheduler(WeightedScheduler):
    """WiFi Multimedia access categories as a weighted scheduler.

    Real WMM is EDCA contention; for a single-AP downlink the observable
    effect is an approximate bandwidth ratio between access categories,
    which the weights below model.  Boost maps fast-lane traffic to the
    ``video`` category.
    """

    DEFAULT_WEIGHTS = {
        "voice": 8.0,
        "video": 4.0,
        "best_effort": 1.0,
        "background": 0.5,
    }

    def __init__(self, capacity_packets: int = 1000) -> None:
        super().__init__(
            weights=dict(self.DEFAULT_WEIGHTS),
            default_class="best_effort",
            capacity_packets=capacity_packets,
        )
