"""Rate-limited links driven by the event loop.

A :class:`Link` is a unidirectional transmission resource: packets are
queued by a scheduling discipline, serialized at ``rate_bps``, and delivered
to the attached sink after a propagation delay.  This is where priority
queueing actually produces differentiated service — a boosted packet that
jumps the queue departs earlier.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Protocol

from .events import EventLoop
from .middlebox import Element
from .packet import Packet
from .queues import DropTailQueue

__all__ = ["Link", "Scheduler"]


class Scheduler(Protocol):
    """Interface a queueing discipline must expose to drive a link."""

    def enqueue(self, packet: Packet) -> bool: ...

    def dequeue(self) -> Packet | None: ...

    @property
    def is_empty(self) -> bool: ...


class Link(Element):
    """A serializing link with a pluggable scheduler.

    Packets pushed into the link enter ``scheduler``; whenever the
    transmitter is idle the head packet is clocked out over
    ``wire_length * 8 / rate_bps`` seconds and handed to the downstream
    element ``delay`` seconds later.  Per-packet departure timestamps are
    recorded in ``packet.meta['link_departures'][name]`` so experiments can
    compute queueing delay.
    """

    def __init__(
        self,
        loop: EventLoop,
        rate_bps: float,
        delay: float = 0.0,
        scheduler: Scheduler | None = None,
        name: str = "link",
        on_transmit: Callable[[Packet], None] | None = None,
    ) -> None:
        super().__init__(name)
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        if delay < 0:
            raise ValueError("propagation delay cannot be negative")
        self.loop = loop
        self.rate_bps = rate_bps
        self.delay = delay
        # `is not None`, not truthiness: an empty queue is falsy via __len__.
        self.scheduler: Scheduler = (
            scheduler if scheduler is not None else DropTailQueue()
        )
        self.on_transmit = on_transmit
        self._busy = False
        self.transmitted_packets = 0
        self.transmitted_bytes = 0
        # Closure-free hot path: the serializing packet and the
        # propagation FIFO are instance state, so every scheduled event
        # is a reusable bound method instead of a per-packet lambda.
        self._in_flight: Packet | None = None
        self._propagating: deque[Packet] = deque()

    def set_rate(self, rate_bps: float) -> None:
        """Retarget the link rate (takes effect at the next transmission)."""
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        self.rate_bps = rate_bps

    def handle(self, packet: Packet) -> None:
        admitted = self.scheduler.enqueue(packet)
        if admitted and not self._busy:
            self._start_transmission()

    def _start_transmission(self) -> None:
        packet = self.scheduler.dequeue()
        if packet is None:
            self._busy = False
            return
        self._busy = True
        self._in_flight = packet
        serialization = packet.wire_length * 8.0 / self.rate_bps
        self.loop.schedule(serialization, self._finish_in_flight)

    def _finish_in_flight(self) -> None:
        packet = self._in_flight
        assert packet is not None
        self._in_flight = None
        self._finish(packet)

    def _finish(self, packet: Packet) -> None:
        self.transmitted_packets += 1
        self.transmitted_bytes += packet.wire_length
        packet.meta.setdefault("link_departures", {})[self.name] = self.loop.now
        if self.on_transmit is not None:
            self.on_transmit(packet)
        if self.delay > 0:
            # Propagation delay is constant, so deliveries are FIFO: one
            # shared deque + one bound-method event per packet replaces a
            # closure per packet.
            self._propagating.append(packet)
            self.loop.schedule(self.delay, self._deliver_propagated)
        else:
            self.emit(packet)
        self._start_transmission()

    def _deliver_propagated(self) -> None:
        self.emit(self._propagating.popleft())
