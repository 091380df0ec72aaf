"""A Click-style element pipeline for packet processing.

The paper's zero-rating middlebox was built on the Click modular router;
this module mirrors that composition model in miniature.  An
:class:`Element` receives packets via :meth:`Element.push` and forwards them
to its downstream element(s).  Pipelines are wired with ``a >> b >> c``.

Elements provided here are generic plumbing (sinks, counters, taps,
shapers, function adapters); protocol-aware middleboxes (cookie
matchers, DPI, NAT) subclass :class:`Element` in their own modules.
"""

from __future__ import annotations

from typing import Callable

from .events import EventLoop
from .packet import Packet
from .queues import TokenBucket

__all__ = [
    "Element",
    "Sink",
    "Counter",
    "Tap",
    "ShaperElement",
    "FunctionElement",
]


class Element:
    """Base class for packet-processing elements.

    Subclasses override :meth:`handle` and call :meth:`emit` for each packet
    they forward.  ``>>`` wires elements: ``a >> b`` makes ``b`` the
    downstream of ``a`` and returns ``b`` so chains read left-to-right.

    An element on the rx-burst path (the zero-rating middlebox, the
    cookie switch, the hardware prefilter) instead overrides :meth:`process_batch` and makes ``handle`` a burst
    of one; either way a burst must leave the element exactly as the
    same packets pushed as bursts of one would.  :class:`~repro.netsim.faults.FaultInjector` is
    the exception: it models the link, and a burst is its reordering
    window.  The hardware prefilter promises less: it steers a whole
    burst against the offload entries installed before it (see
    :meth:`repro.core.offload.HardwarePrefilter.process_batch`).
    """

    def __init__(self, name: str = "") -> None:
        self.name = name or type(self).__name__
        self.downstream: Element | None = None

    def __rshift__(self, other: "Element") -> "Element":
        self.downstream = other
        return other

    def push(self, packet: Packet) -> None:
        """Entry point: process one packet."""
        self.handle(packet)

    def handle(self, packet: Packet) -> None:  # pragma: no cover - abstract
        """Process ``packet``; default behaviour is pass-through."""
        self.emit(packet)

    def emit(self, packet: Packet) -> None:
        """Forward a packet downstream (drops silently at pipeline end)."""
        if self.downstream is not None:
            self.downstream.push(packet)

    # ------------------------------------------------------------------
    # Batched data path
    # ------------------------------------------------------------------
    def push_batch(self, packets: list[Packet]) -> None:
        """Entry point: process a batch of packets observed together.

        Drivers that collect one tick's worth of arrivals hand them to
        the pipeline in a single call; elements with a real batched
        implementation override :meth:`process_batch` and amortize their
        per-packet costs, everything else transparently degrades to the
        scalar handler.
        """
        self.process_batch(packets)

    def process_batch(self, packets: list[Packet]) -> None:
        """Process one burst; the default loops :meth:`handle`.

        A burst must leave the element (state, counters, emitted packets
        and their order) exactly as the same packets pushed as bursts of
        one would, with every packet in the burst sharing one
        observation time.  An override that makes ``handle`` call
        ``self.process_batch([packet])`` is the element's one packet
        path.
        """
        handle = self.handle
        for packet in packets:
            handle(packet)

    def emit_batch(self, packets: list[Packet]) -> None:
        """Forward a batch downstream (drops silently at pipeline end)."""
        if self.downstream is not None and packets:
            self.downstream.push_batch(packets)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class Sink(Element):
    """Terminal element that collects every packet it receives."""

    def __init__(self, name: str = "", keep: bool = True) -> None:
        super().__init__(name)
        self.keep = keep
        self.packets: list[Packet] = []
        self.count = 0
        self.bytes = 0

    def handle(self, packet: Packet) -> None:
        self.count += 1
        self.bytes += packet.wire_length
        if self.keep:
            self.packets.append(packet)

    def process_batch(self, packets: list[Packet]) -> None:
        self.count += len(packets)
        self.bytes += sum(packet.wire_length for packet in packets)
        if self.keep:
            self.packets.extend(packets)


class Counter(Element):
    """Pass-through element counting packets and bytes."""

    def __init__(self, name: str = "") -> None:
        super().__init__(name)
        self.count = 0
        self.bytes = 0

    def handle(self, packet: Packet) -> None:
        self.count += 1
        self.bytes += packet.wire_length
        self.emit(packet)

    def process_batch(self, packets: list[Packet]) -> None:
        self.count += len(packets)
        self.bytes += sum(packet.wire_length for packet in packets)
        self.emit_batch(packets)


class Tap(Element):
    """Pass-through element invoking a callback per packet (for tracing)."""

    def __init__(self, callback: Callable[[Packet], None], name: str = "") -> None:
        super().__init__(name)
        self.callback = callback

    def handle(self, packet: Packet) -> None:
        self.callback(packet)
        self.emit(packet)


class ShaperElement(Element):
    """Token-bucket shaper that delays matching packets to conform.

    Packets for which ``predicate`` is False bypass the shaper entirely —
    this is how Boost throttles non-fast-lane traffic while boosted traffic
    passes straight to the priority queue.  Held packets are released in
    order via the event loop.
    """

    def __init__(
        self,
        loop: EventLoop,
        bucket: TokenBucket,
        predicate: Callable[[Packet], bool] | None = None,
        name: str = "",
        max_backlog: int = 10_000,
    ) -> None:
        super().__init__(name)
        self.loop = loop
        self.bucket = bucket
        self.predicate = predicate or (lambda _packet: True)
        self.max_backlog = max_backlog
        self._backlog: list[Packet] = []
        self._draining = False
        self.delayed = 0
        self.dropped = 0

    def handle(self, packet: Packet) -> None:
        if not self.predicate(packet):
            self.emit(packet)
            return
        if self._backlog or not self.bucket.consume(
            packet.wire_length, self.loop.now
        ):
            if len(self._backlog) >= self.max_backlog:
                self.dropped += 1
                return
            self._backlog.append(packet)
            self.delayed += 1
            self._schedule_drain()
            return
        self.emit(packet)

    #: Floor on re-arm delay, guarding against zero-delay event storms
    #: if the bucket's arithmetic ever disagrees with itself.
    MIN_RESCHEDULE = 1e-6

    def _schedule_drain(self) -> None:
        if self._draining or not self._backlog:
            return
        head = self._backlog[0]
        delay = self.bucket.delay_until_conforming(head.wire_length, self.loop.now)
        self._draining = True
        self.loop.schedule(max(delay, self.MIN_RESCHEDULE), self._drain)

    def _drain(self) -> None:
        self._draining = False
        if not self._backlog:
            return
        head = self._backlog[0]
        if self.bucket.consume(head.wire_length, self.loop.now):
            self._backlog.pop(0)
            self.emit(head)
        self._schedule_drain()


class FunctionElement(Element):
    """Adapter turning ``fn(packet) -> Packet | None`` into an element.

    Returning None drops the packet; returning a packet forwards it (the
    function may mutate or replace it).
    """

    def __init__(
        self, fn: Callable[[Packet], Packet | None], name: str = ""
    ) -> None:
        super().__init__(name)
        self.fn = fn

    def handle(self, packet: Packet) -> None:
        result = self.fn(packet)
        if result is not None:
            self.emit(result)
