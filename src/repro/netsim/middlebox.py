"""A Click-style element pipeline for packet processing.

The paper's zero-rating middlebox was built on the Click modular router;
this module mirrors that composition model in miniature.  An
:class:`Element` receives packets via :meth:`Element.push` and forwards them
to its downstream element(s).  Pipelines are wired with ``a >> b >> c``.

Elements provided here are generic plumbing (counters, taps, filters,
shapers); protocol-aware middleboxes (cookie matchers, DPI, NAT) subclass
:class:`Element` in their own modules.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .events import EventLoop
from .packet import Packet
from .queues import TokenBucket

__all__ = [
    "Element",
    "Pipeline",
    "Sink",
    "Counter",
    "Tap",
    "Filter",
    "Classifier",
    "ShaperElement",
    "FunctionElement",
    "BatchDriver",
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


class Pipeline:
    """Convenience wrapper holding the head of an element chain."""

    def __init__(self, *elements: Element) -> None:
        if not elements:
            raise ValueError("pipeline needs at least one element")
        self.elements = list(elements)
        for upstream, downstream in zip(elements, elements[1:]):
            upstream >> downstream

    @property
    def head(self) -> Element:
        return self.elements[0]

    @property
    def tail(self) -> Element:
        return self.elements[-1]

    def push(self, packet: Packet) -> None:
        self.head.push(packet)

    def push_batch(self, packets: list[Packet]) -> None:
        """Feed one batch into the head element's batched fast path."""
        self.head.push_batch(packets)


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


class Filter(Element):
    """Forwards only packets matching ``predicate``; counts the rest."""

    def __init__(
        self, predicate: Callable[[Packet], bool], name: str = ""
    ) -> None:
        super().__init__(name)
        self.predicate = predicate
        self.passed = 0
        self.filtered = 0

    def handle(self, packet: Packet) -> None:
        if self.predicate(packet):
            self.passed += 1
            self.emit(packet)
        else:
            self.filtered += 1

    def process_batch(self, packets: list[Packet]) -> None:
        predicate = self.predicate
        passed = [packet for packet in packets if predicate(packet)]
        self.passed += len(passed)
        self.filtered += len(packets) - len(passed)
        self.emit_batch(passed)


class Classifier(Element):
    """Routes packets to one of several named outputs.

    ``classify`` returns an output name; unmatched packets go to the
    ``default`` output.  Outputs are attached with :meth:`connect`.
    """

    def __init__(
        self,
        classify: Callable[[Packet], str | None],
        default: str = "default",
        name: str = "",
    ) -> None:
        super().__init__(name)
        self.classify = classify
        self.default = default
        self.outputs: dict[str, Element] = {}

    def connect(self, output: str, element: Element) -> Element:
        self.outputs[output] = element
        return element

    def handle(self, packet: Packet) -> None:
        key = self.classify(packet)
        target = self.outputs.get(key if key is not None else self.default)
        if target is None:
            target = self.outputs.get(self.default)
        if target is not None:
            target.push(packet)


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


class BatchDriver:
    """Feeds a packet source into an element in per-tick batches.

    Real line cards hand software a *vector* of packets per poll (DPDK's
    rx burst); this driver reproduces that arrival model inside the event
    loop: every ``tick`` seconds it pulls up to ``batch_size`` packets
    from ``source`` and delivers them with one :meth:`Element.push_batch`
    call, so downstream batched elements see genuine per-tick bursts.
    ``source`` is any packet iterable/iterator; the driver stops (and
    records :attr:`done`) when it is exhausted.  ``on_done``, if given,
    fires exactly once at that point, after the final (possibly partial)
    batch was pushed — the hook a harness uses to collect a verifier
    pool's telemetry or shut the pool down when the offered stream
    drains.
    """

    def __init__(
        self,
        loop: EventLoop,
        source: Iterable[Packet],
        target: Element,
        batch_size: int = 64,
        tick: float = 0.001,
        on_done: Callable[[], None] | None = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if tick <= 0:
            raise ValueError("tick must be positive")
        self.loop = loop
        self.source = iter(source)
        self.target = target
        self.batch_size = batch_size
        self.tick = tick
        self.on_done = on_done
        self.batches_fed = 0
        self.packets_fed = 0
        self.done = False

    def start(self) -> "BatchDriver":
        """Schedule the first tick; returns self for chaining."""
        self.loop.schedule(0.0, self._tick)
        return self

    def _tick(self) -> None:
        batch: list[Packet] = []
        source = self.source
        for _ in range(self.batch_size):
            try:
                batch.append(next(source))
            except StopIteration:
                self.done = True
                break
        if batch:
            self.batches_fed += 1
            self.packets_fed += len(batch)
            self.target.push_batch(batch)
        if not self.done:
            self.loop.schedule(self.tick, self._tick)
        elif self.on_done is not None:
            callback, self.on_done = self.on_done, None
            callback()
