"""Packet capture: a tcpdump for the simulated network.

A :class:`PacketCapture` element records a compact, immutable record per
packet that passes it — timestamps, the 5-tuple, sizes, DSCP, and any
requested ``meta`` keys — with an optional BPF-style predicate.  Callers
iterate the records, as the audit's tap and the billing experiment do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator

from .events import EventLoop
from .middlebox import Element
from .packet import Packet

__all__ = ["CaptureRecord", "PacketCapture"]


@dataclass(frozen=True)
class CaptureRecord:
    """One captured packet, reduced to its observable facts."""

    time: float
    src_ip: str | None
    src_port: int | None
    dst_ip: str | None
    dst_port: int | None
    proto: int | None
    wire_length: int
    dscp: int
    annotations: tuple[tuple[str, Any], ...] = ()

    def annotation(self, key: str, default: Any = None) -> Any:
        for name, value in self.annotations:
            if name == key:
                return value
        return default


class PacketCapture(Element):
    """Pass-through element recording every matching packet.

    ``keep_meta`` lists ``packet.meta`` keys to snapshot into each record
    (ground-truth labels, QoS classes); ``predicate`` filters what is
    recorded (everything is always forwarded).  ``max_records`` bounds
    memory; the oldest records are dropped first, and
    :attr:`records_dropped` says how many.
    """

    def __init__(
        self,
        loop: EventLoop | None = None,
        clock: Callable[[], float] | None = None,
        predicate: Callable[[Packet], bool] | None = None,
        keep_meta: tuple[str, ...] = (),
        max_records: int = 100_000,
        name: str = "capture",
    ) -> None:
        super().__init__(name)
        if max_records <= 0:
            raise ValueError("max_records must be positive")
        self.clock: Callable[[], float]
        if clock is not None:
            self.clock = clock
        elif loop is not None:
            self.clock = lambda: loop.now
        else:
            self.clock = lambda: 0.0
        self.predicate = predicate or (lambda _p: True)
        self.keep_meta = tuple(keep_meta)
        self.max_records = max_records
        self._records: list[CaptureRecord] = []
        self.records_dropped = 0

    def handle(self, packet: Packet) -> None:
        if self.predicate(packet):
            annotations = tuple(
                (key, packet.meta[key])
                for key in self.keep_meta
                if key in packet.meta
            )
            self._records.append(
                CaptureRecord(
                    time=self.clock(),
                    src_ip=packet.src_ip,
                    src_port=packet.src_port,
                    dst_ip=packet.dst_ip,
                    dst_port=packet.dst_port,
                    proto=packet.proto,
                    wire_length=packet.wire_length,
                    dscp=packet.dscp,
                    annotations=annotations,
                )
            )
            if len(self._records) > self.max_records:
                overflow = len(self._records) - self.max_records
                del self._records[:overflow]
                self.records_dropped += overflow
        self.emit(packet)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[CaptureRecord]:
        return iter(self._records)

    @property
    def records(self) -> list[CaptureRecord]:
        return list(self._records)

    def clear(self) -> None:
        self._records.clear()
