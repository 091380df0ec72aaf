"""Flow identification and tracking.

A flow's key is the NIC's stamp (:func:`~repro.netsim.packet.stamp`): the
flat ``(ip, port, ip, port, proto)`` with the lower endpoint first, so both
directions of a conversation share one key and per-flow state (cookie
service bindings, byte counters) covers the reverse path, as the paper's
Boost daemon does when it adds "this and the reverse flow to the fast
lane".  Every box keys its flows by it and stamps an unstamped packet on
read.  A packet's direction is its source endpoint ``(ip, port)``,
compared with an endpoint the box stored, so no second key is built.

:class:`FlowTable` tracks live flows and bounds itself as the zero-rating
middlebox bounds its table: idle flows age out and at most
:data:`MAX_FLOWS` are held.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from .packet import Packet, stamp

__all__ = ["Flow", "FlowTable", "MAX_FLOWS"]

#: The most flows one table holds; a new flow beyond it evicts the least
#: recently seen.
MAX_FLOWS = 100_000


@dataclass(slots=True)
class Flow:
    """Per-flow state tracked by a :class:`FlowTable`.

    ``key`` is the flow's stamp and ``initiator`` the source endpoint
    ``(ip, port)`` of its first packet, which sets what ``packets_forward``
    and ``packets_reverse`` count.  ``service`` holds whatever binding a
    middlebox installed for this flow (e.g. a matched cookie descriptor,
    or a QoS class); ``packets`` and ``bytes`` count both directions.
    Slots-backed: a loaded middlebox tracks tens of thousands of these.
    """

    key: tuple
    initiator: tuple
    first_seen: float
    last_seen: float
    packets: int = 0
    bytes: int = 0
    packets_forward: int = 0
    packets_reverse: int = 0
    service: Any = None
    annotations: dict[str, Any] = field(default_factory=dict)

    def touch(self, packet: Packet, now: float) -> None:
        """Update counters for a packet belonging to this flow."""
        self.last_seen = now
        self.packets += 1
        self.bytes += packet.wire_length
        if (packet.ip.src, packet.l4.src_port) == self.initiator:
            self.packets_forward += 1
        else:
            self.packets_reverse += 1


def _key(packet: Packet) -> tuple:
    key = packet.flow_key or stamp(packet)
    if key is None:
        raise ValueError("packet lacks IP or transport header")
    return key


class FlowTable:
    """Bidirectional flow tracker, bounded in recency order.

    The table is keyed on the packet's stamp, stamping an unstamped
    packet on read, and is kept least recently seen first.  A flow idle
    for longer than ``idle_timeout`` is gone: a packet of it starts a new
    flow, and a new flow first evicts the idle flows at the old end, then
    the least recently seen while the table holds :data:`MAX_FLOWS`.  A
    packet without an IP or transport header has no flow: :meth:`observe`
    raises ``ValueError`` for it.
    """

    def __init__(self, idle_timeout: float = 60.0) -> None:
        if idle_timeout <= 0:
            raise ValueError("idle_timeout must be positive")
        self.idle_timeout = idle_timeout
        self._flows: dict[tuple, Flow] = {}
        self.evicted_count = 0

    def __len__(self) -> int:
        return len(self._flows)

    def __iter__(self) -> Iterator[Flow]:
        return iter(self._flows.values())

    def observe(self, packet: Packet, now: float) -> tuple[Flow, bool]:
        """Record a packet; returns ``(flow, is_new)``."""
        key = _key(packet)
        flows = self._flows
        idle = self.idle_timeout
        flow = flows.pop(key, None)
        if flow is not None and now - flow.last_seen > idle:
            self.evicted_count += 1
            flow = None
        elif flow is None:
            while flows and now - next(iter(flows.values())).last_seen > idle:
                del flows[next(iter(flows))]
                self.evicted_count += 1
            while len(flows) >= MAX_FLOWS:
                del flows[next(iter(flows))]
                self.evicted_count += 1
        is_new = flow is None
        if is_new:
            flow = Flow(
                key=key,
                initiator=(packet.ip.src, packet.l4.src_port),
                first_seen=now,
                last_seen=now,
            )
        flows[key] = flow
        flow.touch(packet, now)
        return flow, is_new
