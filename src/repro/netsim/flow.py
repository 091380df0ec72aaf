"""Flow identification and tracking.

A flow's key is the NIC's stamp (:func:`~repro.netsim.packet.stamp`): the
flat ``(ip, port, ip, port, proto)`` with the lower endpoint first, so both
directions of a conversation share one key and per-flow state (cookie
service bindings, byte counters) covers the reverse path, as the paper's
Boost daemon does when it adds "this and the reverse flow to the fast
lane".  Every box keys its flows by it and stamps an unstamped packet on
read.  A packet's direction is its source endpoint ``(ip, port)``,
compared with an endpoint the box stored, so no second key is built.

:class:`FlowTable` tracks live flows with idle-timeout eviction, mirroring
the state a middlebox must bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from .packet import Packet, stamp

__all__ = ["Flow", "FlowTable"]


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

    @property
    def idle_for(self) -> float:
        return self.last_seen - self.first_seen


def _key(packet: Packet) -> tuple:
    key = packet.flow_key or stamp(packet)
    if key is None:
        raise ValueError("packet lacks IP or transport header")
    return key


class FlowTable:
    """Bidirectional flow tracker with idle-timeout eviction.

    The table is keyed on the packet's stamp, stamping an unstamped
    packet on read.  ``idle_timeout`` bounds state: flows not seen for
    that long are evicted lazily on access and eagerly via
    :meth:`expire`.  A packet without an IP or transport header has no
    flow: :meth:`lookup`, :meth:`observe` and :meth:`remove` raise
    ``ValueError`` for it.
    """

    def __init__(
        self,
        idle_timeout: float = 60.0,
        on_evict: Callable[[Flow], None] | None = None,
    ) -> None:
        if idle_timeout <= 0:
            raise ValueError("idle_timeout must be positive")
        self.idle_timeout = idle_timeout
        self._flows: dict[tuple, Flow] = {}
        self._on_evict = on_evict
        self.evicted_count = 0

    def __len__(self) -> int:
        return len(self._flows)

    def __iter__(self) -> Iterator[Flow]:
        return iter(self._flows.values())

    def lookup(self, packet: Packet) -> Flow | None:
        """Find the flow a packet belongs to, or None if untracked."""
        return self._flows.get(_key(packet))

    def observe(self, packet: Packet, now: float) -> tuple[Flow, bool]:
        """Record a packet; returns ``(flow, is_new)``.

        A flow whose idle timeout has elapsed is treated as expired and
        replaced by a fresh flow record (the middlebox would have lost its
        state, so a new flow is what it would genuinely see).
        """
        key = _key(packet)
        flow = self._flows.get(key)
        is_new = False
        if flow is not None and now - flow.last_seen > self.idle_timeout:
            self._evict(key, flow)
            flow = None
        if flow is None:
            flow = Flow(
                key=key,
                initiator=(packet.ip.src, packet.l4.src_port),
                first_seen=now,
                last_seen=now,
            )
            self._flows[key] = flow
            is_new = True
        flow.touch(packet, now)
        return flow, is_new

    def expire(self, now: float) -> int:
        """Evict all flows idle past the timeout; returns eviction count."""
        stale = [
            key
            for key, flow in self._flows.items()
            if now - flow.last_seen > self.idle_timeout
        ]
        for key in stale:
            self._evict(key, self._flows[key])
        return len(stale)

    def remove(self, packet: Packet) -> Flow | None:
        """Explicitly remove the flow a packet belongs to (e.g. on FIN)."""
        return self._flows.pop(_key(packet), None)

    def _evict(self, key: tuple, flow: Flow) -> None:
        del self._flows[key]
        self.evicted_count += 1
        if self._on_evict is not None:
            self._on_evict(flow)
