"""Network Address (and Port) Translation.

NAT is central to the paper's argument: a 5-tuple flow description captured
at the browser becomes invalid once the home router rewrites the source
address and port, which is why the out-of-band SDN baseline suffers false
positives (it can only match on the destination side).  This module models a
full-cone NAPT with explicit mapping state and both translation directions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .headers import IPv4Header
from .middlebox import Element
from .packet import Packet

__all__ = ["NatMapping", "NAT44", "NatError"]


class NatError(RuntimeError):
    """Raised when translation is impossible (e.g. port pool exhausted)."""


@dataclass(frozen=True)
class NatMapping:
    """One NAPT binding: (private ip, port) <-> (public ip, port)."""

    private_ip: str
    private_port: int
    public_ip: str
    public_port: int
    proto: int


class NAT44:
    """A full-cone NAPT shared by an outbound and an inbound element face.

    Outbound packets from private sources get their source (ip, port)
    rewritten to (``public_ip``, allocated port).  Inbound packets addressed
    to a mapped public port are rewritten back.  Inbound packets with no
    mapping are dropped, as a home router would.  NAT44 translates IPv4
    only: a packet that lacks an IPv4 or a transport header (an IPv6
    packet, say) passes either face untouched.

    Use :attr:`outbound` and :attr:`inbound` as pipeline elements::

        client >> nat.outbound >> wan_link >> internet
        internet >> nat.inbound >> lan_link >> client
    """

    def __init__(
        self,
        public_ip: str,
        port_range: tuple[int, int] = (20_000, 60_000),
    ) -> None:
        lo, hi = port_range
        if not (0 < lo < hi <= 65_535):
            raise ValueError(f"bad port range {port_range}")
        self.public_ip = public_ip
        self._next_port = lo
        self._port_range = port_range
        self._by_private: dict[tuple[str, int, int], NatMapping] = {}
        self._by_public: dict[tuple[int, int], NatMapping] = {}
        self.outbound = _NatOutbound(self)
        self.inbound = _NatInbound(self)
        self.translated_out = 0
        self.translated_in = 0
        self.dropped_inbound = 0

    def mapping_for_private(
        self, private_ip: str, private_port: int, proto: int
    ) -> NatMapping:
        """Find or create the binding for a private endpoint."""
        key = (private_ip, private_port, proto)
        mapping = self._by_private.get(key)
        if mapping is None:
            public_port = self._allocate_port(proto)
            mapping = NatMapping(
                private_ip=private_ip,
                private_port=private_port,
                public_ip=self.public_ip,
                public_port=public_port,
                proto=proto,
            )
            self._by_private[key] = mapping
            self._by_public[(public_port, proto)] = mapping
        return mapping

    def mapping_for_public(self, public_port: int, proto: int) -> NatMapping | None:
        """Look up the binding for an inbound packet, if any."""
        return self._by_public.get((public_port, proto))

    def _allocate_port(self, proto: int) -> int:
        lo, hi = self._port_range
        for _ in range(hi - lo):
            candidate = self._next_port
            self._next_port += 1
            if self._next_port >= hi:
                self._next_port = lo
            if (candidate, proto) not in self._by_public:
                return candidate
        raise NatError("NAT port pool exhausted")

    def clear(self) -> None:
        """Drop all bindings (router reboot)."""
        self._by_private.clear()
        self._by_public.clear()


class _NatOutbound(Element):
    """Private -> public face: rewrites the source endpoint."""

    def __init__(self, nat: NAT44) -> None:
        super().__init__(name="nat-out")
        self.nat = nat

    def handle(self, packet: Packet) -> None:
        if not isinstance(packet.ip, IPv4Header) or packet.l4 is None:
            self.emit(packet)
            return
        mapping = self.nat.mapping_for_private(
            packet.ip.src, packet.l4.src_port, int(packet.proto or 0)
        )
        packet.meta.setdefault("nat_original_src", (packet.ip.src, packet.l4.src_port))
        packet.ip.src = mapping.public_ip
        packet.l4.src_port = mapping.public_port
        packet.flow_key = packet.pkt_len = None
        self.nat.translated_out += 1
        self.emit(packet)


class _NatInbound(Element):
    """Public -> private face: rewrites the destination endpoint."""

    def __init__(self, nat: NAT44) -> None:
        super().__init__(name="nat-in")
        self.nat = nat

    def handle(self, packet: Packet) -> None:
        if not isinstance(packet.ip, IPv4Header) or packet.l4 is None:
            self.emit(packet)
            return
        mapping = self.nat.mapping_for_public(
            packet.l4.dst_port, int(packet.proto or 0)
        )
        if mapping is None:
            self.nat.dropped_inbound += 1
            return
        packet.ip.dst = mapping.private_ip
        packet.l4.dst_port = mapping.private_port
        packet.flow_key = packet.pkt_len = None
        self.nat.translated_in += 1
        self.emit(packet)
