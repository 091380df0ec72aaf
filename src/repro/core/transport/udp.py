"""Custom UDP framing carrier (the QUIC-integration stand-in).

For UDP traffic the cookie rides in a small shim between the UDP header and
the application payload: a 4-byte magic, the 48-byte binary cookie, then
the original content.  Like the IPv6 carrier this keeps the whole cookie in
one packet, enabling the paper's stateless "packet-based cookies" mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ...netsim.headers import UDPHeader
from ...netsim.packet import Packet
from ..cookie import COOKIE_WIRE_BYTES, Cookie
from ..errors import MalformedCookie, TransportError
from .base import CookieCarrier

__all__ = ["UdpShimCarrier", "CookieShim", "SHIM_MAGIC"]

SHIM_MAGIC = b"NCK1"


@dataclass
class CookieShim:
    """Wrapper placed in ``payload.content`` holding the cookie bytes and
    the original application content."""

    cookie_bytes: bytes
    inner: Any = None


class UdpShimCarrier(CookieCarrier):
    """Carries the binary cookie in a shim ahead of the UDP payload."""

    name = "udp"
    overhead_bytes = len(SHIM_MAGIC) + COOKIE_WIRE_BYTES

    def can_carry(self, packet: Packet) -> bool:
        return isinstance(packet.l4, UDPHeader) and not isinstance(
            packet.payload.content, CookieShim
        )

    def attach(self, packet: Packet, cookie: Cookie) -> None:
        if not isinstance(packet.l4, UDPHeader):
            raise TransportError("packet has no UDP header")
        if isinstance(packet.payload.content, CookieShim):
            raise TransportError("packet already carries a UDP cookie shim")
        packet.payload.content = CookieShim(
            cookie_bytes=cookie.to_bytes(), inner=packet.payload.content
        )
        packet.payload.size += self.overhead_bytes
        packet.l4.length += self.overhead_bytes
        packet.flow_key = packet.pkt_len = None

    def extract(self, packet: Packet) -> Sequence[Cookie]:
        if not isinstance(packet.l4, UDPHeader):
            return ()
        content = packet.payload.content
        if not isinstance(content, CookieShim):
            return ()
        try:
            return [Cookie.from_bytes(content.cookie_bytes)]
        except MalformedCookie:
            return ()
