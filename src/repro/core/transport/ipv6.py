"""IPv6 extension-header carrier.

A network-layer carrier: the 48-byte binary cookie rides in a
Destination-Options extension header.  Because the cookie is then contained
in a single packet at a fixed place, this is the carrier the paper's
"packet-based cookies" optimisation builds on — no flow reassembly is
needed and hardware can find it cheaply.
"""

from __future__ import annotations

from typing import Sequence

from ...netsim.headers import IPv6ExtensionHeader, IPv6Header
from ...netsim.packet import Packet
from ..cookie import COOKIE_WIRE_BYTES, Cookie
from ..errors import MalformedCookie, TransportError
from .base import CookieCarrier

__all__ = ["Ipv6ExtensionCarrier", "COOKIE_OPTION_TYPE"]

# Option types with the two high bits 00 are "skip if unrecognized",
# which is exactly the fail-open behaviour cookies want from routers
# that do not speak the protocol.
COOKIE_OPTION_TYPE = 0x1E


def _extension_cookie(extension: IPv6ExtensionHeader) -> Cookie | None:
    """The cookie in one extension header, or None if not ours / garbled."""
    if extension.option_type != COOKIE_OPTION_TYPE:
        return None
    try:
        return Cookie.from_bytes(extension.data)
    except MalformedCookie:
        return None


class Ipv6ExtensionCarrier(CookieCarrier):
    """Carries the binary cookie in an IPv6 Destination-Options header."""

    name = "ipv6"
    # 4 bytes of option framing + 48-byte cookie, rounded to 8-byte words.
    overhead_bytes = ((4 + COOKIE_WIRE_BYTES + 7) // 8) * 8

    def can_carry(self, packet: Packet) -> bool:
        return isinstance(packet.ip, IPv6Header)

    def attach(self, packet: Packet, cookie: Cookie) -> None:
        if not self.can_carry(packet):
            raise TransportError("packet has no IPv6 header")
        header: IPv6Header = packet.ip  # type: ignore[assignment]
        extension = IPv6ExtensionHeader(
            next_header=header.next_header,
            option_type=COOKIE_OPTION_TYPE,
            data=cookie.to_bytes(),
        )
        header.extensions.append(extension)
        packet.flow_key = packet.pkt_len = None

    def extract(self, packet: Packet) -> Sequence[Cookie]:
        """Every cookie extension header (extension chains compose)."""
        header = packet.ip
        if not isinstance(header, IPv6Header):
            return ()
        found: Sequence[Cookie] = ()
        for extension in header.extensions:
            cookie = _extension_cookie(extension)
            if cookie is not None:
                found = [*found, cookie]
        return found
