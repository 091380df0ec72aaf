"""TCP option carrier.

The binary cookie rides in an experimental TCP option (kind 253, RFC 6994
shared experiment space, with a 2-byte ExID).  A 48-byte cookie plus
framing exceeds the classic 40-byte TCP option space, which is why the
paper cites the Extended Data Offset (EDO) draft; this carrier models an
EDO-capable stack, which the sender and every middlebox on the path need.
"""

from __future__ import annotations

import struct
from typing import Sequence

from ...netsim.headers import TCPHeader, TCPOption
from ...netsim.packet import Packet
from ..cookie import COOKIE_WIRE_BYTES, Cookie
from ..errors import MalformedCookie, TransportError
from .base import CookieCarrier

__all__ = ["TcpOptionCarrier", "COOKIE_OPTION_KIND", "COOKIE_EXID"]

COOKIE_OPTION_KIND = 253
COOKIE_EXID = 0x4E43  # "NC"


_EXID_PREFIX = struct.pack("!H", COOKIE_EXID)


def _option_cookie(option: TCPOption) -> Cookie | None:
    """The cookie in one TCP option, or None if it is not ours / garbled."""
    data = option.data
    if option.kind != COOKIE_OPTION_KIND or data[:2] != _EXID_PREFIX:
        return None
    try:
        return Cookie.from_bytes(data[2:])
    except MalformedCookie:
        return None


class TcpOptionCarrier(CookieCarrier):
    """Carries the binary cookie in an experimental TCP option."""

    name = "tcp"
    # kind (1) + length (1) + ExID (2) + cookie
    overhead_bytes = 4 + COOKIE_WIRE_BYTES

    def can_carry(self, packet: Packet) -> bool:
        return isinstance(packet.l4, TCPHeader)

    def attach(self, packet: Packet, cookie: Cookie) -> None:
        if not self.can_carry(packet):
            raise TransportError("packet has no TCP header")
        tcp: TCPHeader = packet.l4  # type: ignore[assignment]
        data = _EXID_PREFIX + cookie.to_bytes()
        tcp.options.append(TCPOption(kind=COOKIE_OPTION_KIND, data=data))
        packet.flow_key = packet.pkt_len = None

    def extract(self, packet: Packet) -> Sequence[Cookie]:
        """Every cookie option (TCP options repeat naturally, so composed
        cookies are simply additional options)."""
        tcp = packet.l4
        if not isinstance(tcp, TCPHeader):
            return ()
        found: Sequence[Cookie] = ()
        for option in tcp.options:
            cookie = _option_cookie(option)
            if cookie is not None:
                found = [*found, cookie]
        return found
