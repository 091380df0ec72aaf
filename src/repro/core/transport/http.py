"""HTTP header carrier.

For unencrypted traffic the cookie rides in a dedicated request header as
base64 text, exactly as the Boost prototype does ("We insert cookies as a
special HTTP header for unencrypted traffic").
"""

from __future__ import annotations

from typing import Sequence

from ...netsim.appmsg import HTTPRequest
from ...netsim.packet import Packet
from ..cookie import COOKIE_WIRE_BYTES, Cookie
from ..errors import MalformedCookie, TransportError
from .base import CookieCarrier, comma_cookies

__all__ = ["HttpHeaderCarrier", "COOKIE_HEADER"]

COOKIE_HEADER = "X-Network-Cookie"


class HttpHeaderCarrier(CookieCarrier):
    """Carries the cookie in the ``X-Network-Cookie`` request header."""

    name = "http"
    # The first cookie: header name + ": " + base64(48 bytes) + CRLF.
    overhead_bytes = len(COOKIE_HEADER) + 2 + ((COOKIE_WIRE_BYTES + 2) // 3) * 4 + 2

    def can_carry(self, packet: Packet) -> bool:
        return (
            isinstance(packet.payload.content, HTTPRequest)
            and not packet.payload.encrypted
        )

    def attach(self, packet: Packet, cookie: Cookie) -> None:
        """Attach a cookie; composes with any already present (the header
        value becomes a comma-separated list, HTTP list-header style)."""
        if not self.can_carry(packet):
            raise TransportError("packet does not carry a plaintext HTTP request")
        request: HTTPRequest = packet.payload.content
        before = request.wire_size()
        existing = request.header(COOKIE_HEADER)
        value = cookie.to_text() if existing is None else f"{existing},{cookie.to_text()}"
        request.set_header(COOKIE_HEADER, value)
        # The bytes written: a composed cookie extends the one header.
        packet.payload.size += request.wire_size() - before
        packet.flow_key = packet.pkt_len = None

    def extract(self, packet: Packet) -> Sequence[Cookie]:
        payload = packet.payload
        request = payload.content
        if not isinstance(request, HTTPRequest) or payload.encrypted:
            return ()
        text = request.header(COOKIE_HEADER)
        if text is None:
            return ()
        try:
            return [Cookie.from_text(text)]
        except MalformedCookie:
            return comma_cookies(text)
