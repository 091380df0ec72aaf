"""TLS ClientHello extension carrier.

For HTTPS traffic the cookie rides in a custom extension of the TLS
ClientHello — the one handshake message a middlebox can still read.  The
Boost prototype "had to modify Chrome's SSL/TLS library" (BoringSSL) to add
this; here the extension is a private-range extension type carrying the
base64 text form, mirroring the paper's encoding choice.
"""

from __future__ import annotations

from typing import Sequence

from ...netsim.appmsg import TLSClientHello
from ...netsim.packet import Packet
from ..cookie import COOKIE_WIRE_BYTES, Cookie
from ..errors import MalformedCookie, TransportError
from .base import CookieCarrier, comma_cookies

__all__ = ["TlsExtensionCarrier", "COOKIE_EXTENSION_TYPE"]

# IANA marks 0xFF00..0xFFFF "reserved for private use".
COOKIE_EXTENSION_TYPE = 0xFFCE


class TlsExtensionCarrier(CookieCarrier):
    """Carries the cookie in a private TLS ClientHello extension."""

    name = "tls"
    # The first cookie: extension type (2) + length (2) + base64 payload.
    overhead_bytes = 4 + ((COOKIE_WIRE_BYTES + 2) // 3) * 4

    def can_carry(self, packet: Packet) -> bool:
        return isinstance(packet.payload.content, TLSClientHello)

    def attach(self, packet: Packet, cookie: Cookie) -> None:
        """Attach a cookie; TLS forbids repeated extension types, so
        composed cookies share one extension as a comma-joined list."""
        if not self.can_carry(packet):
            raise TransportError("packet does not carry a TLS ClientHello")
        hello: TLSClientHello = packet.payload.content
        before = hello.wire_size()
        existing = hello.extensions.get(COOKIE_EXTENSION_TYPE)
        text = cookie.to_text().encode("ascii")
        if existing is not None:
            text = existing + b"," + text
        hello.extensions[COOKIE_EXTENSION_TYPE] = text
        # The bytes written: a composed cookie adds its text and a comma
        # to the shared extension, not a second extension header.
        packet.payload.size += hello.wire_size() - before
        packet.flow_key = packet.pkt_len = None

    def extract(self, packet: Packet) -> Sequence[Cookie]:
        hello = packet.payload.content
        if not isinstance(hello, TLSClientHello):
            return ()
        data = hello.extensions.get(COOKIE_EXTENSION_TYPE)
        if data is None:
            return ()
        try:
            # One cookie, the common case: the extension bytes are its
            # base64 text.
            return [Cookie.from_text(data)]
        except MalformedCookie:
            return comma_cookies(data)
