"""Carrier interface for moving cookies in-band with traffic.

The paper deliberately supports several carriers — "a special HTTP header,
a TLS-handshake extension, an IPv6 extension header" and TCP long options —
so the right layer can be picked per application and network service.  Each
carrier implements this small interface; the registry composes them.

Cookies are composable — "users can combine multiple services
(potentially by different networks) by composing multiple cookies
together" — so a carrier may hold several, and :meth:`CookieCarrier.extract`
reads them all, in the order they were attached.
"""

from __future__ import annotations

import abc
from typing import Sequence

from ...netsim.packet import Packet
from ..cookie import Cookie
from ..errors import MalformedCookie

__all__ = ["CookieCarrier"]


class CookieCarrier(abc.ABC):
    """One way of carrying a cookie inside a packet.

    Implementations must be symmetric: ``extract`` recovers exactly the
    cookies prior ``attach`` calls embedded, and returns an empty
    sequence (never raises) when scanning a packet that carries nothing —
    the data path scans every packet.
    """

    #: Registry key, also referenced by descriptor ``transports`` attributes.
    name: str = "abstract"

    #: Wire bytes the first cookie attached to a packet adds on this
    #: carrier.  ``attach`` grows the packet by what it writes, so a
    #: composed cookie sharing a text carrier's one extension or header
    #: costs less.
    overhead_bytes: int = 0

    @abc.abstractmethod
    def can_carry(self, packet: Packet) -> bool:
        """Whether this packet has the right shape for this carrier."""

    @abc.abstractmethod
    def attach(self, packet: Packet, cookie: Cookie) -> None:
        """Embed the cookie; raises TransportError if the packet cannot
        carry it (callers should check :meth:`can_carry` first)."""

    @abc.abstractmethod
    def extract(self, packet: Packet) -> Sequence[Cookie]:
        """Every cookie this carrier holds in the packet, in order.

        A packet with none yields the empty tuple, which allocates
        nothing.  Malformed cookie bytes are skipped: on the data path a
        garbled cookie must degrade to best-effort, not take down the
        middlebox.
        """

    def __repr__(self) -> str:
        return f"<carrier {self.name}>"


def comma_cookies(value: str | bytes) -> list[Cookie]:
    """The cookies in a comma-joined base64 text value (HTTP list-header
    style), garbled items skipped.

    The text carriers parse a value whole first, since one cookie is the
    common case; a comma-joined or padded list is not valid base64 and
    comes here.
    """
    if isinstance(value, bytes):
        try:
            value = value.decode("ascii")
        except UnicodeDecodeError:
            return []
    cookies = []
    for item in value.split(","):
        try:
            cookies.append(Cookie.from_text(item.strip()))
        except MalformedCookie:
            continue
    return cookies
