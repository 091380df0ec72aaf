"""Carrier registry: pick the right transport per packet.

User agents call :meth:`TransportRegistry.attach` to embed a cookie using
the first carrier that (a) the descriptor's ``transports`` attribute
allows and (b) fits the packet.  Cookies are read back in one of two
ways: the zero-rating boxes call :meth:`extract`, which stops at the
first carrier that holds any; the switch, the prefilter and the user
agent's ack check call :meth:`extract_all`, which reads every carrier.
Both return bare cookies, in registry order, then attach order.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ...netsim.packet import Packet
from ..cookie import Cookie
from ..errors import TransportError
from .base import CookieCarrier
from .http import HttpHeaderCarrier
from .ipv6 import Ipv6ExtensionCarrier
from .tcpopt import TcpOptionCarrier
from .tls import TlsExtensionCarrier
from .udp import UdpShimCarrier

__all__ = ["TransportRegistry", "default_registry"]


class TransportRegistry:
    """An ordered collection of cookie carriers."""

    def __init__(self, carriers: Iterable[CookieCarrier] | None = None) -> None:
        self._carriers: list[CookieCarrier] = list(carriers or [])
        names = [c.name for c in self._carriers]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate carrier names: {names}")

    @property
    def names(self) -> list[str]:
        return [c.name for c in self._carriers]

    def attach(
        self,
        packet: Packet,
        cookie: Cookie,
        allowed: Sequence[str] | None = None,
    ) -> str:
        """Embed the cookie with the first suitable carrier.

        ``allowed`` restricts candidates to the descriptor's permitted
        transports.  Returns the chosen carrier name; raises
        :class:`TransportError` if no carrier fits.
        """
        for carrier in self._carriers:
            if allowed is not None and carrier.name not in allowed:
                continue
            if carrier.can_carry(packet):
                carrier.attach(packet, cookie)
                return carrier.name
        raise TransportError(
            f"no carrier fits packet {packet.describe()} (allowed={allowed})"
        )

    def extract(self, packet: Packet) -> Sequence[Cookie]:
        """The cookies of the first carrier, in registry order, that
        holds any; empty when none does.

        Never raises: the data path scans every packet and garbled
        cookies must degrade to best-effort.  The scan stops at the
        first hit, so cookies composed on a later carrier of the same
        packet are not read (PROTOCOL §2).
        """
        for carrier in self._carriers:
            cookies = carrier.extract(packet)
            if cookies:
                return cookies
        return ()

    def extract_all(self, packet: Packet) -> list[Cookie]:
        """Every cookie on the packet, across all carriers.

        Composition support: a packet crossing two access networks may
        carry one cookie per network, each on whichever carrier its
        client picked; each network's switch scans all of them and acts
        on the ones its own store recognizes.
        """
        found: list[Cookie] = []
        for carrier in self._carriers:
            found += carrier.extract(packet)
        return found


def default_registry() -> TransportRegistry:
    """A registry with all five paper carriers.

    Application-layer carriers come first: an HTTPS request packet carries
    a ClientHello, and the TLS extension is where the Boost prototype puts
    the cookie even though the same packet also has a TCP header.
    """
    return TransportRegistry(
        [
            HttpHeaderCarrier(),
            TlsExtensionCarrier(),
            UdpShimCarrier(),
            Ipv6ExtensionCarrier(),
            TcpOptionCarrier(),
        ]
    )
