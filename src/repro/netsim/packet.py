"""The :class:`Packet` type that flows through the simulated network.

A packet is a stack of headers (Ethernet, IPv4/IPv6, TCP/UDP) plus an opaque
application payload.  Application payloads are modelled as a
:class:`Payload` object carrying a nominal byte size and optional structured
content (e.g. an HTTP request with headers, or a TLS ClientHello) so that
middleboxes can inspect what a real middlebox could see on the wire, and
*only* that.

:func:`stamp` is the NIC model: what a DPDK NIC hands software with each
rx mbuf (its ``pkt_len`` and a 5-tuple hash), stored on the packet so a
middlebox reads it instead of re-parsing headers.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from typing import Any

from .headers import (
    DSCP_MAX,
    EthernetHeader,
    HeaderError,
    IPProto,
    IPv4Header,
    IPv6Header,
    TCPHeader,
    UDPHeader,
)

__all__ = ["Payload", "Packet", "make_tcp_packet", "make_udp_packet", "stamp"]

_packet_ids = itertools.count(1)


@dataclass(slots=True)
class Payload:
    """Application payload with a nominal size and optional content.

    ``content`` holds a structured application message (for example an
    :class:`repro.web.page.HTTPRequest` or a TLS record model).  ``size`` is
    the number of wire bytes the payload occupies, which may exceed the size
    of the structured content (e.g. a 1400-byte data segment whose content we
    do not model byte-for-byte).
    """

    size: int = 0
    content: Any = None
    encrypted: bool = False

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("payload size cannot be negative")


@dataclass(slots=True)
class Packet:
    """A simulated packet: header stack + payload + bookkeeping metadata.

    ``meta`` carries simulation-only annotations (ground-truth labels such as
    which page-load produced the packet). Middleboxes under test must never
    read ``meta`` to make decisions — it exists so benchmarks can score
    accuracy against ground truth.

    The class is ``__slots__``-backed: packets are the highest-volume
    allocation in any simulation, and slots shave both per-instance memory
    and attribute-access time on the forwarding hot path.  Simulation-only
    annotations belong in ``meta``, never as ad-hoc attributes.

    ``flow_key`` and ``pkt_len`` are the NIC's stamp (:func:`stamp`):
    the direction-free flow key and the wire length, or ``None`` on a
    packet no NIC has seen.  They are derived from the headers, so
    equality and ``repr`` ignore them, and whatever rewrites an address,
    a port or a size must clear both (``packet.flow_key =
    packet.pkt_len = None``).  :meth:`clone` keeps them.
    """

    eth: EthernetHeader | None = None
    ip: IPv4Header | IPv6Header | None = None
    l4: TCPHeader | UDPHeader | None = None
    payload: Payload = field(default_factory=Payload)
    created_at: float = 0.0
    meta: dict[str, Any] = field(default_factory=dict)
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    flow_key: tuple | None = field(default=None, compare=False, repr=False)
    pkt_len: int | None = field(default=None, compare=False, repr=False)

    @property
    def wire_length(self) -> int:
        """Total bytes this packet occupies on the wire (the stamped
        ``pkt_len`` when a NIC has stamped it)."""
        total = self.pkt_len
        if total is None:
            total = _wire_length(self)
        return total

    @property
    def is_tcp(self) -> bool:
        return isinstance(self.l4, TCPHeader)

    @property
    def src_ip(self) -> str | None:
        return self.ip.src if self.ip is not None else None

    @property
    def dst_ip(self) -> str | None:
        return self.ip.dst if self.ip is not None else None

    @property
    def src_port(self) -> int | None:
        return self.l4.src_port if self.l4 is not None else None

    @property
    def dst_port(self) -> int | None:
        return self.l4.dst_port if self.l4 is not None else None

    @property
    def proto(self) -> int | None:
        if self.l4 is None:
            return None
        return IPProto.TCP if self.is_tcp else IPProto.UDP

    @property
    def dscp(self) -> int:
        return self.ip.dscp if self.ip is not None else 0

    def set_dscp(self, value: int) -> None:
        """Set the DSCP bits on the IP header (raises if there is none)."""
        if self.ip is None:
            raise ValueError("packet has no IP header")
        self.ip.dscp = value

    def clone(self) -> "Packet":
        """Deep-copy the packet with a fresh packet id.

        Used by multicast-style delivery and by middleboxes that mirror
        traffic; header objects are copied so mutation of the clone does not
        affect the original.  The clone keeps the NIC's stamp, key tuple
        and all: its headers are equal.
        """
        new = copy.deepcopy(self)
        new.packet_id = next(_packet_ids)
        return new

    def describe(self) -> str:
        """One-line human-readable summary, used by debug logging."""
        if self.ip is None or self.l4 is None:
            return f"<pkt #{self.packet_id} len={self.wire_length}>"
        proto = "TCP" if self.is_tcp else "UDP"
        return (
            f"<pkt #{self.packet_id} {proto} "
            f"{self.src_ip}:{self.src_port} -> {self.dst_ip}:{self.dst_port} "
            f"len={self.wire_length} dscp={self.dscp}>"
        )


_ETH_LEN = EthernetHeader.WIRE_LENGTH
_IPV4_LEN = IPv4Header.WIRE_LENGTH
_TCP_LEN = TCPHeader.BASE_WIRE_LENGTH
_UDP_LEN = UDPHeader.WIRE_LENGTH


def _wire_length(packet: Packet) -> int:
    """The wire length off the headers, in constant arithmetic: header
    types fix most sizes, and only TCP options and IPv6 extension
    headers ask the header for its own."""
    ip = packet.ip
    l4 = packet.l4
    length = packet.payload.size
    if packet.eth is not None:
        length += _ETH_LEN
    if type(ip) is IPv4Header:
        length += _IPV4_LEN
    elif ip is not None:
        length += ip.wire_length
    if type(l4) is TCPHeader:
        length += l4.wire_length if l4.options else _TCP_LEN
    elif type(l4) is UDPHeader:
        length += _UDP_LEN
    elif l4 is not None:
        length += l4.wire_length
    return length


def stamp(packet: Packet) -> tuple | None:
    """The NIC model: store ``packet``'s flow key and wire length on it,
    and return the key.

    The key is the flat ``(ip, port, ip, port, proto)`` with the lower
    endpoint first, so both directions of a conversation share it; it is
    the simulator's one flow key (:mod:`repro.netsim.flow`).  A packet
    without an IP or transport header has none.  The protocol is the
    transport header's, as :attr:`Packet.proto` has it.  The length is
    :attr:`Packet.wire_length`'s.  A generator that stamps a whole flow
    stamps one packet and hands its key to the rest, so a middlebox can
    tell a run of one flow by identity alone.
    """
    packet.pkt_len = _wire_length(packet)
    ip = packet.ip
    l4 = packet.l4
    if ip is None or l4 is None:
        packet.flow_key = None
        return None
    # The transport header's type, as :attr:`Packet.proto` reads it.
    proto = _TCP if isinstance(l4, TCPHeader) else _UDP
    src = ip.src
    dst = ip.dst
    sport = l4.src_port
    dport = l4.dst_port
    # One flat tuple: a nested key is three objects per flow for the
    # cyclic collector to track.
    if src < dst or (src == dst and sport <= dport):
        key = (src, sport, dst, dport, proto)
    else:
        key = (dst, dport, src, sport, proto)
    packet.flow_key = key
    return key


# The two constructors below build the generator's packets, so they skip
# the generated ``__init__`` / ``__post_init__`` and store each slot
# directly (the idiom of ``CookieDescriptor.create``).  The result equals
# what the dataclass constructors build, field for field, with the same
# checks raising the same errors: a DSCP outside 0..63 (``HeaderError``)
# and a negative payload (``ValueError``); ``packet_id`` is drawn only once
# both pass.  Like the dataclass path they leave the packet unstamped.
# The optional parameters are not keyword-only: CPython 3.11 fills a
# missing keyword-only default with a dict lookup per parameter and a
# positional default by index, ~8 % of a ``make_tcp_packet`` call.
# ``tests/netsim/test_packet_constructors.py`` pins the equality, so a
# field added to a header must be added here too.
_new = object.__new__
_TCP = IPProto.TCP
_UDP = IPProto.UDP
_TCP_HEADERS = IPv4Header.WIRE_LENGTH + TCPHeader.BASE_WIRE_LENGTH
_UDP_HEADERS = IPv4Header.WIRE_LENGTH + UDPHeader.WIRE_LENGTH


def make_tcp_packet(
    src_ip: str,
    src_port: int,
    dst_ip: str,
    dst_port: int,
    payload_size: int = 0,
    content: Any = None,
    flags: int = 0,
    seq: int = 0,
    ack: int = 0,
    encrypted: bool = False,
    dscp: int = 0,
    created_at: float = 0.0,
) -> Packet:
    """Convenience constructor for a TCP/IPv4 packet."""
    if not 0 <= dscp <= DSCP_MAX:
        raise HeaderError(f"DSCP {dscp} out of range 0..{DSCP_MAX}")
    if payload_size < 0:
        raise ValueError("payload size cannot be negative")
    ip = _new(IPv4Header)
    ip.src = src_ip
    ip.dst = dst_ip
    ip.proto = _TCP
    ip.ttl = 64
    ip.dscp = dscp
    ip.ecn = 0
    ip.total_length = _TCP_HEADERS + payload_size
    ip.ident = 0
    tcp = _new(TCPHeader)
    tcp.src_port = src_port
    tcp.dst_port = dst_port
    tcp.seq = seq
    tcp.ack = ack
    tcp.flags = flags
    tcp.window = 65535
    tcp.options = []
    payload = _new(Payload)
    payload.size = payload_size
    payload.content = content
    payload.encrypted = encrypted
    packet = _new(Packet)
    packet.eth = None
    packet.ip = ip
    packet.l4 = tcp
    packet.payload = payload
    packet.created_at = created_at
    packet.meta = {}
    packet.packet_id = next(_packet_ids)
    packet.flow_key = None
    packet.pkt_len = None
    return packet


def make_udp_packet(
    src_ip: str,
    src_port: int,
    dst_ip: str,
    dst_port: int,
    payload_size: int = 0,
    content: Any = None,
    dscp: int = 0,
    created_at: float = 0.0,
) -> Packet:
    """Convenience constructor for a UDP/IPv4 packet."""
    if not 0 <= dscp <= DSCP_MAX:
        raise HeaderError(f"DSCP {dscp} out of range 0..{DSCP_MAX}")
    if payload_size < 0:
        raise ValueError("payload size cannot be negative")
    ip = _new(IPv4Header)
    ip.src = src_ip
    ip.dst = dst_ip
    ip.proto = _UDP
    ip.ttl = 64
    ip.dscp = dscp
    ip.ecn = 0
    ip.total_length = _UDP_HEADERS + payload_size
    ip.ident = 0
    udp = _new(UDPHeader)
    udp.src_port = src_port
    udp.dst_port = dst_port
    udp.length = UDPHeader.WIRE_LENGTH + payload_size
    payload = _new(Payload)
    payload.size = payload_size
    payload.content = content
    payload.encrypted = False
    packet = _new(Packet)
    packet.eth = None
    packet.ip = ip
    packet.l4 = udp
    packet.payload = payload
    packet.created_at = created_at
    packet.meta = {}
    packet.packet_id = next(_packet_ids)
    packet.flow_key = None
    packet.pkt_len = None
    return packet
