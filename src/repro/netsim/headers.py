"""Protocol header models for the packet substrate.

Each header is a small dataclass with a byte-accurate ``wire_length`` and a
``pack``/``unpack`` pair so that throughput benchmarks account for real wire
sizes and parsers can be exercised against real byte strings.  The models are
deliberately minimal: they carry the fields the paper's mechanisms need
(addresses, ports, DSCP bits, TCP options, IPv6 extension headers, TLS SNI)
and nothing more.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum
from functools import lru_cache

__all__ = [
    "EtherType",
    "IPProto",
    "EthernetHeader",
    "IPv4Header",
    "IPv6ExtensionHeader",
    "IPv6Header",
    "TCPOption",
    "TCPHeader",
    "UDPHeader",
    "DSCP_MAX",
    "HeaderError",
]

DSCP_MAX = 63  # DiffServ code points use 6 bits: 0..63.


class HeaderError(ValueError):
    """Raised when a header is malformed or cannot be parsed."""


class EtherType(IntEnum):
    """EtherType values used by the simulator."""

    IPV4 = 0x0800
    IPV6 = 0x86DD
    ARP = 0x0806


class IPProto(IntEnum):
    """IP protocol numbers used by the simulator."""

    TCP = 6
    UDP = 17
    # IPv6 extension header "Destination Options"; used to carry cookies.
    IPV6_DEST_OPTS = 60


@dataclass(slots=True)
class EthernetHeader:
    """Ethernet II header (14 bytes on the wire)."""

    src_mac: str = "00:00:00:00:00:00"
    dst_mac: str = "ff:ff:ff:ff:ff:ff"
    ethertype: int = EtherType.IPV4

    WIRE_LENGTH = 14

    @property
    def wire_length(self) -> int:
        return self.WIRE_LENGTH

    def pack(self) -> bytes:
        return _packed_ethernet(self.dst_mac, self.src_mac, self.ethertype)

    @classmethod
    def unpack(cls, data: bytes) -> "EthernetHeader":
        if len(data) < cls.WIRE_LENGTH:
            raise HeaderError("truncated Ethernet header")
        dst = _bytes_to_mac(data[0:6])
        src = _bytes_to_mac(data[6:12])
        (ethertype,) = struct.unpack("!H", data[12:14])
        return cls(src_mac=src, dst_mac=dst, ethertype=ethertype)


@dataclass(slots=True)
class IPv4Header:
    """IPv4 header without options (20 bytes).

    ``dscp`` models the 6 DiffServ bits; ``ecn`` the remaining 2 bits of the
    legacy TOS octet.  ``total_length`` covers the IP header plus payload, as
    on the wire.
    """

    src: str = "0.0.0.0"
    dst: str = "0.0.0.0"
    proto: int = IPProto.TCP
    ttl: int = 64
    dscp: int = 0
    ecn: int = 0
    total_length: int = 20
    ident: int = 0

    WIRE_LENGTH = 20

    def __post_init__(self) -> None:
        if not 0 <= self.dscp <= DSCP_MAX:
            raise HeaderError(f"DSCP {self.dscp} out of range 0..{DSCP_MAX}")
        if not 0 <= self.ecn <= 3:
            raise HeaderError(f"ECN {self.ecn} out of range 0..3")

    @property
    def wire_length(self) -> int:
        return self.WIRE_LENGTH

    @property
    def tos(self) -> int:
        """The legacy TOS octet: DSCP in the high 6 bits, ECN in the low 2."""
        return (self.dscp << 2) | self.ecn

    def pack(self) -> bytes:
        return _packed_ipv4(
            self.src,
            self.dst,
            self.proto,
            self.ttl,
            self.tos,
            self.total_length,
            self.ident,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "IPv4Header":
        if len(data) < cls.WIRE_LENGTH:
            raise HeaderError("truncated IPv4 header")
        (
            version_ihl,
            tos,
            total_length,
            ident,
            _frag,
            ttl,
            proto,
            _csum,
            src,
            dst,
        ) = struct.unpack("!BBHHHBBH4s4s", data[: cls.WIRE_LENGTH])
        if version_ihl >> 4 != 4:
            raise HeaderError("not an IPv4 header")
        return cls(
            src=_bytes_to_ipv4(src),
            dst=_bytes_to_ipv4(dst),
            proto=proto,
            ttl=ttl,
            dscp=tos >> 2,
            ecn=tos & 0x3,
            total_length=total_length,
            ident=ident,
        )


@dataclass(slots=True)
class IPv6ExtensionHeader:
    """A generic IPv6 extension header carrying opaque option data.

    The paper proposes IPv6 extension headers as one transport for network
    cookies; :mod:`repro.core.transport.ipv6` uses this type with
    ``next_header`` chaining.  On the wire an extension header is
    ``8 * (hdr_ext_len + 1)`` bytes; we round the option data up to that
    boundary.
    """

    next_header: int = IPProto.TCP
    option_type: int = 0x1E  # experimental option type
    data: bytes = b""

    @property
    def wire_length(self) -> int:
        # next_header (1) + hdr_ext_len (1) + option type (1) + option len (1)
        raw = 4 + len(self.data)
        return ((raw + 7) // 8) * 8

    def pack(self) -> bytes:
        raw = 4 + len(self.data)
        padded = ((raw + 7) // 8) * 8
        ext_len = padded // 8 - 1
        if len(self.data) > 255:
            raise HeaderError("IPv6 option data exceeds 255 bytes")
        body = struct.pack(
            "!BBBB", self.next_header, ext_len, self.option_type, len(self.data)
        ) + self.data
        return body + b"\x00" * (padded - raw)

    @classmethod
    def unpack(cls, data: bytes) -> "IPv6ExtensionHeader":
        if len(data) < 4:
            raise HeaderError("truncated IPv6 extension header")
        next_header, ext_len, option_type, option_len = struct.unpack(
            "!BBBB", data[:4]
        )
        total = (ext_len + 1) * 8
        if len(data) < total or option_len > total - 4:
            raise HeaderError("truncated IPv6 extension header body")
        return cls(
            next_header=next_header,
            option_type=option_type,
            data=data[4 : 4 + option_len],
        )


@dataclass(slots=True)
class IPv6Header:
    """IPv6 header (40 bytes) with an optional extension-header chain."""

    src: str = "::"
    dst: str = "::"
    next_header: int = IPProto.TCP
    hop_limit: int = 64
    traffic_class: int = 0
    flow_label: int = 0
    payload_length: int = 0
    extensions: list[IPv6ExtensionHeader] = field(default_factory=list)

    BASE_WIRE_LENGTH = 40

    @property
    def dscp(self) -> int:
        return self.traffic_class >> 2

    @dscp.setter
    def dscp(self, value: int) -> None:
        if not 0 <= value <= DSCP_MAX:
            raise HeaderError(f"DSCP {value} out of range 0..{DSCP_MAX}")
        self.traffic_class = (value << 2) | (self.traffic_class & 0x3)

    @property
    def wire_length(self) -> int:
        return self.BASE_WIRE_LENGTH + sum(e.wire_length for e in self.extensions)


@dataclass(slots=True)
class TCPOption:
    """A single TCP option as (kind, data).

    Kind 253/254 are the IETF experimental kinds; the paper's "TCP long
    options" cookie carrier uses an experimental kind.
    """

    kind: int
    data: bytes = b""

    @property
    def wire_length(self) -> int:
        if self.kind in (0, 1):  # EOL / NOP are single bytes
            return 1
        return 2 + len(self.data)

    def pack(self) -> bytes:
        return _packed_tcp_option(self.kind, self.data)


@dataclass(slots=True)
class TCPHeader:
    """TCP header (20 bytes + options, padded to 4-byte words)."""

    src_port: int = 0
    dst_port: int = 0
    seq: int = 0
    ack: int = 0
    flags: int = 0
    window: int = 65535
    options: list[TCPOption] = field(default_factory=list)

    FLAG_FIN = 0x01
    FLAG_SYN = 0x02
    FLAG_RST = 0x04
    FLAG_PSH = 0x08
    FLAG_ACK = 0x10

    BASE_WIRE_LENGTH = 20

    @property
    def wire_length(self) -> int:
        options = self.options
        if not options:
            return self.BASE_WIRE_LENGTH
        opts = sum(o.wire_length for o in options)
        return self.BASE_WIRE_LENGTH + ((opts + 3) // 4) * 4


@dataclass(slots=True)
class UDPHeader:
    """UDP header (8 bytes)."""

    src_port: int = 0
    dst_port: int = 0
    length: int = 8

    WIRE_LENGTH = 8

    @property
    def wire_length(self) -> int:
        return self.WIRE_LENGTH

    def pack(self) -> bytes:
        return _packed_udp(self.src_port, self.dst_port, self.length)

    @classmethod
    def unpack(cls, data: bytes) -> "UDPHeader":
        if len(data) < cls.WIRE_LENGTH:
            raise HeaderError("truncated UDP header")
        src, dst, length, _csum = struct.unpack("!HHHH", data[:8])
        return cls(src_port=src, dst_port=dst, length=length)


# ----------------------------------------------------------------------
# Memoized serialization
#
# Headers are tiny value objects that repeat heavily inside one workload
# (the same src/dst pair serialized for every segment of a flow).  The
# packed wire image is a pure function of the field values, so an LRU
# over those values turns repeat serialization into a dict hit.  The
# caches are bounded; a miss simply pays the original struct.pack cost.
# ----------------------------------------------------------------------


@lru_cache(maxsize=1024)
def _packed_ethernet(dst_mac: str, src_mac: str, ethertype: int) -> bytes:
    return (
        _mac_to_bytes(dst_mac)
        + _mac_to_bytes(src_mac)
        + struct.pack("!H", ethertype)
    )


@lru_cache(maxsize=8192)
def _packed_ipv4(
    src: str,
    dst: str,
    proto: int,
    ttl: int,
    tos: int,
    total_length: int,
    ident: int,
) -> bytes:
    version_ihl = (4 << 4) | 5
    return struct.pack(
        "!BBHHHBBH4s4s",
        version_ihl,
        tos,
        total_length,
        ident,
        0,  # flags + fragment offset
        ttl,
        proto,
        0,  # checksum (not modelled)
        _ipv4_to_bytes(src),
        _ipv4_to_bytes(dst),
    )


@lru_cache(maxsize=4096)
def _packed_tcp_option(kind: int, data: bytes) -> bytes:
    if kind in (0, 1):
        return bytes([kind])
    length = 2 + len(data)
    if length > 255:
        raise HeaderError("TCP option too long")
    return bytes([kind, length]) + data


@lru_cache(maxsize=4096)
def _packed_udp(src_port: int, dst_port: int, length: int) -> bytes:
    return struct.pack("!HHHH", src_port, dst_port, length, 0)


def _mac_to_bytes(mac: str) -> bytes:
    parts = mac.split(":")
    if len(parts) != 6:
        raise HeaderError(f"bad MAC address {mac!r}")
    try:
        return bytes(int(p, 16) for p in parts)
    except ValueError as exc:
        raise HeaderError(f"bad MAC address {mac!r}") from exc


def _bytes_to_mac(data: bytes) -> str:
    return ":".join(f"{b:02x}" for b in data)


def _ipv4_to_bytes(addr: str) -> bytes:
    parts = addr.split(".")
    if len(parts) != 4:
        raise HeaderError(f"bad IPv4 address {addr!r}")
    try:
        values = [int(p) for p in parts]
    except ValueError as exc:
        raise HeaderError(f"bad IPv4 address {addr!r}") from exc
    if any(not 0 <= v <= 255 for v in values):
        raise HeaderError(f"bad IPv4 address {addr!r}")
    return bytes(values)


def _bytes_to_ipv4(data: bytes) -> str:
    return ".".join(str(b) for b in data)
