"""Flow records: the unit both trace generators produce.

A :class:`FlowRecord` describes one HTTP(S) flow compactly;
:func:`flow_to_packets` expands a record into the packet sequence a
middlebox would see, with an optional cookie on the first packet, each
packet stamped as a DPDK NIC would hand it over
(:func:`~repro.netsim.packet.stamp`).

Expansion costs ~1 µs per packet on one core of a Xeon-class box
(CPython 3.11), the stamp included: it is one
:func:`~repro.netsim.packet.stamp` a flow plus two slot stores a
packet, since the flow's packets share its key tuple and its data
packets share one length.  That is beside ~3 M pkt/s for the
``fig4-steady`` burst path, which reads the stamp instead of the
headers, and ~0.5 M pkt/s for the §4.6 replay.  A caller that keeps
every packet alive pays the cyclic collector on top: §4.6's
pre-expansion of 622 k packets runs at ~7.7 µs per packet, of which
~6 µs are collector passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..core.cookie import Cookie
from ..core.transport import TransportRegistry, default_registry
from ..netsim.appmsg import TLSClientHello
from ..netsim.packet import Packet, make_tcp_packet, stamp

__all__ = ["FlowRecord", "flow_to_packets"]


@dataclass(frozen=True)
class FlowRecord:
    """One flow in a trace."""

    start_time: float
    client_ip: str
    client_port: int
    server_ip: str
    server_port: int
    packets: int
    avg_packet_size: int = 800
    https: bool = True
    sni: str = ""

    @property
    def bytes(self) -> int:
        return self.packets * self.avg_packet_size


def flow_to_packets(
    record: FlowRecord,
    cookie: Cookie | None = None,
    registry: TransportRegistry | None = None,
    downlink_fraction: float = 0.75,
) -> Iterator[Packet]:
    """Expand a flow record into exactly ``record.packets`` packets.

    The first packet is the client's request (ClientHello with the
    record's SNI) and carries ``cookie`` if given; the rest split between
    directions by ``downlink_fraction`` in [0, 1].  A registry is built
    only when a cookie must be attached and none was given.

    Every packet leaves stamped, with the flow's one key tuple; the
    packets after the first share one length too.
    """
    if record.packets < 1:
        raise ValueError(f"a flow has at least one packet, got {record.packets}")
    if not 0.0 <= downlink_fraction <= 1.0:
        raise ValueError(
            f"downlink_fraction must be in [0, 1], got {downlink_fraction}"
        )
    client_ip = record.client_ip
    client_port = record.client_port
    server_ip = record.server_ip
    server_port = record.server_port
    size = record.avg_packet_size
    https = record.https
    start = record.start_time
    first = make_tcp_packet(
        client_ip,
        client_port,
        server_ip,
        server_port,
        # A conditional, not min(): the builtin call costs as much
        # as half the flow's stamp.
        payload_size=size if size < 400 else 400,
        content=TLSClientHello(sni=record.sni) if https else None,
        created_at=start,
    )
    if cookie is not None:
        (registry or default_registry()).attach(first, cookie)
    key = stamp(first)
    yield first
    remaining = record.packets - 1
    downlink = int(remaining * downlink_fraction)
    length = None
    for _ in range(remaining - downlink):
        packet = make_tcp_packet(
            client_ip, client_port, server_ip, server_port,
            payload_size=size, encrypted=https, created_at=start,
        )
        if length is None:
            length = packet.ip.total_length  # no link header: the wire length
        packet.flow_key = key
        packet.pkt_len = length
        yield packet
    for _ in range(downlink):
        packet = make_tcp_packet(
            server_ip, server_port, client_ip, client_port,
            payload_size=size, encrypted=https, created_at=start,
        )
        if length is None:
            length = packet.ip.total_length  # no link header: the wire length
        packet.flow_key = key
        packet.pkt_len = length
        yield packet
