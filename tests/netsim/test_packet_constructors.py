"""The packet constructors build what the dataclass constructors build.

``make_tcp_packet`` / ``make_udp_packet`` store every slot directly instead
of running the generated ``__init__``.  This contract pins them to the
dataclass path, field by field (``packet_id`` excluded), over a grid of
their arguments, and keeps the two refusals they share with it.  Reading
every dataclass field of every object is what catches a header that gains
a field the direct stores do not set.  Both leave the NIC's stamp unset,
as the dataclass path does.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import fields

import pytest

from repro.netsim.appmsg import HTTPRequest, TLSClientHello
from repro.netsim.headers import (
    HeaderError,
    IPProto,
    IPv4Header,
    TCPHeader,
    UDPHeader,
)
from repro.netsim.packet import (
    Packet,
    Payload,
    make_tcp_packet,
    make_udp_packet,
    stamp,
)

DSCPS = (0, 46, 63)
CONTENTS = (
    None,
    TLSClientHello(sni="video.example.com"),
    HTTPRequest(host="example.com", headers={"X-Cookie": "abc"}),
)
SIZES = (0, 1400)
TCP_CONTROL = ((0, 0, 0), (TCPHeader.FLAG_SYN | TCPHeader.FLAG_ACK, 12345, 67890))


def dataclass_tcp(src_ip, src_port, dst_ip, dst_port, *, payload_size=0,
                  content=None, flags=0, seq=0, ack=0, encrypted=False,
                  dscp=0, created_at=0.0):
    ip = IPv4Header(src=src_ip, dst=dst_ip, proto=IPProto.TCP, dscp=dscp)
    tcp = TCPHeader(src_port=src_port, dst_port=dst_port, flags=flags, seq=seq, ack=ack)
    payload = Payload(size=payload_size, content=content, encrypted=encrypted)
    packet = Packet(ip=ip, l4=tcp, payload=payload, created_at=created_at)
    ip.total_length = ip.wire_length + tcp.wire_length + payload.size
    return packet


def dataclass_udp(src_ip, src_port, dst_ip, dst_port, *, payload_size=0,
                  content=None, dscp=0, created_at=0.0):
    ip = IPv4Header(src=src_ip, dst=dst_ip, proto=IPProto.UDP, dscp=dscp)
    udp = UDPHeader(src_port=src_port, dst_port=dst_port,
                    length=UDPHeader.WIRE_LENGTH + payload_size)
    payload = Payload(size=payload_size, content=content)
    packet = Packet(ip=ip, l4=udp, payload=payload, created_at=created_at)
    ip.total_length = ip.wire_length + udp.wire_length + payload.size
    return packet


def assert_same_packet(fast: Packet, reference: Packet) -> None:
    assert type(fast) is Packet
    for field in fields(Packet):
        if field.name == "packet_id":
            continue
        got, want = getattr(fast, field.name), getattr(reference, field.name)
        assert type(got) is type(want), field.name
        if want is None or field.name in ("created_at", "meta"):
            assert got == want, field.name
            continue
        for inner in fields(want):
            got_value = getattr(got, inner.name)
            want_value = getattr(want, inner.name)
            assert got_value == want_value, f"{field.name}.{inner.name}"
            assert type(got_value) is type(want_value), f"{field.name}.{inner.name}"
    assert fast.wire_length == reference.wire_length
    assert fast.ip.pack() == reference.ip.pack()


@pytest.mark.contract
@pytest.mark.parametrize("dscp", DSCPS)
def test_make_tcp_packet_equals_the_dataclass_path(dscp):
    for (flags, seq, ack), content, size, encrypted in itertools.product(
        TCP_CONTROL, CONTENTS, SIZES, (False, True)
    ):
        args = ("10.0.0.1", 40000, "93.184.216.34", 443)
        kwargs = dict(payload_size=size, content=content, flags=flags, seq=seq,
                      ack=ack, encrypted=encrypted, dscp=dscp, created_at=1.5)
        fast = make_tcp_packet(*args, **kwargs)
        assert_same_packet(fast, dataclass_tcp(*args, **kwargs))
        assert fast.payload.content is content


@pytest.mark.contract
@pytest.mark.parametrize("dscp", DSCPS)
def test_make_udp_packet_equals_the_dataclass_path(dscp):
    for content, size in itertools.product(CONTENTS, SIZES):
        args = ("10.0.0.1", 5353, "8.8.8.8", 53)
        kwargs = dict(payload_size=size, content=content, dscp=dscp, created_at=2.0)
        assert_same_packet(make_udp_packet(*args, **kwargs), dataclass_udp(*args, **kwargs))


@pytest.mark.contract
@pytest.mark.parametrize("make", [make_tcp_packet, make_udp_packet])
def test_refusals_match_the_dataclass_path_and_draw_no_id(make):
    before = make("1.1.1.1", 1, "2.2.2.2", 2).packet_id
    with pytest.raises(HeaderError, match="DSCP 64"):
        make("1.1.1.1", 1, "2.2.2.2", 2, dscp=64)
    with pytest.raises(HeaderError):
        make("1.1.1.1", 1, "2.2.2.2", 2, dscp=-1)
    with pytest.raises(ValueError, match="negative"):
        make("1.1.1.1", 1, "2.2.2.2", 2, payload_size=-1)
    ids = [make("1.1.1.1", 1, "2.2.2.2", 2).packet_id for _ in range(5)]
    assert ids == sorted(set(ids)) and ids[0] == before + 1


@pytest.mark.contract
def test_each_packet_owns_its_mutable_parts():
    a = make_tcp_packet("1.1.1.1", 1, "2.2.2.2", 2)
    b = make_tcp_packet("1.1.1.1", 1, "2.2.2.2", 2)
    assert a.meta is not b.meta
    assert a.l4.options is not b.l4.options
    assert a.ip is not b.ip and a.payload is not b.payload


@pytest.mark.contract
@pytest.mark.parametrize("make", [make_tcp_packet, make_udp_packet])
def test_a_built_packet_is_unstamped_and_the_stamp_is_not_compared(make):
    packet = make("1.1.1.1", 1, "2.2.2.2", 2, payload_size=100)
    assert (packet.flow_key, packet.pkt_len) == (None, None)
    twin = copy.copy(packet)
    stamp(packet)
    assert packet.pkt_len == twin.wire_length
    assert packet == twin and repr(packet) == repr(twin)
