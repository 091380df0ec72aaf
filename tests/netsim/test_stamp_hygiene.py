"""The NIC's stamp never goes stale.

A packet's ``flow_key`` and ``pkt_len`` (:func:`repro.netsim.packet.stamp`)
are read instead of its headers, so whatever rewrites an address, a
port or a size must clear them.  Each mutator is checked on a stamped
packet, a NAT sits between the generator and the middlebox end to end,
and an AST pin finds every such write in ``src/`` and demands that its
function clear the stamp.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import repro
from repro.core import CookieDescriptor, CookieMatcher, DescriptorStore
from repro.core.generator import CookieGenerator
from repro.core.transport import (
    HttpHeaderCarrier,
    Ipv6ExtensionCarrier,
    TcpOptionCarrier,
    TlsExtensionCarrier,
    UdpShimCarrier,
)
from repro.experiments.fig6_accuracy import _WanRewriter
from repro.netsim.appmsg import HTTPRequest, TLSClientHello
from repro.netsim.headers import (
    EthernetHeader,
    IPProto,
    IPv4Header,
    IPv6ExtensionHeader,
    IPv6Header,
    TCPHeader,
    TCPOption,
    UDPHeader,
)
from repro.netsim.middlebox import Sink
from repro.netsim.nat import NAT44
from repro.netsim.packet import (
    Packet,
    Payload,
    make_tcp_packet,
    make_udp_packet,
    stamp,
)
from repro.services.zerorate import ZeroRatingMiddlebox
from repro.trace.records import FlowRecord, flow_to_packets

pytestmark = pytest.mark.contract

PUBLIC = "198.51.100.7"
SERVER = "93.184.216.34"


def stamped(packet: Packet) -> Packet:
    stamp(packet)
    return packet


def assert_not_stale(packet: Packet) -> None:
    """Unstamped, or stamped with what a fresh stamp computes."""
    key, length = packet.flow_key, packet.pkt_len
    if key is None and length is None:
        return
    assert (key, length) == (stamp(packet), packet.pkt_len)


def cookie():
    descriptor = CookieDescriptor.create(service_data="video")
    return CookieGenerator(descriptor, clock=lambda: 0.0).generate()


def tcp():
    return make_tcp_packet("10.0.0.1", 40000, SERVER, 443, payload_size=100)


CARRIERS = {
    "http": (HttpHeaderCarrier, lambda: make_tcp_packet(
        "10.0.0.1", 40000, SERVER, 80, payload_size=100,
        content=HTTPRequest(host="example.com"),
    )),
    "tls": (TlsExtensionCarrier, lambda: make_tcp_packet(
        "10.0.0.1", 40000, SERVER, 443, payload_size=100,
        content=TLSClientHello(sni="example.com"),
    )),
    "udp": (UdpShimCarrier, lambda: make_udp_packet(
        "10.0.0.1", 40000, SERVER, 443, payload_size=100
    )),
    "tcp": (TcpOptionCarrier, tcp),
    "ipv6": (Ipv6ExtensionCarrier, lambda: Packet(
        ip=IPv6Header(src="2001:db8::1", dst="2001:db8::2"),
        l4=TCPHeader(src_port=40000, dst_port=443),
    )),
}


SHAPES = {
    "tcp": tcp,
    "tcp with options": lambda: Packet(
        ip=IPv4Header(src=SERVER, dst="10.0.0.1"),
        l4=TCPHeader(src_port=443, dst_port=40000,
                     options=[TCPOption(kind=253, data=b"abc")]),
        payload=Payload(size=9),
    ),
    "ethernet": lambda: Packet(
        eth=EthernetHeader(), ip=IPv4Header(src="10.0.0.1", dst=SERVER),
        l4=UDPHeader(src_port=5, dst_port=5), payload=Payload(size=3),
    ),
    "udp": lambda: make_udp_packet(SERVER, 53, "10.0.0.1", 40000, payload_size=7),
    "ipv6": CARRIERS["ipv6"][1],
    "ipv6 with an extension": lambda: Packet(
        ip=IPv6Header(src="2001:db8::2", dst="2001:db8::1",
                      extensions=[IPv6ExtensionHeader(data=b"x" * 11)]),
        l4=TCPHeader(src_port=443, dst_port=40000),
    ),
    "no transport header": lambda: Packet(ip=IPv4Header(), payload=Payload(size=5)),
    "no headers": lambda: Packet(payload=Payload(size=5)),
}

#: Each shape's key: the lower endpoint first, the protocol of the
#: transport header, and none without an IP or transport header.
KEYS = {
    "tcp": ("10.0.0.1", 40000, SERVER, 443, IPProto.TCP),
    "tcp with options": ("10.0.0.1", 40000, SERVER, 443, IPProto.TCP),
    "ethernet": ("10.0.0.1", 5, SERVER, 5, IPProto.UDP),
    "udp": ("10.0.0.1", 40000, SERVER, 53, IPProto.UDP),
    "ipv6": ("2001:db8::1", 40000, "2001:db8::2", 443, IPProto.TCP),
    "ipv6 with an extension": (
        "2001:db8::1", 40000, "2001:db8::2", 443, IPProto.TCP
    ),
    "no transport header": None,
    "no headers": None,
}


@pytest.mark.parametrize("shape", list(SHAPES))
def test_the_stamp_is_the_headers_length_and_canonical_key(shape):
    """``stamp``'s constant arithmetic agrees with the headers' own."""
    packet = SHAPES[shape]()
    key = stamp(packet)
    assert packet.pkt_len == Packet(
        eth=packet.eth, ip=packet.ip, l4=packet.l4, payload=packet.payload
    ).wire_length
    assert key == KEYS[shape]
    assert (None if key is None else key[4]) == packet.proto


@pytest.mark.parametrize("shape", list(SHAPES))
def test_an_unstamped_wire_length_is_the_stamps(shape):
    """One length arithmetic: an unstamped packet's ``wire_length`` is
    what a fresh stamp stores, and both are the headers' own sum."""
    packet = SHAPES[shape]()
    unstamped = packet.wire_length
    stamp(packet)
    assert unstamped == packet.pkt_len == packet.payload.size + sum(
        header.wire_length
        for header in (packet.eth, packet.ip, packet.l4)
        if header is not None
    )


@pytest.mark.parametrize("name", list(CARRIERS))
def test_a_carrier_attach_clears_the_stamp(name):
    carrier, make = CARRIERS[name]
    packet = stamped(make())
    before = packet.pkt_len
    carrier().attach(packet, cookie())
    assert_not_stale(packet)
    assert packet.wire_length == before + carrier.overhead_bytes


def test_nat_outbound_clears_the_stamp():
    nat = NAT44(PUBLIC)
    sink = nat.outbound >> Sink()
    nat.outbound.push(stamped(tcp()))
    (packet,) = sink.packets
    assert packet.ip.src == PUBLIC
    assert_not_stale(packet)


def test_nat_inbound_clears_the_stamp():
    nat = NAT44(PUBLIC)
    mapping = nat.mapping_for_private("10.0.0.1", 40000, IPProto.TCP)
    sink = nat.inbound >> Sink()
    nat.inbound.push(stamped(
        make_tcp_packet(SERVER, 443, PUBLIC, mapping.public_port)
    ))
    (packet,) = sink.packets
    assert packet.ip.dst == "10.0.0.1"
    assert_not_stale(packet)


def test_the_fig6_wan_view_clears_the_stamp():
    view = _WanRewriter(NAT44(PUBLIC))
    sink = view >> Sink()
    view.push(stamped(make_tcp_packet(SERVER, 443, "10.0.0.1", 40000)))
    (packet,) = sink.packets
    assert packet.ip.dst == PUBLIC
    assert_not_stale(packet)


def test_a_clone_keeps_the_stamp():
    packet = stamped(tcp())
    copy = packet.clone()
    assert copy.flow_key is packet.flow_key
    assert copy.pkt_len == packet.pkt_len


def test_flow_to_packets_stamps_one_key_per_flow():
    record = FlowRecord(0.0, "10.0.0.1", 40000, SERVER, 443, packets=9,
                        avg_packet_size=700)
    packets = list(flow_to_packets(record, cookie=cookie()))
    key = packets[0].flow_key
    assert key == ("10.0.0.1", 40000, SERVER, 443, IPProto.TCP)
    assert all(packet.flow_key is key for packet in packets)
    assert len({id(packet.pkt_len) for packet in packets[1:]}) == 1
    for packet in packets:
        assert_not_stale(packet)


def test_generator_to_nat_to_middlebox_keys_and_bills_the_rewritten_flow():
    store = DescriptorStore()
    descriptor = store.add(CookieDescriptor.create(service_data="video"))
    record = FlowRecord(0.0, "10.0.0.1", 40000, SERVER, 443, packets=12,
                        avg_packet_size=700)
    generated = list(flow_to_packets(
        record, cookie=CookieGenerator(descriptor, clock=lambda: 0.0).generate(),
        downlink_fraction=0.0,
    ))
    nat = NAT44(PUBLIC)
    wan = nat.outbound >> Sink()
    for packet in generated:
        nat.outbound.push(packet)
    resolved = []
    box = ZeroRatingMiddlebox(
        CookieMatcher(store), clock=lambda: 0.0,
        is_subscriber=lambda ip: ip == PUBLIC,
        on_flow_resolved=lambda key, _state: resolved.append(key),
    )
    box.process_batch(wan.packets)
    port = nat.mapping_for_private("10.0.0.1", 40000, IPProto.TCP).public_port
    assert resolved == [(PUBLIC, port, SERVER, 443, IPProto.TCP)]
    # Lengths read off the headers of an unstamped twin, not the stamp.
    wire = sum(Packet(ip=p.ip, l4=p.l4, payload=p.payload).wire_length
               for p in wan.packets)
    counters = box.counters_for(PUBLIC)
    assert (counters.free_bytes, counters.charged_bytes) == (wire, 0)


# ----------------------------------------------------------------------
# The pin: every header or size write in src/ clears the stamp
# ----------------------------------------------------------------------
SRC = pathlib.Path(repro.__file__).resolve().parent
#: Packet and header fields whose writes move a flow key or a wire
#: length (``size`` counts only as ``payload.size``).
REWRITTEN = {
    "eth", "ip", "l4", "payload", "src", "dst", "src_port", "dst_port",
    "proto", "next_header", "options", "extensions",
}
MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear"}


def _written(node: ast.AST) -> list[ast.AST]:
    """What an assignment, or a mutating method call, writes to."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in MUTATORS
    ):
        targets = [node.func.value]
    else:
        return []
    flat = []
    for target in targets:
        flat += target.elts if isinstance(target, ast.Tuple) else [target]
    return flat


def _is_header_write(target: ast.AST) -> bool:
    while isinstance(target, ast.Subscript):
        target = target.value
    if not isinstance(target, ast.Attribute):
        return False
    if isinstance(target.value, ast.Name) and target.value.id == "self":
        return False  # an object setting its own field, not a packet's
    if target.attr == "size":
        return ast.unparse(target.value).endswith("payload")
    return target.attr in REWRITTEN


def _rewrites(node: ast.AST) -> bool:
    return any(_is_header_write(target) for target in _written(node))


def _clears(function: ast.AST) -> bool:
    return any(
        isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant)
        and node.value.value is None
        and {t.attr for t in node.targets if isinstance(t, ast.Attribute)}
        >= {"flow_key", "pkt_len"}
        for node in ast.walk(function)
    )


def _writers(tree: ast.AST, function=None):
    """(enclosing function or None, line) of every header or size write."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _writers(child, child)
            continue
        if _rewrites(child):
            yield function, child.lineno
        yield from _writers(child, function)


def test_every_header_write_in_src_clears_the_stamp():
    found, stale = set(), []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative == "netsim/packet.py":
            continue
        for function, line in _writers(ast.parse(path.read_text())):
            name = function.name if function is not None else "<module>"
            found.add((relative, name))
            if function is None or not _clears(function):
                stale.append(f"{relative}:{line} ({name})")
    assert stale == []
    # The pin sees the writers it was written for.
    assert {
        ("netsim/nat.py", "handle"),
        ("core/transport/http.py", "attach"),
        ("core/transport/tls.py", "attach"),
        ("core/transport/udp.py", "attach"),
        ("core/transport/tcpopt.py", "attach"),
        ("core/transport/ipv6.py", "attach"),
        ("experiments/fig6_accuracy.py", "handle"),
        ("baselines/comparison.py", "_probe_cookie_nat_independence"),
    } <= found
