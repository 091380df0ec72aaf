"""The indexed OOB switch answers what a scan over its rules answers.

``OobSwitch.service_of`` looks rules up by shape instead of scanning them.
The scan stays here as the reference: the first rule in ``rules`` order
whose description matches the packet, in either direction, names the
service.  Small value domains make wildcards, overlapping and duplicate
rules, re-installs and removes collide often.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.oob import FlowDescription, OobSwitch
from repro.netsim.headers import IPProto
from repro.netsim.packet import Packet, make_tcp_packet, make_udp_packet

IPS = ("10.0.0.1", "192.168.1.2", "93.184.216.34")
PORTS = (443, 5000)
PROTOS = (IPProto.TCP, IPProto.UDP)
SERVICES = ("boost", "throttle", "zero-rate")


def matches(description: FlowDescription, packet: Packet) -> bool:
    """``None`` fields are wildcards; a rule covers both directions."""
    forward = (packet.src_ip, packet.src_port, packet.dst_ip, packet.dst_port)
    reverse = (packet.dst_ip, packet.dst_port, packet.src_ip, packet.src_port)
    fields = (description.src_ip, description.src_port,
              description.dst_ip, description.dst_port)
    if description.proto is not None and description.proto != packet.proto:
        return False
    return any(
        all(want is None or want == have for want, have in zip(fields, seen))
        for seen in (forward, reverse)
    )


def scan(rules: dict[FlowDescription, str], packet: Packet) -> str | None:
    for description, service in rules.items():
        if matches(description, packet):
            return service
    return None


descriptions = st.builds(
    FlowDescription,
    src_ip=st.none() | st.sampled_from(IPS),
    src_port=st.none() | st.sampled_from(PORTS),
    dst_ip=st.none() | st.sampled_from(IPS),
    dst_port=st.none() | st.sampled_from(PORTS),
    proto=st.none() | st.sampled_from(PROTOS),
)
operations = st.lists(
    st.tuples(st.just("install"), descriptions, st.sampled_from(SERVICES))
    | st.tuples(st.just("remove"), descriptions, st.none()),
    max_size=30,
)


def _packets() -> list[Packet]:
    packets: list[Packet] = [Packet()]
    for src in IPS:
        for dst in IPS:
            for sport in PORTS:
                for dport in PORTS:
                    packets.append(make_tcp_packet(src, sport, dst, dport))
                    packets.append(make_udp_packet(src, sport, dst, dport))
    return packets


PACKETS = _packets()


@settings(max_examples=100, deadline=None)
@given(operations)
def test_index_answers_what_the_scan_answers(ops):
    switch = OobSwitch()
    reference: dict[FlowDescription, str] = {}
    for op, description, service in ops:
        if op == "install":
            switch.install_rule(description, service)
            reference[description] = service
        else:
            switch.remove_rule(description)
            reference.pop(description, None)
        assert switch.rules == reference
        assert list(switch.rules) == list(reference)
    for packet in PACKETS:
        assert switch.service_of(packet) == scan(reference, packet), packet.describe()


def test_first_installed_wins_and_reinstall_keeps_its_place():
    switch = OobSwitch()
    wide = FlowDescription(dst_ip="93.184.216.34")
    narrow = FlowDescription(dst_ip="93.184.216.34", dst_port=443)
    packet = make_tcp_packet("10.0.0.1", 5000, "93.184.216.34", 443)
    reply = make_tcp_packet("93.184.216.34", 443, "10.0.0.1", 5000)
    switch.install_rule(wide, "first")
    switch.install_rule(narrow, "second")
    assert switch.service_of(packet) == switch.service_of(reply) == "first"
    switch.install_rule(wide, "renamed")  # keeps its rank
    assert switch.service_of(packet) == "renamed"
    switch.remove_rule(wide)
    switch.install_rule(wide, "last")  # re-added: goes behind narrow
    assert switch.service_of(packet) == "second"
    switch.remove_rule(narrow)
    switch.remove_rule(narrow)  # removing an absent rule is a no-op
    assert switch.service_of(reply) == "last"
    switch.remove_rule(wide)
    assert switch.service_of(packet) is None
