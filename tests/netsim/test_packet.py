"""Packet model tests: sizes, accessors, cloning."""

import pytest

from repro.netsim.headers import IPv4Header, TCPHeader
from repro.netsim.packet import Packet, Payload, make_tcp_packet, make_udp_packet


class TestPayload:
    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Payload(size=-1)

    def test_defaults(self):
        payload = Payload()
        assert payload.size == 0 and payload.content is None
        assert not payload.encrypted


class TestPacket:
    def test_wire_length_sums_headers_and_payload(self):
        packet = make_tcp_packet("1.1.1.1", 1, "2.2.2.2", 2, payload_size=100)
        assert packet.wire_length == 20 + 20 + 100

    def test_udp_wire_length(self):
        packet = make_udp_packet("1.1.1.1", 1, "2.2.2.2", 2, payload_size=72)
        assert packet.wire_length == 20 + 8 + 72

    def test_accessors(self):
        packet = make_tcp_packet("10.0.0.1", 5000, "10.0.0.2", 443)
        assert packet.src_ip == "10.0.0.1"
        assert packet.dst_ip == "10.0.0.2"
        assert packet.src_port == 5000
        assert packet.dst_port == 443
        assert packet.is_tcp

    def test_packet_ids_unique(self):
        a = make_tcp_packet("1.1.1.1", 1, "2.2.2.2", 2)
        b = make_tcp_packet("1.1.1.1", 1, "2.2.2.2", 2)
        assert a.packet_id != b.packet_id

    def test_clone_is_independent(self):
        packet = make_tcp_packet("1.1.1.1", 1, "2.2.2.2", 2, payload_size=10)
        packet.meta["tag"] = "original"
        copy = packet.clone()
        copy.ip.src = "9.9.9.9"
        copy.meta["tag"] = "copy"
        assert packet.ip.src == "1.1.1.1"
        assert packet.meta["tag"] == "original"
        assert copy.packet_id != packet.packet_id

    def test_set_dscp(self):
        packet = make_tcp_packet("1.1.1.1", 1, "2.2.2.2", 2)
        packet.set_dscp(46)
        assert packet.dscp == 46

    def test_set_dscp_without_ip_raises(self):
        packet = Packet()
        with pytest.raises(ValueError):
            packet.set_dscp(1)

    def test_describe_mentions_endpoints(self):
        packet = make_tcp_packet("1.1.1.1", 1, "2.2.2.2", 2)
        text = packet.describe()
        assert "1.1.1.1:1" in text and "2.2.2.2:2" in text

    def test_describe_handles_headerless(self):
        assert "pkt" in Packet().describe()

    def test_total_length_set_by_constructor(self):
        packet = make_tcp_packet("1.1.1.1", 1, "2.2.2.2", 2, payload_size=500)
        assert packet.ip.total_length == packet.wire_length

    def test_dscp_constructor_arg(self):
        packet = make_tcp_packet("1.1.1.1", 1, "2.2.2.2", 2, dscp=34)
        assert packet.dscp == 34

    def test_manual_packet_proto(self):
        packet = Packet(ip=IPv4Header(), l4=TCPHeader())
        assert packet.is_tcp
        assert packet.dscp == 0
