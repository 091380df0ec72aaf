"""NAT tests: mapping stability, reverse translation, isolation."""

import pytest

from repro.netsim.middlebox import Sink
from repro.netsim.nat import NAT44, NatError
from repro.netsim.packet import make_tcp_packet


def _outbound(nat, src="192.168.1.2", sport=5000, dst="93.184.216.34", dport=443):
    sink = Sink()
    nat.outbound.downstream = sink
    packet = make_tcp_packet(src, sport, dst, dport)
    nat.outbound.push(packet)
    return sink.packets[-1]


class TestOutbound:
    def test_source_rewritten_to_public(self):
        nat = NAT44(public_ip="198.51.100.7")
        packet = _outbound(nat)
        assert packet.ip.src == "198.51.100.7"
        assert packet.l4.src_port != 5000

    def test_destination_untouched(self):
        nat = NAT44(public_ip="198.51.100.7")
        packet = _outbound(nat)
        assert packet.ip.dst == "93.184.216.34"
        assert packet.l4.dst_port == 443

    def test_mapping_stable_per_endpoint(self):
        nat = NAT44(public_ip="198.51.100.7")
        first = _outbound(nat)
        second = _outbound(nat)
        assert first.l4.src_port == second.l4.src_port
        assert len(nat._by_private) == 1

    def test_distinct_endpoints_distinct_ports(self):
        nat = NAT44(public_ip="198.51.100.7")
        a = _outbound(nat, sport=5000)
        b = _outbound(nat, sport=5001)
        assert a.l4.src_port != b.l4.src_port

    def test_original_endpoint_recorded_in_meta(self):
        nat = NAT44(public_ip="198.51.100.7")
        packet = _outbound(nat)
        assert packet.meta["nat_original_src"] == ("192.168.1.2", 5000)


class TestInbound:
    def test_reply_translated_back(self):
        nat = NAT44(public_ip="198.51.100.7")
        outbound = _outbound(nat)
        sink = Sink()
        nat.inbound.downstream = sink
        reply = make_tcp_packet(
            "93.184.216.34", 443, "198.51.100.7", outbound.l4.src_port
        )
        nat.inbound.push(reply)
        delivered = sink.packets[0]
        assert delivered.ip.dst == "192.168.1.2"
        assert delivered.l4.dst_port == 5000

    def test_unsolicited_inbound_dropped(self):
        nat = NAT44(public_ip="198.51.100.7")
        sink = Sink()
        nat.inbound.downstream = sink
        nat.inbound.push(make_tcp_packet("93.184.216.34", 443, "198.51.100.7", 40_000))
        assert sink.count == 0
        assert nat.dropped_inbound == 1


class TestLifecycle:
    def test_clear_drops_mappings(self):
        nat = NAT44(public_ip="198.51.100.7")
        _outbound(nat)
        nat.clear()
        assert not nat._by_private

    def test_port_pool_exhaustion(self):
        nat = NAT44(public_ip="198.51.100.7", port_range=(20_000, 20_003))
        for sport in range(5000, 5003):
            _outbound(nat, sport=sport)
        with pytest.raises(NatError):
            _outbound(nat, sport=5999)

    def test_bad_port_range_rejected(self):
        with pytest.raises(ValueError):
            NAT44(public_ip="1.2.3.4", port_range=(100, 50))

    def test_counters(self):
        nat = NAT44(public_ip="198.51.100.7")
        outbound = _outbound(nat)
        sink = Sink()
        nat.inbound.downstream = sink
        nat.inbound.push(
            make_tcp_packet("93.184.216.34", 443, "198.51.100.7", outbound.l4.src_port)
        )
        assert nat.translated_out == 1
        assert nat.translated_in == 1

    def test_non_ip_passthrough(self):
        from repro.netsim.packet import Packet

        nat = NAT44(public_ip="198.51.100.7")
        sink = Sink()
        nat.outbound.downstream = sink
        nat.outbound.push(Packet())
        assert sink.count == 1


def _ipv6(src, sport, dst, dport):
    from repro.netsim.headers import IPProto, IPv6Header, TCPHeader
    from repro.netsim.packet import Packet, stamp

    packet = Packet(
        ip=IPv6Header(src=src, dst=dst, next_header=IPProto.TCP),
        l4=TCPHeader(src_port=sport, dst_port=dport),
    )
    stamp(packet)
    return packet


@pytest.mark.parametrize("face", ["outbound", "inbound"])
def test_ipv6_passes_either_face_untouched(face):
    """NAT44 translates IPv4 only: an IPv6 packet keeps its addresses,
    ports and NIC stamp, makes no mapping and is not dropped."""
    nat = NAT44(public_ip="198.51.100.7")
    sink = Sink()
    element = getattr(nat, face)
    element.downstream = sink
    packet = _ipv6("2001:db8::2", 5000, "2001:db8::5", 443)
    before = (packet.ip.src, packet.l4.src_port, packet.ip.dst, packet.l4.dst_port)
    stamped = (packet.flow_key, packet.pkt_len)
    element.push(packet)
    assert sink.packets == [packet]
    assert (packet.ip.src, packet.l4.src_port, packet.ip.dst, packet.l4.dst_port) == before
    assert (packet.flow_key, packet.pkt_len) == stamped
    assert "nat_original_src" not in packet.meta
    assert not nat._by_private
    assert (nat.translated_out, nat.translated_in, nat.dropped_inbound) == (0, 0, 0)
