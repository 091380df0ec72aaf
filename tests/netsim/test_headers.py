"""Header model tests: wire sizes, pack/unpack roundtrips, validation."""

import pytest
from hypothesis import given, strategies as st

from repro.netsim.headers import (
    DSCP_MAX,
    EthernetHeader,
    EtherType,
    HeaderError,
    IPProto,
    IPv4Header,
    IPv6ExtensionHeader,
    IPv6Header,
    TCPHeader,
    TCPOption,
    UDPHeader,
)


class TestEthernet:
    def test_wire_length(self):
        assert EthernetHeader().wire_length == 14

    def test_pack_unpack_roundtrip(self):
        header = EthernetHeader(
            src_mac="aa:bb:cc:dd:ee:ff",
            dst_mac="11:22:33:44:55:66",
            ethertype=EtherType.IPV6,
        )
        recovered = EthernetHeader.unpack(header.pack())
        assert recovered == header

    def test_truncated_raises(self):
        with pytest.raises(HeaderError):
            EthernetHeader.unpack(b"\x00" * 10)

    def test_bad_mac_raises(self):
        with pytest.raises(HeaderError):
            EthernetHeader(src_mac="not-a-mac").pack()


class TestIPv4:
    def test_wire_length(self):
        assert IPv4Header().wire_length == 20

    def test_pack_unpack_roundtrip(self):
        header = IPv4Header(
            src="192.168.1.2",
            dst="8.8.8.8",
            proto=IPProto.UDP,
            ttl=17,
            dscp=46,
            ecn=1,
            total_length=1500,
            ident=4242,
        )
        assert IPv4Header.unpack(header.pack()) == header

    def test_tos_combines_dscp_and_ecn(self):
        header = IPv4Header(dscp=46, ecn=2)
        assert header.tos == (46 << 2) | 2

    @pytest.mark.parametrize("dscp", [-1, 64, 100])
    def test_dscp_out_of_range(self, dscp):
        with pytest.raises(HeaderError):
            IPv4Header(dscp=dscp)

    def test_ecn_out_of_range(self):
        with pytest.raises(HeaderError):
            IPv4Header(ecn=4)

    def test_bad_address_raises(self):
        with pytest.raises(HeaderError):
            IPv4Header(src="300.1.1.1").pack()

    def test_unpack_rejects_non_v4(self):
        data = bytearray(IPv4Header().pack())
        data[0] = 0x65  # version 6
        with pytest.raises(HeaderError):
            IPv4Header.unpack(bytes(data))

    @given(
        src=st.tuples(*([st.integers(0, 255)] * 4)),
        dst=st.tuples(*([st.integers(0, 255)] * 4)),
        dscp=st.integers(0, DSCP_MAX),
        ttl=st.integers(0, 255),
    )
    def test_roundtrip_property(self, src, dst, dscp, ttl):
        header = IPv4Header(
            src=".".join(map(str, src)),
            dst=".".join(map(str, dst)),
            dscp=dscp,
            ttl=ttl,
        )
        assert IPv4Header.unpack(header.pack()) == header


class TestIPv6:
    def test_base_wire_length(self):
        assert IPv6Header().wire_length == 40

    def test_dscp_lives_in_traffic_class(self):
        header = IPv6Header()
        header.dscp = 34
        assert header.dscp == 34
        assert header.traffic_class == 34 << 2

    def test_dscp_preserves_ecn_bits(self):
        header = IPv6Header(traffic_class=0b11)  # ECN bits set
        header.dscp = 10
        assert header.traffic_class & 0b11 == 0b11

    def test_extension_adds_padded_length(self):
        ext = IPv6ExtensionHeader(data=b"x" * 48)
        header = IPv6Header(extensions=[ext])
        assert header.wire_length == 40 + ext.wire_length
        assert ext.wire_length % 8 == 0

    def test_dscp_out_of_range(self):
        header = IPv6Header()
        with pytest.raises(HeaderError):
            header.dscp = 64


class TestIPv6Extension:
    def test_pack_unpack_roundtrip(self):
        ext = IPv6ExtensionHeader(next_header=6, option_type=0x1E, data=b"cookie!")
        recovered = IPv6ExtensionHeader.unpack(ext.pack())
        assert recovered.data == ext.data
        assert recovered.option_type == ext.option_type
        assert recovered.next_header == ext.next_header

    def test_pack_pads_to_eight_bytes(self):
        ext = IPv6ExtensionHeader(data=b"abc")
        assert len(ext.pack()) % 8 == 0

    def test_oversized_data_raises(self):
        with pytest.raises(HeaderError):
            IPv6ExtensionHeader(data=b"x" * 256).pack()

    def test_truncated_unpack_raises(self):
        with pytest.raises(HeaderError):
            IPv6ExtensionHeader.unpack(b"\x06")

    @given(data=st.binary(min_size=0, max_size=255))
    def test_roundtrip_property(self, data):
        ext = IPv6ExtensionHeader(data=data)
        assert IPv6ExtensionHeader.unpack(ext.pack()).data == data


class TestTCP:
    def test_base_wire_length(self):
        assert TCPHeader().wire_length == 20

    def test_options_padded_to_words(self):
        header = TCPHeader(options=[TCPOption(kind=253, data=b"abc")])
        # 2 + 3 = 5 bytes of options -> padded to 8
        assert header.wire_length == 28

    def test_nop_option_is_one_byte(self):
        assert TCPOption(kind=1).wire_length == 1

    def test_option_too_long_raises(self):
        with pytest.raises(HeaderError):
            TCPOption(kind=253, data=b"x" * 254).pack()


class TestUDP:
    def test_wire_length(self):
        assert UDPHeader().wire_length == 8

    def test_pack_unpack_roundtrip(self):
        header = UDPHeader(src_port=1234, dst_port=53, length=80)
        assert UDPHeader.unpack(header.pack()) == header

    def test_truncated_raises(self):
        with pytest.raises(HeaderError):
            UDPHeader.unpack(b"\x01\x02")
