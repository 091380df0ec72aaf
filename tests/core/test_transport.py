"""Cookie transport tests: every carrier, the registry, overhead, failure
tolerance."""

import pytest

from repro.core.cookie import Cookie
from repro.core.descriptor import CookieDescriptor
from repro.core.errors import TransportError
from repro.core.generator import CookieGenerator
from repro.core.transport import (
    COOKIE_HEADER,
    SHIM_MAGIC,
    CookieShim,
    HttpHeaderCarrier,
    Ipv6ExtensionCarrier,
    TcpOptionCarrier,
    TlsExtensionCarrier,
    TransportRegistry,
    UdpShimCarrier,
    default_registry,
)
from repro.netsim.appmsg import HTTPRequest, TLSClientHello
from repro.netsim.headers import IPProto, IPv6Header, TCPHeader
from repro.netsim.packet import Packet, Payload, make_tcp_packet, make_udp_packet


@pytest.fixture
def cookie():
    descriptor = CookieDescriptor.create(service_data="Boost")
    return CookieGenerator(descriptor, clock=lambda: 1.0).generate()


def _http_packet():
    return make_tcp_packet(
        "10.0.0.1", 5000, "1.2.3.4", 80,
        content=HTTPRequest(host="example.com"), payload_size=300,
    )


def _tls_packet():
    return make_tcp_packet(
        "10.0.0.1", 5000, "1.2.3.4", 443,
        content=TLSClientHello(sni="example.com"), payload_size=300,
    )


def _ipv6_packet():
    return Packet(
        ip=IPv6Header(src="2001:db8::1", dst="2001:db8::2", next_header=IPProto.TCP),
        l4=TCPHeader(src_port=5000, dst_port=443),
        payload=Payload(size=100),
    )


class TestHttpCarrier:
    def test_roundtrip(self, cookie):
        carrier = HttpHeaderCarrier()
        packet = _http_packet()
        carrier.attach(packet, cookie)
        assert carrier.extract(packet) == [cookie]

    def test_header_is_base64_text(self, cookie):
        packet = _http_packet()
        HttpHeaderCarrier().attach(packet, cookie)
        assert packet.payload.content.header(COOKIE_HEADER) == cookie.to_text()

    def test_size_overhead_accounted(self, cookie):
        carrier = HttpHeaderCarrier()
        packet = _http_packet()
        before = packet.wire_length
        carrier.attach(packet, cookie)
        assert packet.wire_length == before + carrier.overhead_bytes

    def test_cannot_carry_tls(self, cookie):
        assert not HttpHeaderCarrier().can_carry(_tls_packet())
        with pytest.raises(TransportError):
            HttpHeaderCarrier().attach(_tls_packet(), cookie)

    def test_no_cookie_returns_none(self):
        assert not HttpHeaderCarrier().extract(_http_packet())

    def test_garbled_header_returns_none(self):
        packet = _http_packet()
        packet.payload.content.set_header(COOKIE_HEADER, "garbage!!")
        assert not HttpHeaderCarrier().extract(packet)


class TestTlsCarrier:
    def test_roundtrip(self, cookie):
        carrier = TlsExtensionCarrier()
        packet = _tls_packet()
        carrier.attach(packet, cookie)
        assert carrier.extract(packet) == [cookie]

    def test_cannot_carry_plain_http(self, cookie):
        assert not TlsExtensionCarrier().can_carry(_http_packet())

    def test_sni_untouched(self, cookie):
        packet = _tls_packet()
        TlsExtensionCarrier().attach(packet, cookie)
        assert packet.payload.content.sni == "example.com"

    def test_garbled_extension_returns_none(self):
        from repro.core.transport.tls import COOKIE_EXTENSION_TYPE

        packet = _tls_packet()
        packet.payload.content.extensions[COOKIE_EXTENSION_TYPE] = b"\xff\xfe"
        assert not TlsExtensionCarrier().extract(packet)


class TestIpv6Carrier:
    def test_roundtrip(self, cookie):
        carrier = Ipv6ExtensionCarrier()
        packet = _ipv6_packet()
        carrier.attach(packet, cookie)
        assert carrier.extract(packet) == [cookie]

    def test_cannot_carry_ipv4(self, cookie):
        assert not Ipv6ExtensionCarrier().can_carry(_http_packet())
        with pytest.raises(TransportError):
            Ipv6ExtensionCarrier().attach(_http_packet(), cookie)

    def test_extension_chain_preserved(self, cookie):
        packet = _ipv6_packet()
        Ipv6ExtensionCarrier().attach(packet, cookie)
        assert len(packet.ip.extensions) == 1
        assert packet.ip.extensions[0].next_header == IPProto.TCP

    def test_wire_length_grows(self, cookie):
        packet = _ipv6_packet()
        before = packet.wire_length
        Ipv6ExtensionCarrier().attach(packet, cookie)
        assert packet.wire_length > before


class TestTcpCarrier:
    def test_roundtrip(self, cookie):
        carrier = TcpOptionCarrier()
        packet = make_tcp_packet("10.0.0.1", 1, "2.2.2.2", 2, payload_size=50)
        carrier.attach(packet, cookie)
        assert carrier.extract(packet) == [cookie]

    def test_carries_on_encrypted_traffic(self, cookie):
        """The TCP option rides below TLS: works on fully opaque flows."""
        packet = make_tcp_packet(
            "10.0.0.1", 1, "2.2.2.2", 2, payload_size=500, encrypted=True
        )
        carrier = TcpOptionCarrier()
        carrier.attach(packet, cookie)
        assert carrier.extract(packet) == [cookie]

    def test_foreign_option_ignored(self):
        from repro.netsim.headers import TCPOption

        packet = make_tcp_packet("10.0.0.1", 1, "2.2.2.2", 2)
        packet.l4.options.append(TCPOption(kind=253, data=b"\x00\x01xx"))
        assert not TcpOptionCarrier().extract(packet)

    def test_cannot_carry_udp(self, cookie):
        packet = make_udp_packet("1.1.1.1", 1, "2.2.2.2", 2)
        assert not TcpOptionCarrier().can_carry(packet)


class TestUdpCarrier:
    def test_roundtrip(self, cookie):
        carrier = UdpShimCarrier()
        packet = make_udp_packet("1.1.1.1", 1, "2.2.2.2", 2, payload_size=100)
        carrier.attach(packet, cookie)
        assert carrier.extract(packet) == [cookie]

    def test_inner_content_preserved(self, cookie):
        packet = make_udp_packet(
            "1.1.1.1", 1, "2.2.2.2", 2, payload_size=100, content={"app": "data"}
        )
        UdpShimCarrier().attach(packet, cookie)
        assert isinstance(packet.payload.content, CookieShim)
        assert packet.payload.content.inner == {"app": "data"}

    def test_double_attach_rejected(self, cookie):
        packet = make_udp_packet("1.1.1.1", 1, "2.2.2.2", 2)
        UdpShimCarrier().attach(packet, cookie)
        with pytest.raises(TransportError):
            UdpShimCarrier().attach(packet, cookie)

    def test_udp_length_updated(self, cookie):
        packet = make_udp_packet("1.1.1.1", 1, "2.2.2.2", 2, payload_size=100)
        before = packet.l4.length
        UdpShimCarrier().attach(packet, cookie)
        assert packet.l4.length == before + UdpShimCarrier.overhead_bytes


@pytest.mark.contract
class TestFirstHitEqualsListHead:
    """Composed cookies come back from ``extract`` all, in attach order;
    the text carriers' whole-value fast path and their tolerant list
    parser agree on the values only the list parser accepts."""

    @staticmethod
    def _second():
        descriptor = CookieDescriptor.create(service_data="Other")
        return CookieGenerator(descriptor, clock=lambda: 2.0).generate()

    @pytest.mark.parametrize(
        "carrier, make_packet",
        [
            (HttpHeaderCarrier(), _http_packet),
            (TlsExtensionCarrier(), _tls_packet),
            (Ipv6ExtensionCarrier(), _ipv6_packet),
            (TcpOptionCarrier(), _tls_packet),
        ],
        ids=["http", "tls", "ipv6", "tcp"],
    )
    def test_composed_cookies_first_wins(self, cookie, carrier, make_packet):
        packet = make_packet()
        second = self._second()
        carrier.attach(packet, cookie)
        carrier.attach(packet, second)
        assert carrier.extract(packet) == [cookie, second]

    def test_padded_and_partly_garbled_text_values(self, cookie):
        from repro.core.transport.tls import COOKIE_EXTENSION_TYPE

        text = cookie.to_text()
        for value in (f" {text} ", f"garbage!!,{text}", f"{text},"):
            http = _http_packet()
            http.payload.content.set_header(COOKIE_HEADER, value)
            assert HttpHeaderCarrier().extract(http) == [cookie]
            tls = _tls_packet()
            tls.payload.content.extensions[COOKIE_EXTENSION_TYPE] = value.encode()
            assert TlsExtensionCarrier().extract(tls) == [cookie]

    def test_garbled_binary_cookie_skipped_for_the_next_one(self, cookie):
        from repro.core.transport.ipv6 import COOKIE_OPTION_TYPE
        from repro.core.transport.tcpopt import COOKIE_EXID, COOKIE_OPTION_KIND
        from repro.netsim.headers import IPv6ExtensionHeader, TCPOption

        ipv6 = _ipv6_packet()
        ipv6.ip.extensions.append(
            IPv6ExtensionHeader(
                next_header=ipv6.ip.next_header,
                option_type=COOKIE_OPTION_TYPE,
                data=b"short",
            )
        )
        Ipv6ExtensionCarrier().attach(ipv6, cookie)
        assert Ipv6ExtensionCarrier().extract(ipv6) == [cookie]

        tcp = _tls_packet()
        for data in (b"", b"N", COOKIE_EXID.to_bytes(2, "big") + b"short"):
            tcp.l4.options.append(TCPOption(kind=COOKIE_OPTION_KIND, data=data))
        TcpOptionCarrier().attach(tcp, cookie)
        assert TcpOptionCarrier().extract(tcp) == [cookie]


def _written(name, packet):
    """The bytes of the structure a carrier writes its cookies into."""
    if name in ("http", "tls"):
        return packet.payload.content.wire_size()
    if name == "ipv6":
        return packet.ip.wire_length
    if name == "tcp":
        return packet.l4.wire_length
    shim = packet.payload.content
    return len(SHIM_MAGIC) + len(shim.cookie_bytes) if shim is not None else 0


@pytest.mark.contract
@pytest.mark.parametrize(
    "carrier,make,growth",
    [
        (HttpHeaderCarrier(), _http_packet, (84, 149, 214)),
        (TlsExtensionCarrier(), _tls_packet, (68, 133, 198)),
        (Ipv6ExtensionCarrier(), _ipv6_packet, (56, 112, 168)),
        (TcpOptionCarrier(), lambda: make_tcp_packet("10.0.0.1", 5000, "1.2.3.4", 443),
         (52, 104, 156)),
        (UdpShimCarrier(), lambda: make_udp_packet("10.0.0.1", 5000, "1.2.3.4", 443),
         (52,)),
    ],
    ids=["http", "tls", "ipv6", "tcp", "udp"],
)
def test_carriers_bill_what_they_write(carrier, make, growth):
    """Invoiced bytes are delivered bytes: k composed cookies grow the
    packet by exactly what the carrier wrote — a text carrier's shared
    extension or header grows by a comma and the text, not by a second
    header's framing.  The UDP shim holds one cookie."""
    name = carrier.name
    generator = CookieGenerator(CookieDescriptor.create(), clock=lambda: 1.0)
    packet = make()
    wire, written = packet.wire_length, _written(name, packet)
    grew = []
    for _ in growth:
        carrier.attach(packet, generator.generate())
        assert packet.wire_length - wire == _written(name, packet) - written
        grew.append(packet.wire_length - wire)
    assert tuple(grew) == growth
    assert grew[0] == carrier.overhead_bytes
    if name == "udp":
        with pytest.raises(TransportError):
            carrier.attach(packet, generator.generate())


class TestRegistry:
    def test_default_registry_has_all_carriers(self):
        assert set(default_registry().names) == {"http", "tls", "udp", "ipv6", "tcp"}

    def test_http_preferred_for_plain_requests(self, cookie):
        registry = default_registry()
        assert registry.attach(_http_packet(), cookie) == "http"

    def test_tls_preferred_for_client_hello(self, cookie):
        registry = default_registry()
        assert registry.attach(_tls_packet(), cookie) == "tls"

    def test_tcp_fallback_for_opaque_tcp(self, cookie):
        registry = default_registry()
        packet = make_tcp_packet("1.1.1.1", 1, "2.2.2.2", 2, encrypted=True)
        assert registry.attach(packet, cookie) == "tcp"

    def test_allowed_filter_respected(self, cookie):
        registry = default_registry()
        packet = _tls_packet()
        # TLS not allowed: falls through to the TCP option carrier.
        assert registry.attach(packet, cookie, allowed=("tcp",)) == "tcp"

    def test_no_carrier_raises(self, cookie):
        registry = default_registry()
        with pytest.raises(TransportError):
            registry.attach(Packet(), cookie)

    def test_extract_scans_all(self, cookie):
        registry = default_registry()
        packet = _ipv6_packet()
        registry.attach(packet, cookie)
        assert registry.extract(packet) == [cookie]

    @pytest.mark.contract
    def test_extract_reads_the_first_carrier_that_holds_cookies(self, cookie):
        """The zero-rating boxes' scan stops at the first carrier with a
        hit; ``extract_all`` reads every carrier, in registry order."""
        registry = default_registry()
        packet = _tls_packet()
        second = TestFirstHitEqualsListHead._second()
        registry.attach(packet, cookie, allowed=("tcp",))
        registry.attach(packet, second, allowed=("tls",))
        assert registry.extract(packet) == [second]
        assert registry.extract_all(packet) == [second, cookie]

    def test_extract_none_for_clean_packet(self):
        assert not default_registry().extract(_http_packet())

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            TransportRegistry([HttpHeaderCarrier(), HttpHeaderCarrier()])
