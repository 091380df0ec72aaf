"""Application message model tests: HTTP, TLS ClientHello visibility."""

from repro.netsim.appmsg import HTTPRequest, TLSClientHello, TLSRecord


class TestHTTPRequest:
    def test_case_insensitive_header_lookup(self):
        request = HTTPRequest(headers={"X-Network-Cookie": "abc"})
        assert request.header("x-network-cookie") == "abc"
        assert request.header("X-NETWORK-COOKIE") == "abc"

    def test_missing_header(self):
        assert HTTPRequest().header("nope") is None

    def test_set_header_replaces_case_variants(self):
        request = HTTPRequest(headers={"x-foo": "1"})
        request.set_header("X-Foo", "2")
        assert len(request.headers) == 1
        assert request.header("x-foo") == "2"

    def test_wire_size_grows_with_headers(self):
        bare = HTTPRequest(host="example.com")
        loaded = HTTPRequest(
            host="example.com", headers={"X-Network-Cookie": "A" * 64}
        )
        assert loaded.wire_size() > bare.wire_size()


class TestTLS:
    def test_client_hello_size_includes_extensions(self):
        bare = TLSClientHello(sni="example.com")
        extended = TLSClientHello(
            sni="example.com", extensions={0xFFCE: b"x" * 64}
        )
        assert extended.wire_size() == bare.wire_size() + 4 + 64

    def test_record_is_opaque(self):
        record = TLSRecord(size=1400)
        assert record.size == 1400
        assert not hasattr(record, "sni")
