"""Browser tests: packet generation, hook vantage point, ground truth."""

from repro.netsim.appmsg import HTTPRequest, TLSClientHello
from repro.netsim.headers import IPProto
from repro.web.browser import Browser
from repro.web.page import PageModel, ResourceFlow, ServerInfo
from repro.web.sites import build_cnn


def _page(https=True, kind="asset", flows=1, response_packets=3):
    page = PageModel(domain="example.com")
    for i in range(flows):
        page.add(
            ResourceFlow(
                server=ServerInfo(
                    hostname=f"s{i}.example.com", ip=f"9.9.9.{i + 1}", operator="ex"
                ),
                request_packets=2,
                response_packets=response_packets,
                https=https,
                kind=kind,
            )
        )
    return page


class TestPacketGeneration:
    def test_packet_count_matches_page(self):
        page = _page(flows=3)
        browser = Browser()
        packets = browser.load_page(browser.open_tab("example.com"), page)
        assert len(packets) == sum(f.total_packets for f in page.flows)

    def test_directions_annotated(self):
        browser = Browser()
        packets = browser.load_page(browser.open_tab("x"), _page())
        ups = [p for p in packets if p.meta["direction"] == "up"]
        downs = [p for p in packets if p.meta["direction"] == "down"]
        assert len(ups) == 2 and len(downs) == 3

    def test_https_first_packet_is_client_hello_with_sni(self):
        browser = Browser()
        packets = browser.load_page(browser.open_tab("x"), _page(https=True))
        first_up = next(p for p in packets if p.meta["direction"] == "up")
        assert isinstance(first_up.payload.content, TLSClientHello)
        assert first_up.payload.content.sni == "s0.example.com"

    def test_http_first_packet_is_request_with_host(self):
        browser = Browser()
        packets = browser.load_page(browser.open_tab("x"), _page(https=False))
        first_up = next(p for p in packets if p.meta["direction"] == "up")
        assert isinstance(first_up.payload.content, HTTPRequest)
        assert first_up.payload.content.host == "s0.example.com"

    def test_ground_truth_site_annotated(self):
        browser = Browser()
        packets = browser.load_page(browser.open_tab("x"), _page())
        assert all(p.meta["site"] == "example.com" for p in packets)

    def test_flows_get_distinct_ephemeral_ports(self):
        browser = Browser()
        packets = browser.load_page(browser.open_tab("x"), _page(flows=5))
        ports = {
            p.l4.src_port for p in packets if p.meta["direction"] == "up"
        }
        assert len(ports) == 5

    def test_request_precedes_responses_per_flow(self):
        browser = Browser()
        packets = browser.load_page(browser.open_tab("x"), _page(flows=2))
        seen_response = set()
        for packet in packets:
            key = (
                packet.l4.src_port
                if packet.meta["direction"] == "up"
                else packet.l4.dst_port
            )
            if packet.meta["direction"] == "down":
                seen_response.add(key)
            else:
                assert key not in seen_response or packet.meta["direction"] == "up"

    def test_flows_interleaved(self):
        """Responses from different flows interleave (concurrent loading)."""
        browser = Browser()
        packets = browser.load_page(
            browser.open_tab("x"), _page(flows=2, response_packets=5)
        )
        down_ports = [
            p.l4.dst_port for p in packets if p.meta["direction"] == "down"
        ]
        # Not all of flow A's responses before flow B's.
        assert down_ports != sorted(down_ports)

    def test_dns_flows_are_udp_port_53(self):
        browser = Browser()
        page = build_cnn()
        packets = browser.load_page(browser.open_tab("cnn.com"), page)
        dns = [p for p in packets if p.meta["kind"] == "dns"]
        assert dns
        assert all(
            (p.l4.dst_port == 53 or p.l4.src_port == 53) and p.proto == IPProto.UDP
            for p in dns
        )


class TestHooks:
    def test_hook_fires_once_per_web_flow(self):
        browser = Browser()
        calls = []
        browser.on_request(lambda packet, ctx: calls.append(ctx))
        page = _page(flows=4)
        browser.load_page(browser.open_tab("example.com"), page)
        assert len(calls) == 4

    def test_hook_skips_dns_and_prefetch(self):
        browser = Browser()
        calls = []
        browser.on_request(lambda packet, ctx: calls.append(ctx))
        page = build_cnn()
        browser.load_page(browser.open_tab("cnn.com"), page)
        assert len(calls) == page.flow_count  # web flows only

    def test_hook_context_has_address_bar(self):
        browser = Browser()
        contexts = []
        browser.on_request(lambda packet, ctx: contexts.append(ctx))
        tab = browser.open_tab("initial")
        browser.load_page(tab, _page())
        assert contexts[0].address_bar_domain == "example.com"
        assert contexts[0].tab is tab

    def test_hook_can_mutate_packet(self):
        browser = Browser()
        browser.on_request(lambda packet, ctx: packet.meta.update(tagged=True))
        packets = browser.load_page(browser.open_tab("x"), _page())
        first_up = next(p for p in packets if p.meta["direction"] == "up")
        assert first_up.meta.get("tagged")


class TestTabs:
    def test_tab_ids_unique(self):
        browser = Browser()
        a, b = browser.open_tab("x"), browser.open_tab("y")
        assert a.tab_id != b.tab_id

    def test_load_updates_address_bar(self):
        browser = Browser()
        tab = browser.open_tab("start")
        browser.load_page(tab, _page())
        assert tab.address_bar == "example.com"
