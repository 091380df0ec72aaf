"""Page model and site catalog tests: the published numbers are exact."""

import pytest

from repro.web.page import PageModel, ResourceFlow, ServerInfo
from repro.web.sites import (
    PUBLISHED_PAGE_STATS,
    build_cnn,
    build_facebook_background,
    build_skai,
    build_youtube,
    site_catalog,
)


def _server(hostname="a.example.com", ip="1.2.3.4", operator="example"):
    return ServerInfo(hostname=hostname, ip=ip, operator=operator)


class TestResourceFlow:
    def test_total_packets(self):
        flow = ResourceFlow(server=_server(), request_packets=2, response_packets=8)
        assert flow.total_packets == 10

    def test_sni_defaults_to_hostname(self):
        flow = ResourceFlow(server=_server())
        assert flow.sni == "a.example.com"
        assert flow.url_host == "a.example.com"

    def test_sni_override(self):
        flow = ResourceFlow(server=_server(), sni="media.cnn.com")
        assert flow.sni == "media.cnn.com"

    def test_needs_request_packet(self):
        with pytest.raises(ValueError):
            ResourceFlow(server=_server(), request_packets=0)


class TestPageModel:
    def test_counts_exclude_auxiliary(self):
        page = PageModel(domain="x.com")
        page.add(ResourceFlow(server=_server(), response_packets=8))
        page.add(ResourceFlow(server=_server(), kind="dns", response_packets=1))
        assert page.flow_count == 1
        assert page.packet_count == 10
        assert sum(f.total_packets for f in page.flows) == 13

    def test_server_count_dedupes_by_ip(self):
        page = PageModel(domain="x.com")
        server = _server()
        page.add(ResourceFlow(server=server))
        page.add(ResourceFlow(server=server))
        assert page.server_count == 1

    def test_packets_by_operator(self):
        page = PageModel(domain="x.com")
        page.add(ResourceFlow(server=_server(operator="cnn"), response_packets=8))
        page.add(ResourceFlow(server=_server(ip="5.6.7.8", operator="akamai"),
                              response_packets=3))
        by_operator = page.packets_by_operator()
        assert by_operator["cnn"] == 10
        assert by_operator["akamai"] == 5


class TestPublishedStats:
    def test_cnn_matches_paper(self):
        page = build_cnn()
        assert page.summary() == PUBLISHED_PAGE_STATS["cnn.com"]

    def test_youtube_matches_paper(self):
        page = build_youtube()
        assert page.flow_count == 80
        assert page.packet_count == 3750

    def test_skai_matches_paper(self):
        page = build_skai()
        assert page.flow_count == 83
        assert page.packet_count == 1983

    def test_cnn_origin_packets_are_605(self):
        """§3: nDPI marked "only packets coming from CNN servers, which
        summed up to 605 packets (less than 10%)"."""
        page = build_cnn()
        assert page.packets_by_operator()["cnn"] == 605
        assert page.packets_by_operator()["cnn"] / page.packet_count < 0.10

    def test_cnn_sni_visible_fraction_is_18_percent(self):
        """Origin + Akamai-hosted-with-cnn-SNI is Fig. 6's nDPI bar."""
        page = build_cnn()
        sni_visible = sum(
            f.total_packets for f in page.web_flows if f.sni.endswith("cnn.com")
        )
        assert sni_visible / page.packet_count == pytest.approx(0.18, abs=0.002)

    def test_skai_embeds_youtube_at_12_percent(self):
        """Fig. 6: nDPI "matched 12% of packets from skai.gr" as YouTube."""
        page = build_skai()
        youtube_packets = sum(
            f.total_packets
            for f in page.web_flows
            if f.server.operator == "youtube"
        )
        assert youtube_packets / page.packet_count == pytest.approx(0.12, abs=0.002)

    def test_facebook_overlaps_cnn_servers(self):
        cnn_ips = {f.server.ip for f in build_cnn().web_flows}
        background = build_facebook_background()
        overlap = sum(
            f.total_packets
            for f in background.web_flows
            if f.server.ip in cnn_ips
        )
        assert overlap / background.packet_count > 0.5

    def test_catalog_contains_all_sites(self):
        catalog = site_catalog()
        assert set(catalog) == {
            "cnn.com",
            "youtube.com",
            "skai.gr",
            "facebook.com",
        }

    def test_cdn_cohosting_is_real(self):
        """The same Akamai IPs serve cnn, skai, and facebook content."""
        catalog = site_catalog()
        akamai_ips_per_site = {
            name: {
                f.server.ip
                for f in page.web_flows
                if f.server.operator == "akamai"
            }
            for name, page in catalog.items()
        }
        shared = (
            akamai_ips_per_site["cnn.com"]
            & akamai_ips_per_site["skai.gr"]
            & akamai_ips_per_site["facebook.com"]
        )
        assert shared

    def test_builders_are_deterministic(self):
        a, b = build_cnn(), build_cnn()
        assert [f.total_packets for f in a.flows] == [
            f.total_packets for f in b.flows
        ]

    def test_pages_include_dns_and_prefetch(self):
        page = build_cnn()
        kinds = {f.kind for f in page.flows}
        assert {"dns", "prefetch"} <= kinds
