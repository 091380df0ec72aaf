"""DPI engine tests: classification paths and structural limitations."""

from repro.baselines.dpi import DpiBooster, DpiEngine
from repro.baselines.dpi_rules import DpiRule, NDPI_KNOWN_APPS, default_rule_db
from repro.netsim.appmsg import HTTPRequest, TLSClientHello
from repro.netsim.middlebox import Sink
from repro.netsim.packet import make_tcp_packet, make_udp_packet


def _tls(sni, sport=5000, dst="1.2.3.4"):
    return make_tcp_packet(
        "10.0.0.1", sport, dst, 443, content=TLSClientHello(sni=sni)
    )


class TestRules:
    def test_suffix_matching(self):
        rule = DpiRule("youtube", sni_suffixes=("youtube.com",))
        assert rule.matches_name("www.youtube.com")
        assert rule.matches_name("youtube.com")
        assert not rule.matches_name("notyoutube.com")
        assert not rule.matches_name("youtube.com.evil.example")

    def test_case_insensitive(self):
        rule = DpiRule("cnn", sni_suffixes=("cnn.com",))
        assert rule.matches_name("WWW.CNN.COM")

    def test_ip_prefix(self):
        rule = DpiRule("x", ip_prefixes=("10.1.",))
        assert rule.matches_ip("10.1.2.3")
        assert not rule.matches_ip("10.2.2.3")

    def test_default_db_covers_popular_apps(self):
        apps = {rule.app for rule in default_rule_db()}
        for expected in ("youtube", "netflix", "facebook", "cnn", "spotify"):
            assert expected in apps

    def test_default_db_misses_the_tail(self):
        apps = {rule.app for rule in default_rule_db()}
        assert "skai" not in apps
        assert "indie103" not in apps

    def test_ndpi_known_apps_is_23(self):
        assert len(NDPI_KNOWN_APPS) == 23


class TestClassification:
    def test_sni_classification(self):
        engine = DpiEngine()
        assert engine.label_of(_tls("www.youtube.com")) == "youtube"

    def test_http_host_classification(self):
        engine = DpiEngine()
        packet = make_tcp_packet(
            "10.0.0.1", 5000, "1.2.3.4", 80, content=HTTPRequest(host="www.cnn.com")
        )
        assert engine.label_of(packet) == "cnn"

    def test_encrypted_payload_invisible(self):
        engine = DpiEngine()
        packet = make_tcp_packet(
            "10.0.0.1", 5000, "1.2.3.4", 443, payload_size=1000, encrypted=True
        )
        assert engine.label_of(packet) is None

    def test_port_classification(self):
        engine = DpiEngine()
        packet = make_udp_packet("10.0.0.1", 5000, "8.8.8.8", 53, payload_size=60)
        assert engine.label_of(packet) == "dns"

    def test_unknown_site_unlabelled(self):
        engine = DpiEngine()
        assert engine.label_of(_tls("www.skai.gr")) is None

    def test_googlevideo_attributed_to_youtube(self):
        """The false-positive mechanism: an embedded player's CDN flows
        carry googlevideo SNI and are labelled youtube regardless of the
        embedding page."""
        engine = DpiEngine()
        assert engine.label_of(_tls("r3.googlevideo.com")) == "youtube"

    def test_flow_label_sticks(self):
        engine = DpiEngine()
        hello = _tls("www.youtube.com", sport=6000)
        engine.label_of(hello)
        # Later opaque packet of the same flow keeps the label.
        data = make_tcp_packet(
            "10.0.0.1", 6000, "1.2.3.4", 443, payload_size=1200, encrypted=True
        )
        assert engine.label_of(data) == "youtube"

    def test_reverse_direction_shares_label(self):
        engine = DpiEngine()
        engine.label_of(_tls("www.youtube.com", sport=6001))
        reverse = make_tcp_packet(
            "1.2.3.4", 443, "10.0.0.1", 6001, payload_size=1200, encrypted=True
        )
        assert engine.label_of(reverse) == "youtube"

    def test_label_only_within_sniff_window(self):
        engine = DpiEngine()
        for _ in range(9):
            opaque = make_tcp_packet(
                "10.0.0.1", 6002, "1.2.3.4", 443, payload_size=100, encrypted=True
            )
            engine.label_of(opaque)
        late_hello = _tls("www.youtube.com", sport=6002)
        assert engine.label_of(late_hello) is None

    def test_stats(self):
        engine = DpiEngine()
        engine.label_of(_tls("www.youtube.com"))
        assert engine.stats.flows_labelled == 1
        assert engine.stats.packets_labelled == 1


class TestBooster:
    def test_boosts_target_app(self):
        engine = DpiEngine()
        booster = DpiBooster(engine, target_app="youtube")
        sink = Sink()
        booster >> sink
        booster.push(_tls("www.youtube.com"))
        booster.push(_tls("www.cnn.com", sport=5001))
        assert sink.packets[0].meta.get("qos_class") == 0
        assert "qos_class" not in sink.packets[1].meta
        assert booster.boosted == 1
