"""DiffServ and out-of-band baseline tests: the paper's §3 failure modes."""

import pytest

from repro.baselines.diffserv import (
    BoundaryRemarker,
    DscpClassTable,
    DscpEnforcer,
    EndpointMarker,
    OpportunisticMarker,
)
from repro.baselines.oob import FlowDescription, OobController, OobSwitch
from repro.netsim.events import EventLoop
from repro.netsim.headers import DSCP_MAX
from repro.netsim.middlebox import Sink
from repro.netsim.packet import make_tcp_packet


def _packet(src="192.168.1.2", sport=5000, dst="93.184.216.34", dport=443, dscp=0):
    return make_tcp_packet(src, sport, dst, dport, dscp=dscp)


class TestDscpClassTable:
    def test_define_and_lookup(self):
        table = DscpClassTable()
        table.define(34, "premium")
        assert table.service_of(34) == "premium"
        assert table.service_of(35) is None

    def test_reserved_codepoints_protected(self):
        table = DscpClassTable()
        with pytest.raises(ValueError):
            table.define(46, "mine")  # EF is reserved internally

    def test_only_64_codepoints_exist(self):
        table = DscpClassTable()
        with pytest.raises(ValueError):
            table.define(DSCP_MAX + 1, "overflow")


class TestMarking:
    def test_endpoint_marker(self):
        marker = EndpointMarker(dscp=34)
        sink = Sink()
        marker >> sink
        marker.push(_packet())
        assert sink.packets[0].dscp == 34

    def test_selective_marking(self):
        marker = EndpointMarker(dscp=34, predicate=lambda p: p.dst_port == 443)
        sink = Sink()
        marker >> sink
        marker.push(_packet(dport=443))
        marker.push(_packet(dport=80))
        assert sink.packets[0].dscp == 34
        assert sink.packets[1].dscp == 0

    def test_no_authentication_anywhere(self):
        """The legacy-console scenario: unauthorized marking obtains the
        premium class; the user cannot revoke it."""
        table = DscpClassTable()
        table.define(34, "premium-charged")
        console = OpportunisticMarker(dscp=34)
        enforcer = DscpEnforcer(table)
        sink = Sink()
        console >> enforcer
        enforcer >> sink
        console.push(_packet())
        assert sink.packets[0].meta["service"] == "premium-charged"

    def test_bad_dscp_rejected(self):
        with pytest.raises(ValueError):
            EndpointMarker(dscp=99)


class TestBoundary:
    def test_bleach_resets_marks(self):
        boundary = BoundaryRemarker(mode="bleach")
        sink = Sink()
        boundary >> sink
        boundary.push(_packet(dscp=34))
        assert sink.packets[0].dscp == 0
        assert boundary.rewritten == 1

    def test_remap(self):
        boundary = BoundaryRemarker(mode="remap", remap={34: 10})
        sink = Sink()
        boundary >> sink
        boundary.push(_packet(dscp=34))
        boundary.push(_packet(dscp=5))  # unmapped -> 0
        assert sink.packets[0].dscp == 10
        assert sink.packets[1].dscp == 0

    def test_trust_passes_through(self):
        boundary = BoundaryRemarker(mode="trust")
        sink = Sink()
        boundary >> sink
        boundary.push(_packet(dscp=34))
        assert sink.packets[0].dscp == 34

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            BoundaryRemarker(mode="magic")


class TestEnforcer:
    def test_maps_to_qos_class(self):
        table = DscpClassTable()
        table.define(34, "video")
        enforcer = DscpEnforcer(table, class_to_level={"video": 0})
        sink = Sink()
        enforcer >> sink
        enforcer.push(_packet(dscp=34))
        assert sink.packets[0].meta["qos_class"] == 0


def _served(description, packet):
    """Whether an OOB switch holding only ``description`` serves ``packet``."""
    switch = OobSwitch()
    switch.install_rule(description, "service")
    return switch.service_of(packet) == "service"


class TestFlowDescription:
    def test_full_tuple_matches_exact(self):
        packet = _packet()
        description = FlowDescription.of_packet(packet, mode="full_tuple")
        assert _served(description, packet)

    def test_full_tuple_matches_reverse(self):
        packet = _packet()
        description = FlowDescription.of_packet(packet, mode="full_tuple")
        reply = _packet(
            src=packet.dst_ip, sport=packet.dst_port,
            dst=packet.src_ip, dport=packet.src_port,
        )
        assert _served(description, reply)

    def test_full_tuple_broken_by_nat(self):
        pre_nat = _packet()
        description = FlowDescription.of_packet(pre_nat, mode="full_tuple")
        post_nat = _packet(src="198.51.100.7", sport=23456)
        assert not _served(description, post_nat)

    def test_dst_only_survives_nat(self):
        pre_nat = _packet()
        description = FlowDescription.of_packet(pre_nat, mode="dst_only")
        post_nat = _packet(src="198.51.100.7", sport=23456)
        assert _served(description, post_nat)

    def test_dst_only_false_positive(self):
        """The workaround's cost: another host's flow to the same server
        also matches."""
        description = FlowDescription.of_packet(_packet(), mode="dst_only")
        other = _packet(src="172.16.0.9", sport=1111)
        assert _served(description, other)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            FlowDescription.of_packet(_packet(), mode="fuzzy")


class TestControllerAndSwitch:
    def test_immediate_install_without_loop(self):
        switch = OobSwitch()
        controller = OobController(switch)
        controller.request_service(
            "alice", FlowDescription(dst_ip="1.2.3.4", dst_port=443), "boost"
        )
        assert switch.service_of(_packet(dst="1.2.3.4")) == "boost"

    def test_signaling_latency_with_loop(self):
        loop = EventLoop()
        switch = OobSwitch()
        controller = OobController(switch, loop=loop, signaling_latency=0.05)
        controller.request_service(
            "alice", FlowDescription(dst_ip="1.2.3.4", dst_port=443), "boost"
        )
        # Rule not yet installed: packets race the control plane.
        assert switch.service_of(_packet(dst="1.2.3.4")) is None
        loop.run_until_idle()
        assert switch.service_of(_packet(dst="1.2.3.4")) == "boost"

    def test_authentication_hook(self):
        switch = OobSwitch()
        controller = OobController(
            switch, authenticate=lambda user: user == "alice"
        )
        assert not controller.request_service(
            "mallory", FlowDescription(dst_ip="1.1.1.1"), "boost"
        )
        assert controller.stats.rules_installed == 0

    def test_withdraw_rule(self):
        switch = OobSwitch()
        controller = OobController(switch)
        description = FlowDescription(dst_ip="1.2.3.4", dst_port=443)
        controller.request_service("alice", description, "boost")
        controller.withdraw_service(description)
        assert switch.service_of(_packet(dst="1.2.3.4")) is None

    def test_switch_marks_matching_packets(self):
        switch = OobSwitch()
        switch.install_rule(FlowDescription(dst_ip="1.2.3.4", dst_port=443), "boost")
        sink = Sink()
        switch >> sink
        switch.push(_packet(dst="1.2.3.4"))
        switch.push(_packet(dst="5.6.7.8"))
        assert sink.packets[0].meta.get("qos_class") == 0
        assert "qos_class" not in sink.packets[1].meta
        assert switch.matched == 1

    def test_control_message_accounting(self):
        """One controller transaction per flow: loading cnn.com = 255
        rule installations."""
        switch = OobSwitch()
        controller = OobController(switch)
        for port in range(255):
            controller.request_service(
                "alice", FlowDescription(dst_ip="1.2.3.4", dst_port=port), "boost"
            )
        assert controller.stats.rules_requested == 255
        assert controller.stats.control_messages == 255
