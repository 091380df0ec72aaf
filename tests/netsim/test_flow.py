"""Flow table tests, and the contract that every box keys a flow by the
NIC's stamp."""

import pytest
from hypothesis import given, strategies as st

from repro.core import CookieDescriptor, CookieMatcher, DescriptorStore
from repro.core.generator import CookieGenerator
from repro.core.offload import HardwarePrefilter
from repro.core.switch import CookieSwitch
from repro.core.transport import default_registry
from repro.netsim.appmsg import TLSClientHello
from repro.netsim.events import EventLoop
from repro.baselines.dpi import DpiEngine
from repro.netsim import flow as flow_module
from repro.netsim.flow import FlowTable
from repro.netsim.headers import IPProto, IPv4Header
from repro.netsim.middlebox import Sink
from repro.netsim.nat import NAT44
from repro.netsim.packet import Packet, Payload, make_tcp_packet, stamp
from repro.services.anylink import AnyLinkProxy
from repro.services.zerorate import ZeroRatingMiddlebox

PUBLIC = "198.51.100.7"
SERVER = "93.184.216.34"

ips = st.tuples(*([st.integers(0, 255)] * 4)).map(lambda t: ".".join(map(str, t)))
ports = st.integers(0, 65535)


@given(src=ips, sport=ports, dst=ips, dport=ports)
def test_both_directions_share_one_key_lower_endpoint_first(src, sport, dst, dport):
    key = stamp(make_tcp_packet(src, sport, dst, dport))
    assert key == stamp(make_tcp_packet(dst, dport, src, sport))
    low, high = sorted([(src, sport), (dst, dport)])
    assert key == (*low, *high, IPProto.TCP)


class TestFlowTable:
    def test_new_flow_detected(self):
        table = FlowTable()
        packet = make_tcp_packet("1.1.1.1", 1, "2.2.2.2", 2)
        flow, is_new = table.observe(packet, now=0.0)
        assert is_new and flow.packets == 1

    def test_same_flow_not_new(self):
        table = FlowTable()
        packet = make_tcp_packet("1.1.1.1", 1, "2.2.2.2", 2)
        table.observe(packet, now=0.0)
        _flow, is_new = table.observe(packet, now=0.1)
        assert not is_new

    def test_reverse_direction_same_flow(self):
        table = FlowTable()
        forward = make_tcp_packet("1.1.1.1", 1, "2.2.2.2", 2, payload_size=10)
        reverse = make_tcp_packet("2.2.2.2", 2, "1.1.1.1", 1, payload_size=20)
        flow, _ = table.observe(forward, now=0.0)
        same, is_new = table.observe(reverse, now=0.1)
        assert same is flow and not is_new
        assert flow.packets_forward == 1 and flow.packets_reverse == 1

    def test_byte_counters(self):
        table = FlowTable()
        packet = make_tcp_packet("1.1.1.1", 1, "2.2.2.2", 2, payload_size=60)
        flow, _ = table.observe(packet, now=0.0)
        assert flow.bytes == packet.wire_length

    def test_idle_timeout_creates_new_flow(self):
        table = FlowTable(idle_timeout=10.0)
        packet = make_tcp_packet("1.1.1.1", 1, "2.2.2.2", 2)
        old, _ = table.observe(packet, now=0.0)
        fresh, is_new = table.observe(packet, now=20.0)
        assert is_new and fresh is not old
        assert table.evicted_count == 1

    def test_a_new_flow_evicts_idle_flows_least_recent_first(self):
        """Recency, not creation, orders the table: flow A, seen again
        at 4 s, outlives flow B, first seen after it but idle since 1 s."""
        table = FlowTable(idle_timeout=5.0)
        a = make_tcp_packet("1.1.1.1", 1, "2.2.2.2", 2)
        table.observe(a, now=0.0)
        table.observe(make_tcp_packet("3.3.3.3", 1, "4.4.4.4", 2), now=1.0)
        table.observe(a, now=4.0)
        table.observe(make_tcp_packet("5.5.5.5", 1, "6.6.6.6", 2), now=7.0)
        assert [flow.key[0] for flow in table] == ["1.1.1.1", "5.5.5.5"]
        assert table.evicted_count == 1

    def test_bad_timeout_rejected(self):
        with pytest.raises(ValueError):
            FlowTable(idle_timeout=0)

    def test_flow_key_of_canonicalizes(self):
        forward = make_tcp_packet("1.1.1.1", 1, "2.2.2.2", 2)
        reverse = make_tcp_packet("2.2.2.2", 2, "1.1.1.1", 1)
        assert stamp(forward) == stamp(reverse)

    def test_iteration(self):
        table = FlowTable()
        table.observe(make_tcp_packet("1.1.1.1", 1, "2.2.2.2", 2), now=0.0)
        table.observe(make_tcp_packet("3.3.3.3", 3, "4.4.4.4", 4), now=0.0)
        assert len(list(table)) == 2


@pytest.mark.contract
class TestBoundedFlowTables:
    def test_one_packet_flows_age_out_of_switch_and_dpi(self):
        """20 000 one-packet flows, one a second: a 60 s idle timeout
        leaves the last 61 in each table, however many came before."""
        now = [0.0]
        switch = CookieSwitch(
            CookieMatcher(DescriptorStore()), clock=lambda: now[0]
        )
        switch >> Sink()
        dpi = DpiEngine(clock=lambda: now[0])
        dpi >> Sink()
        for second in range(20_000):
            now[0] = float(second)
            for box in (switch, dpi):
                box.push(make_tcp_packet("10.0.0.1", 1024 + second, SERVER, 443))
        for box in (switch, dpi):
            assert (len(box.flows), box.flows.evicted_count) == (61, 19_939)

    def test_a_full_table_evicts_the_least_recently_seen(self, monkeypatch):
        monkeypatch.setattr(flow_module, "MAX_FLOWS", 4)
        table = FlowTable()
        for now, port in enumerate([0, 1, 2, 3, 0, 4, 5, 0, 6, 7, 8, 0, 9]):
            table.observe(make_tcp_packet("10.0.0.1", port, SERVER, 443), now)
        assert [flow.key[1] for flow in table] == [7, 8, 0, 9]
        assert table.evicted_count == 6


# ----------------------------------------------------------------------
# One key across the boxes
# ----------------------------------------------------------------------
def _directional(packet):
    """The key the flow table used before the stamp: the packet's own
    direction, protocol from its transport header."""
    return (packet.ip.src, packet.l4.src_port, packet.ip.dst,
            packet.l4.dst_port, packet.proto)


endpoints = st.tuples(
    st.sampled_from(["10.0.0.1", "10.0.0.2", SERVER]), st.sampled_from([443, 40000])
)

NO_FLOW = {
    "no IP header": lambda: Packet(payload=Payload(size=5)),
    "no transport header": lambda: Packet(
        ip=IPv4Header(src="10.0.0.1", dst=SERVER), payload=Payload(size=5)
    ),
}


@pytest.mark.contract
class TestOneKeyAcrossTheBoxes:
    def test_a_natted_flow_has_the_same_key_in_every_box(self):
        """NAT clears the stamp; each box stamps on read and keys the
        flow by the post-NAT tuple."""
        store = DescriptorStore()
        descriptor = store.add(CookieDescriptor.create(service_data="3g"))
        private = make_tcp_packet(
            "10.0.0.1", 40000, SERVER, 443, payload_size=100,
            content=TLSClientHello(sni="app.example.com"),
        )
        default_registry().attach(
            private, CookieGenerator(descriptor, clock=lambda: 0.0).generate()
        )
        nat = NAT44(PUBLIC)
        wan = nat.outbound >> Sink()
        nat.outbound.push(private)
        (natted,) = wan.packets
        assert natted.flow_key is None
        port = nat.mapping_for_private("10.0.0.1", 40000, IPProto.TCP).public_port
        key = (PUBLIC, port, SERVER, 443, IPProto.TCP)
        # One unstamped copy per box, so each box stamps on its own read.
        for_table, for_switch, for_prefilter, for_anylink, for_box = (
            natted.clone() for _ in range(5)
        )

        flow, is_new = FlowTable().observe(for_table, now=0.0)
        assert is_new and flow.key == key and for_table.flow_key == key
        assert flow.initiator == (PUBLIC, port)

        cookie_switch = CookieSwitch(CookieMatcher(store), clock=lambda: 0.0)
        cookie_switch >> Sink()
        cookie_switch.push(for_switch)
        assert [flow.key for flow in cookie_switch.flows] == [key]
        assert cookie_switch.stats.flows_bound == 1

        hits = []
        hardware = HardwarePrefilter(store, clock=lambda: 0.0)
        hardware.software(Sink())
        hardware.fast(Sink())
        hardware.offload_flow(key, hits.append)
        hardware.push(for_prefilter)
        assert hits == [for_prefilter]

        proxy = AnyLinkProxy(EventLoop(), CookieMatcher(store))
        proxy >> Sink()
        proxy.push(for_anylink)
        assert for_anylink.flow_key == key
        assert [
            (flow.key, flow.service.service_data) for flow in proxy.flows
        ] == [(key, "3g")]

        resolved = []
        box = ZeroRatingMiddlebox(
            CookieMatcher(store), clock=lambda: 0.0,
            is_subscriber=lambda ip: ip == PUBLIC,
            on_flow_resolved=lambda resolved_key, _state: resolved.append(
                resolved_key
            ),
        )
        box.push(for_box)
        assert resolved == [key]

    @given(
        a=endpoints,
        b=endpoints,
        forward=st.lists(st.booleans(), min_size=1, max_size=12),
        prestamped=st.lists(st.booleans(), min_size=12, max_size=12),
    )
    def test_forward_and_reverse_counts_follow_the_first_packet(
        self, a, b, forward, prestamped
    ):
        """A packet counts forward when its own direction is the first
        packet's, as when the table kept a directional key, stamped on
        arrival or before."""
        packets = [
            make_tcp_packet(*(a + b if ahead else b + a)) for ahead in forward
        ]
        for packet, early in zip(packets, prestamped):
            if early:
                stamp(packet)
        table = FlowTable()
        for packet in packets:
            flow, _ = table.observe(packet, now=0.0)
        assert len(table) == 1
        first = _directional(packets[0])
        expected = sum(_directional(packet) == first for packet in packets)
        assert (flow.packets_forward, flow.packets_reverse) == (
            expected, len(packets) - expected
        )

    def test_both_directions_counted_and_equal_endpoints_are_forward(self):
        table = FlowTable()
        out = make_tcp_packet("10.0.0.1", 40000, SERVER, 443)
        back = make_tcp_packet(SERVER, 443, "10.0.0.1", 40000)
        for packet in (out, back, back):
            flow, _ = table.observe(packet, now=0.0)
        assert (flow.packets_forward, flow.packets_reverse) == (1, 2)
        table = FlowTable()
        for _ in range(3):
            loop, _ = table.observe(
                make_tcp_packet("10.0.0.1", 7, "10.0.0.1", 7), now=0.0
            )
        assert (loop.packets_forward, loop.packets_reverse) == (3, 0)

    @pytest.mark.parametrize("shape", list(NO_FLOW))
    def test_a_packet_without_a_flow_takes_each_boxs_old_path(self, shape):
        make = NO_FLOW[shape]
        store = DescriptorStore()

        switch = CookieSwitch(CookieMatcher(store), clock=lambda: 0.0)
        forwarded = switch >> Sink()
        packet = make()
        switch.push(packet)
        assert forwarded.packets == [packet] and len(switch.flows) == 0

        prefilter = HardwarePrefilter(store, clock=lambda: 0.0)
        software, fast = Sink(), Sink()
        prefilter.software(software)
        prefilter.fast(fast)
        packet = make()
        prefilter.push(packet)
        assert fast.packets == [packet] and software.count == 0

        proxy = AnyLinkProxy(EventLoop(), CookieMatcher(store))
        emitted = proxy >> Sink()
        packet = make()
        proxy.push(packet)
        assert emitted.packets == [packet]

        with pytest.raises(ValueError):
            FlowTable().observe(make(), now=0.0)
