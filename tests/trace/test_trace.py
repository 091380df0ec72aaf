"""Trace generator tests: campus trace, MoonGen flows, stats helpers.

The campus trace's published marginals are asserted in
``tests/paper/test_sec46.py``."""

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import CookieDescriptor, CookieGenerator, DescriptorStore
from repro.core.transport import default_registry
from repro.trace import (
    CampusTraceGenerator,
    FlowRecord,
    PacketGenerator,
    ThroughputSample,
    build_descriptor_pool,
    flow_to_packets,
    percentile,
    throughput_report,
)


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_interpolation(self):
        assert percentile([0, 10], 50) == 5.0

    def test_extremes(self):
        assert percentile([3, 7, 9], 0) == 3
        assert percentile([3, 7, 9], 100) == 9

    def test_single_value(self):
        assert percentile([42], 99) == 42

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 150)


class TestFlowRecord:
    def test_bytes(self):
        record = FlowRecord(
            start_time=0.0, client_ip="10.0.0.1", client_port=1000,
            server_ip="1.2.3.4", server_port=443, packets=10, avg_packet_size=500,
        )
        assert record.bytes == 5000

    def test_expansion_packet_count(self):
        record = FlowRecord(
            start_time=0.0, client_ip="10.0.0.1", client_port=1000,
            server_ip="1.2.3.4", server_port=443, packets=20,
        )
        packets = list(flow_to_packets(record))
        assert len(packets) == 20

    def test_first_packet_carries_cookie(self):
        store = DescriptorStore()
        descriptor = store.add(CookieDescriptor.create())
        cookie = CookieGenerator(descriptor, clock=lambda: 0.0).generate()
        record = FlowRecord(
            start_time=0.0, client_ip="10.0.0.1", client_port=1000,
            server_ip="1.2.3.4", server_port=443, packets=5, sni="x.com",
        )
        packets = list(flow_to_packets(record, cookie=cookie))
        registry = default_registry()
        assert registry.extract(packets[0]) is not None
        assert all(registry.extract(p) is None for p in packets[1:])

    def test_directions_mixed(self):
        record = FlowRecord(
            start_time=0.0, client_ip="10.0.0.1", client_port=1000,
            server_ip="1.2.3.4", server_port=443, packets=20,
        )
        packets = list(flow_to_packets(record, downlink_fraction=0.75))
        downlink = [p for p in packets if p.src_ip == "1.2.3.4"]
        assert len(downlink) == int(19 * 0.75)


class TestCampusTrace:
    def test_heavy_hitter_ips(self):
        """Zipf client activity: some IPs start many flows."""
        records = list(CampusTraceGenerator(scale=0.001).generate())
        from collections import Counter

        counts = Counter(r.client_ip for r in records)
        assert max(counts.values()) > 5 * (len(records) / len(counts))

    def test_max_flows_cap(self):
        generator = CampusTraceGenerator(scale=0.01)
        records = list(generator.generate(max_flows=100))
        assert len(records) == 100

    def test_deterministic(self):
        a = [r.client_ip for r in CampusTraceGenerator(scale=0.0001, seed=5).generate()]
        b = [r.client_ip for r in CampusTraceGenerator(scale=0.0001, seed=5).generate()]
        assert a == b

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            CampusTraceGenerator(scale=0)
        with pytest.raises(ValueError):
            CampusTraceGenerator(scale=2.0)


class TestPacketGenerator:
    def test_flow_shape(self):
        store = DescriptorStore()
        pool = build_descriptor_pool(10, store)
        generator = PacketGenerator(
            pool, clock=time.perf_counter, packet_size=512, packets_per_flow=50
        )
        flows = list(generator.flows(3))
        assert len(flows) == 3
        assert all(len(flow) == 50 for flow in flows)

    def test_every_flow_cookied_and_verifiable(self):
        from repro.core import CookieMatcher

        store = DescriptorStore()
        pool = build_descriptor_pool(5, store)
        clock = time.perf_counter
        generator = PacketGenerator(pool, clock=clock, packets_per_flow=10)
        matcher = CookieMatcher(store, nct=60.0)
        registry = default_registry()
        for flow in generator.flows(10):
            found = registry.extract(flow[0])
            assert found is not None
            assert matcher.match(found[0], now=clock()) is not None

    def test_distinct_flows_distinct_tuples(self):
        store = DescriptorStore()
        pool = build_descriptor_pool(2, store)
        generator = PacketGenerator(pool, clock=time.perf_counter)
        firsts = [flow[0] for flow in generator.flows(20)]
        tuples = {(p.src_ip, p.src_port) for p in firsts}
        assert len(tuples) == 20

    def test_packet_size_respected(self):
        store = DescriptorStore()
        pool = build_descriptor_pool(2, store)
        generator = PacketGenerator(
            pool, clock=time.perf_counter, packet_size=512, packets_per_flow=10
        )
        flow = next(iter(generator.flows(1)))
        # Data packets (not the cookie-bearing first) hit the target size.
        assert all(p.wire_length == 512 for p in flow[1:])

    def test_validation(self):
        store = DescriptorStore()
        pool = build_descriptor_pool(1, store)
        with pytest.raises(ValueError):
            PacketGenerator([], clock=time.perf_counter)
        with pytest.raises(ValueError):
            PacketGenerator(pool, clock=time.perf_counter, packet_size=10)
        with pytest.raises(ValueError):
            PacketGenerator(pool, clock=time.perf_counter, packets_per_flow=0)

    def test_descriptor_pool_registered(self):
        store = DescriptorStore()
        pool = build_descriptor_pool(50, store)
        assert len(store) == 50
        assert all(store.get(d.cookie_id) is not None for d in pool)


class TestThroughputSample:
    def test_derived_rates(self):
        sample = ThroughputSample(
            packet_size=512, packets_per_flow=50,
            packets_processed=100_000, elapsed_s=1.0,
        )
        assert sample.packets_per_second == 100_000
        assert sample.gbps == pytest.approx(100_000 * 512 * 8 / 1e9)
        assert sample.new_flows_per_second == pytest.approx(2000)

    def test_report_renders(self):
        sample = ThroughputSample(512, 50, 1000, 0.5)
        text = throughput_report([sample])
        assert "512" in text and "Gbps" in text


class TestFlowExpansionCount:
    @staticmethod
    def _record(packets):
        return FlowRecord(
            start_time=0.0, client_ip="10.0.0.1", client_port=1000,
            server_ip="1.2.3.4", server_port=443, packets=packets,
        )

    @given(
        packets=st.integers(min_value=1, max_value=60),
        fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_yields_exactly_record_packets(self, packets, fraction):
        expanded = list(flow_to_packets(self._record(packets), downlink_fraction=fraction))
        assert len(expanded) == packets
        downlink = sum(p.src_ip == "1.2.3.4" for p in expanded)
        assert downlink == int((packets - 1) * fraction)

    @pytest.mark.parametrize("packets", [0, -1])
    def test_refuses_an_empty_flow(self, packets):
        with pytest.raises(ValueError, match="at least one packet"):
            list(flow_to_packets(self._record(packets)))

    @pytest.mark.parametrize("fraction", [1.5, -1.0, float("nan")])
    def test_refuses_a_fraction_outside_the_unit_interval(self, fraction):
        with pytest.raises(ValueError, match="downlink_fraction"):
            list(flow_to_packets(self._record(5), downlink_fraction=fraction))

    def test_registry_built_only_to_attach_a_cookie(self, monkeypatch):
        import repro.trace.records as records

        built = []
        monkeypatch.setattr(
            records, "default_registry", lambda: built.append(1) or default_registry()
        )
        list(flow_to_packets(self._record(5)))
        assert built == []
        descriptor = CookieDescriptor.create()
        cookie = CookieGenerator(descriptor, clock=lambda: 0.0).generate()
        list(flow_to_packets(self._record(5), cookie=cookie, registry=default_registry()))
        assert built == []
        list(flow_to_packets(self._record(5), cookie=cookie))
        assert built == [1]
