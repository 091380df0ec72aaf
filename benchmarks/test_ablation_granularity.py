"""Ablation — flow-granularity vs packet-granularity cookies (§4.6).

The paper: "if every packet carries a cookie, flow-related state is
eliminated (in the expense of bandwidth overhead and higher matching
rates)".  This ablation quantifies that trade on the same workload:

- flow mode: one cookie per flow, per-flow state, cheap map path;
- packet mode: a cookie on *every* packet, zero flow state, a signature
  verification per packet plus ~52 B of wire overhead each.
"""

import time

import pytest

from repro.core import CookieMatcher, DescriptorStore
from repro.core.attributes import CookieAttributes, Granularity
from repro.trace.moongen import PacketGenerator, build_descriptor_pool
from repro.services.zerorate import ZeroRatingMiddlebox

FLOWS = 120
PACKETS_PER_FLOW = 50
PACKET_SIZE = 512


def _run_flow_mode():
    store = DescriptorStore()
    pool = build_descriptor_pool(200, store)
    clock = time.perf_counter
    middlebox = ZeroRatingMiddlebox(CookieMatcher(store, nct=600.0), clock=clock)
    generator = PacketGenerator(
        pool, clock=clock, packet_size=PACKET_SIZE, packets_per_flow=PACKETS_PER_FLOW
    )
    packets = list(generator.packets(FLOWS))
    start = clock()
    for packet in packets:
        middlebox.handle(packet)
    elapsed = clock() - start
    overhead = sum(p.wire_length for p in packets) - FLOWS * PACKETS_PER_FLOW * PACKET_SIZE
    return {
        "pps": len(packets) / elapsed,
        "flow_state": middlebox.tracked_flows,
        "verifications": middlebox.cookie_hits + middlebox.cookie_misses,
        "overhead_bytes": overhead,
    }


def _run_packet_mode():
    """Every packet carries its own cookie of a packet-granularity
    grant, so the middlebox judges each one independently and keeps no
    flow entry (the §4.6 'packet-based cookies' mode)."""
    from repro.core.descriptor import CookieDescriptor
    from repro.core.generator import CookieGenerator
    from repro.core.transport import default_registry
    from repro.netsim.packet import make_tcp_packet

    store = DescriptorStore()
    descriptor = store.add(
        CookieDescriptor.create(
            service_data="zero-rate",
            attributes=CookieAttributes(granularity=Granularity.PACKET),
        )
    )
    clock = time.perf_counter
    rater = ZeroRatingMiddlebox(CookieMatcher(store, nct=600.0), clock=clock)
    registry = default_registry()
    generator = CookieGenerator(descriptor, clock)
    packets = []
    for flow in range(FLOWS):
        for _ in range(PACKETS_PER_FLOW):
            packet = make_tcp_packet(
                "10.0.0.1", 1024 + flow, "93.184.216.34", 443,
                payload_size=PACKET_SIZE - 40, encrypted=True,
            )
            registry.attach(packet, generator.generate())
            packets.append(packet)
    start = clock()
    for packet in packets:
        rater.handle(packet)
    elapsed = clock() - start
    overhead = sum(p.wire_length for p in packets) - FLOWS * PACKETS_PER_FLOW * PACKET_SIZE
    return {
        "pps": len(packets) / elapsed,
        "flow_state": rater.tracked_flows,
        "verifications": rater.cookie_hits + rater.cookie_misses,
        "overhead_bytes": overhead,
    }


def test_ablation_granularity(benchmark, report):
    flow_mode = benchmark.pedantic(_run_flow_mode, rounds=1, iterations=1)
    packet_mode = _run_packet_mode()
    total_packets = FLOWS * PACKETS_PER_FLOW

    report("granularity ablation (same workload, 512 B packets, 50 ppf)")
    report(f"{'':<22}{'flow-mode':>12}{'packet-mode':>13}")
    for key in ("pps", "flow_state", "verifications", "overhead_bytes"):
        report(f"{key:<22}{flow_mode[key]:>12,.0f}{packet_mode[key]:>13,.0f}")

    benchmark.extra_info["flow_mode_pps"] = round(flow_mode["pps"])
    benchmark.extra_info["packet_mode_pps"] = round(packet_mode["pps"])

    # Packet mode eliminates flow state but pays per-packet verification
    # and per-packet wire overhead.
    assert packet_mode["flow_state"] == 0
    assert flow_mode["flow_state"] == FLOWS
    assert packet_mode["verifications"] == total_packets
    assert flow_mode["verifications"] == FLOWS
    assert packet_mode["overhead_bytes"] > flow_mode["overhead_bytes"] * 10
    assert flow_mode["pps"] > packet_mode["pps"]
    # Overhead arithmetic: ~52 B (TCP option, padded) per cookied packet.
    per_packet = packet_mode["overhead_bytes"] / total_packets
    assert per_packet == pytest.approx(52, abs=8)
