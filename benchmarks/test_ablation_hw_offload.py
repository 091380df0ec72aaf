"""Ablation — hardware pre-filtering + flow offload (§4.6).

"The hardware could detect and forward to software only packets that
contain cookies ... It could further verify the timestamp and look the
cookie id against a table of known descriptors."  And once software has
resolved a flow, the rest of the flow can be handled by a hardware flow
entry.

This ablation replays the same cookie workload through the software-only
middlebox and through the co-designed pipeline, and reports how much of
the load ever reaches software.
"""

import time

from repro.core import CookieMatcher, DescriptorStore
from repro.core.offload import HardwarePrefilter
from repro.netsim.flow import FiveTuple
from repro.netsim.middlebox import Sink
from repro.services.zerorate import ZeroRatingMiddlebox
from repro.trace.moongen import PacketGenerator, build_descriptor_pool

FLOWS = 150
PACKETS_PER_FLOW = 50
PACKET_SIZE = 512


def _packets(store, clock):
    pool = build_descriptor_pool(300, store)
    generator = PacketGenerator(
        pool, clock=clock, packet_size=PACKET_SIZE,
        packets_per_flow=PACKETS_PER_FLOW,
    )
    return list(generator.packets(FLOWS))


def _run_software_only():
    clock = time.perf_counter
    store = DescriptorStore()
    packets = _packets(store, clock)
    middlebox = ZeroRatingMiddlebox(CookieMatcher(store, nct=600.0), clock=clock)
    start = clock()
    for packet in packets:
        middlebox.handle(packet)
    elapsed = clock() - start
    return {
        "elapsed": elapsed,
        "software_packets": middlebox.packets_processed,
        "total": len(packets),
        "pps": len(packets) / elapsed,
    }


def _run_co_design():
    clock = time.perf_counter
    store = DescriptorStore()
    packets = _packets(store, clock)
    prefilter = HardwarePrefilter(store, clock=clock, nct=600.0)
    middlebox = ZeroRatingMiddlebox(
        CookieMatcher(store, nct=600.0),
        clock=clock,
        on_flow_resolved=lambda key, _state: prefilter.offload_flow(
            FiveTuple(*key)
        ),
    )
    prefilter.software(middlebox)
    prefilter.fast(Sink(keep=False))
    start = clock()
    for packet in packets:
        prefilter.push(packet)
    elapsed = clock() - start
    return {
        "elapsed": elapsed,
        "software_packets": middlebox.packets_processed,
        "total": len(packets),
        "pps": len(packets) / elapsed,
        "offloaded_flows": prefilter.offloaded_flows,
        "offload_hits": prefilter.stats.offloaded_hits,
    }


def test_ablation_hw_offload(benchmark, report):
    co_design = benchmark.pedantic(_run_co_design, rounds=1, iterations=1)
    software = _run_software_only()

    report("hardware offload ablation "
           f"({FLOWS} flows x {PACKETS_PER_FLOW} packets, cookie per flow)")
    report(f"{'':<26}{'software-only':>15}{'hw co-design':>14}")
    report(f"{'packets into software':<26}{software['software_packets']:>15,}"
           f"{co_design['software_packets']:>14,}")
    report(f"{'pipeline pps':<26}{software['pps']:>15,.0f}"
           f"{co_design['pps']:>14,.0f}")
    report(f"offloaded flows: {co_design['offloaded_flows']:,}; "
           f"hardware hits: {co_design['offload_hits']:,}")

    benchmark.extra_info["software_only_sw_packets"] = software["software_packets"]
    benchmark.extra_info["co_design_sw_packets"] = co_design["software_packets"]

    total = FLOWS * PACKETS_PER_FLOW
    # Software-only touches every packet; the co-design touches only each
    # flow's first (cookie-bearing) packet.
    assert software["software_packets"] == total
    assert co_design["software_packets"] == FLOWS
    assert co_design["offloaded_flows"] == FLOWS
    assert co_design["offload_hits"] == total - FLOWS
    # Software load shrinks by the flow length factor.
    reduction = software["software_packets"] / co_design["software_packets"]
    assert reduction == PACKETS_PER_FLOW
