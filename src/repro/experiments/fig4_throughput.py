"""Fig. 4: zero-rating middlebox forwarding performance.

The paper sweeps packet size (64–1500 B) × packets-per-flow (10/50/100)
against its Click/DPDK middlebox and reports throughput, saturating
10 Gb/s at 512-byte packets and 50-packet flows on one core.

Our middlebox is pure Python and is timed in 256-packet rx bursts, the
path that ships.  The generator sends each flow's packets back to back,
so most of a flow coalesces into one resolved run inside a burst;
absolute numbers are therefore not comparable with the paper's, and the
benchmark reports *shape*, which is what carries over:

- throughput in bits/s grows with packet size (per-packet cost is ~flat);
- throughput grows with packets-per-flow (cookie search + verification
  amortize over the flow; bound flows take the cheap map-only path);
- new-flows/s absorbed at 50-packet flows comfortably exceeds the campus
  trace's published p99 of 442 new flows/s.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..core.matcher import CookieMatcher
from ..core.store import DescriptorStore
from ..trace.moongen import PacketGenerator, build_descriptor_pool
from ..trace.stats import ThroughputSample
from ..services.zerorate import ZeroRatingMiddlebox

__all__ = [
    "Fig4Point",
    "run_point",
    "run_sweep",
    "run_clean_vs_faulted",
    "PACKET_SIZES",
    "FLOW_LENGTHS",
    "BURST_SIZE",
]

#: The figure's x-axis and series.
PACKET_SIZES = (64, 256, 512, 1024, 1500)
FLOW_LENGTHS = (10, 50, 100)

DEFAULT_DESCRIPTORS = 2_000
DEFAULT_FLOWS = 200

#: Packets per ``process_batch`` call — the rx-burst size a DPDK poll
#: hands to software (MoonGen's default burst region).
BURST_SIZE = 256


@dataclass
class Fig4Point:
    """One measurement plus the pieces needed to reproduce it."""

    sample: ThroughputSample
    descriptors: int
    flows: int
    cookie_hits: int


def time_bursts(middlebox: ZeroRatingMiddlebox, packets: list) -> float:
    """Seconds the middlebox takes over ``packets`` in rx bursts of
    :data:`BURST_SIZE`; the bursts are cut before the clock starts."""
    bursts = [
        packets[start : start + BURST_SIZE]
        for start in range(0, len(packets), BURST_SIZE)
    ]
    process_batch = middlebox.process_batch
    start_time = time.perf_counter()
    for burst in bursts:
        process_batch(burst)
    return time.perf_counter() - start_time


def run_point(
    packet_size: int,
    packets_per_flow: int,
    descriptors: int = DEFAULT_DESCRIPTORS,
    flows: int = DEFAULT_FLOWS,
) -> Fig4Point:
    """Measure one (packet size, flow length) point.

    Packet generation happens *before* the timed region; the timed region
    is exactly the middlebox's work, as MoonGen measured only the device
    under test, and it arrives in rx bursts (:func:`time_bursts`).
    """
    store = DescriptorStore()
    pool = build_descriptor_pool(descriptors, store)
    clock = time.perf_counter
    # Wide NCT: cookies are minted during (untimed) pre-generation, which
    # can take longer than the 5 s deployment window; see sec46_campus.
    middlebox = ZeroRatingMiddlebox(CookieMatcher(store, nct=600.0), clock=clock)
    generator = PacketGenerator(
        pool,
        clock=clock,
        packet_size=packet_size,
        packets_per_flow=packets_per_flow,
    )
    packets = list(generator.packets(flows))
    elapsed = time_bursts(middlebox, packets)

    return Fig4Point(
        sample=ThroughputSample(
            packet_size=packet_size,
            packets_per_flow=packets_per_flow,
            packets_processed=len(packets),
            elapsed_s=elapsed,
        ),
        descriptors=descriptors,
        flows=flows,
        cookie_hits=middlebox.cookie_hits,
    )


def run_clean_vs_faulted(
    packet_size: int = 512,
    packets_per_flow: int = 50,
    descriptors: int = DEFAULT_DESCRIPTORS,
    flows: int = DEFAULT_FLOWS,
    fault_rate: float = 0.05,
    seed: int = 20160822,
    rounds: int = 3,
) -> dict[str, object]:
    """Fig. 4 point on a clean stream vs the same stream pre-faulted.

    The fault injector (drop / duplicate / reorder / corrupt at
    ``fault_rate`` each; delay needs an event loop and is a latency
    fault, not a throughput one) runs *before* the timed region — faults
    are a property of the arriving traffic, and the device under test is
    still only the middlebox.  What the ratio shows: the failure paths
    (cookie rejection, mid-flow duplicates, displaced sniff windows)
    must not be meaningfully slower than the happy path, because an
    adversary can choose to send faulted traffic.
    """
    from ..netsim import FaultInjector, FaultPlan, Sink

    clock = time.perf_counter

    def build_stream() -> tuple[DescriptorStore, list]:
        store = DescriptorStore()
        pool = build_descriptor_pool(descriptors, store)
        generator = PacketGenerator(
            pool,
            clock=clock,
            packet_size=packet_size,
            packets_per_flow=packets_per_flow,
        )
        return store, list(generator.packets(flows))

    def measure(store, packets) -> float:
        middlebox = ZeroRatingMiddlebox(
            CookieMatcher(store, nct=600.0), clock=clock
        )
        elapsed = time_bursts(middlebox, packets)
        return len(packets) / elapsed if elapsed else 0.0

    clean_pps = 0.0
    faulted_pps = 0.0
    fault_counts: dict[str, int] = {}
    faulted_len = 0
    for _ in range(rounds):
        store, packets = build_stream()
        clean_pps = max(clean_pps, measure(store, packets))

        store, packets = build_stream()
        injector = FaultInjector(
            FaultPlan(
                drop_rate=fault_rate,
                duplicate_rate=fault_rate,
                reorder_rate=fault_rate,
                corrupt_rate=fault_rate,
                seed=seed,
            )
        )
        sink = Sink(keep=True)
        injector >> sink
        injector.process_batch(packets)
        injector.flush()
        fault_counts = injector.stats.as_dict()
        faulted_len = len(sink.packets)
        faulted_pps = max(faulted_pps, measure(store, sink.packets))

    return {
        "packet_size": packet_size,
        "packets_per_flow": packets_per_flow,
        "fault_rate": fault_rate,
        "seed": seed,
        "clean_pps": clean_pps,
        "faulted_pps": faulted_pps,
        "faulted_over_clean": (
            faulted_pps / clean_pps if clean_pps else 0.0
        ),
        "faulted_stream_packets": faulted_len,
        "faults": fault_counts,
    }


def run_sweep(
    packet_sizes: tuple[int, ...] = PACKET_SIZES,
    flow_lengths: tuple[int, ...] = FLOW_LENGTHS,
    descriptors: int = DEFAULT_DESCRIPTORS,
    flows: int = DEFAULT_FLOWS,
) -> list[Fig4Point]:
    """The full Fig. 4 grid."""
    return [
        run_point(size, length, descriptors=descriptors, flows=flows)
        for length in flow_lengths
        for size in packet_sizes
    ]
