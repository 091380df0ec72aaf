"""A MoonGen-style packet generator for middlebox throughput tests.

"We connected our middlebox with a MoonGen packet generator which sends
flows with cookies and monitors how fast our middlebox can forward
packets."  :class:`PacketGenerator` produces the same workload shape used
for Fig. 4: fixed-size packets, fixed packets-per-flow, one valid cookie
on each flow's first packet, descriptors drawn from a large pool
("Assuming 50-packet flows, 100K cookie descriptors, and a cookie for each
flow ...").

MoonGen outruns the box it loads.  This stand-in builds a packet in
~1 µs (``flow_to_packets``, ~1 M pkt/s on one core of a Xeon-class box
under CPython 3.11), a third of the ~3 M pkt/s the Fig. 4 middlebox
reads in rx bursts at 50 packets per flow, so every corpus is built
before the timed region, never inside it.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator

from ..core.descriptor import CookieDescriptor
from ..core.generator import CookieGenerator
from ..core.store import DescriptorStore
from ..core.transport import TransportRegistry, default_registry
from ..netsim.packet import Packet
from .records import FlowRecord, flow_to_packets

__all__ = ["build_descriptor_pool", "PacketGenerator"]


def build_descriptor_pool(
    count: int, store: DescriptorStore, service_data: str = "zero-rate"
) -> list[CookieDescriptor]:
    """Mint ``count`` descriptors and register them for verification.

    Fig. 4 runs with a 100 K-descriptor pool; the verifier's lookup is a
    hash per cookie, so pool size stresses only memory, not the per-packet
    path — which the ablation benchmark confirms.
    """
    descriptors = [
        store.add(CookieDescriptor.create(service_data=service_data))
        for _ in range(count)
    ]
    return descriptors


class PacketGenerator:
    """Generates cookie-bearing flows at a fixed shape.

    Parameters mirror the Fig. 4 sweep: ``packet_size`` (total wire bytes
    per packet) and ``packets_per_flow``.  ``clock`` should match the
    verifying middlebox's clock so cookies fall inside the coherency
    window.
    """

    def __init__(
        self,
        descriptors: list[CookieDescriptor],
        clock,
        packet_size: int = 512,
        packets_per_flow: int = 50,
        registry: TransportRegistry | None = None,
        seed: int = 0,
    ) -> None:
        if not descriptors:
            raise ValueError("need at least one descriptor")
        if packet_size < 48:
            raise ValueError("packet_size must cover IP+TCP headers (>= 48)")
        if packets_per_flow < 1:
            raise ValueError("flows need at least one packet")
        self.descriptors = descriptors
        self.clock = clock
        self.packet_size = packet_size
        self.packets_per_flow = packets_per_flow
        self.registry = registry or default_registry()
        self.rng = random.Random(seed)
        self._flow_counter = itertools.count()
        self._generators = [
            CookieGenerator(descriptor, clock) for descriptor in descriptors
        ]

    def _next_record(self) -> FlowRecord:
        index = next(self._flow_counter)
        payload = max(1, self.packet_size - 40)  # leave room for IP + TCP
        return FlowRecord(
            start_time=self.clock(),
            client_ip=f"10.{(index >> 14) & 0x3F}.{(index >> 7) & 0x7F}.{index & 0x7F}",
            client_port=1024 + (index % 50_000),
            server_ip="93.184.216.34",
            server_port=443,
            packets=self.packets_per_flow,
            avg_packet_size=payload,
        )

    def flows(self, count: int) -> Iterator[list[Packet]]:
        """Yield ``count`` flows, each a list of packets with the first
        packet carrying a fresh cookie from a random pool descriptor."""
        for _ in range(count):
            record = self._next_record()
            generator = self.rng.choice(self._generators)
            yield list(
                flow_to_packets(record, cookie=generator.generate(), registry=self.registry)
            )

    def packets(self, flow_count: int) -> Iterator[Packet]:
        """Flattened packet stream over ``flow_count`` flows."""
        for flow in self.flows(flow_count):
            yield from flow
