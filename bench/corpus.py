"""Seeded packet corpora and the plans their oracles are derived from.

A corpus is built once per set-up, untimed by the throughput metrics,
from ``--seed`` alone: descriptors are
``CookieDescriptor(cookie_id=rng.getrandbits(64), key=rng.randbytes(32))``,
cookies come from ``CookieGenerator(rng=rng.randbytes)`` on the virtual
clock, packets from ``trace.records.flow_to_packets``.  Nothing draws
from ``secrets``.

The *plan* (one :class:`FlowPlan` per flow) says what each flow carries;
:class:`Expected` is computed from the plan and the paper's rules alone —
not by running the device — so it is an oracle, not a golden file.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from repro.core.cookie import Cookie
from repro.core.descriptor import CookieDescriptor
from repro.core.generator import CookieGenerator
from repro.core.seeding import derive_seed
from repro.core.store import DescriptorStore
from repro.core.transport import TlsExtensionCarrier, default_registry
from repro.netsim.packet import Packet
from repro.services.zerorate.middlebox import ZERO_RATE_SNIFF_PACKETS
from repro.trace.records import FlowRecord, flow_to_packets

from .common import BURST_PACKETS, T0, chunks

SERVER_IP = "93.184.216.34"
SERVER_PORT = 443

#: ``service_data`` of every benchmark descriptor; the billing catalogs
#: list it as their one app.
APP = "video.example"

#: IP (20) + TCP (20) header bytes; ``FlowRecord.avg_packet_size`` is the
#: payload, so a nominal ``packet_size`` leaves this much for headers.
HEADER_BYTES = 40

#: ``flow_to_packets`` caps the ClientHello payload here.
FIRST_PAYLOAD_CAP = 400

COOKIE_CLASSES = (
    "valid",
    "bad_signature",
    "replayed",
    "unknown_id",
    "stale_timestamp",
    "bare",
)

#: How long before ``T0`` a stale cookie was minted (NCT is 5 s).
STALE_AGE = 10.0


@dataclass(frozen=True)
class CorpusSpec:
    flows: int
    packets_per_flow: int
    packet_size: int
    descriptors: int = 100_000
    #: Flows whose packets arrive round-robin interleaved (1 = each
    #: flow's packets arrive back to back, so resolved runs coalesce).
    interleave: int = 1
    #: class -> share of flows; shares sum to 1.
    mix: tuple[tuple[str, float], ...] = (("valid", 1.0),)

    def scaled(self, scale: float) -> "CorpusSpec":
        if scale == 1.0:
            return self
        return CorpusSpec(
            flows=max(self.interleave * 2, int(self.flows * scale)),
            packets_per_flow=self.packets_per_flow,
            packet_size=self.packet_size,
            descriptors=max(64, int(self.descriptors * scale)),
            interleave=self.interleave,
            mix=self.mix,
        )


@dataclass
class FlowPlan:
    index: int
    client_ip: str
    client_port: int
    klass: str
    cookie: Cookie | None
    #: Wire bytes of each packet of the flow, in the flow's own order.
    sizes: list[int] = field(default_factory=list)


@dataclass
class Expected:
    """What the paper's rules say a fresh middlebox must report after
    one pass over the corpus."""

    packets: int = 0
    bytes: int = 0
    cookie_hits: int = 0
    cookie_misses: int = 0
    flows_resolved: int = 0
    extract_calls: int = 0
    match_stats: dict[str, int] = field(default_factory=dict)
    #: subscriber ip -> (free bytes, charged bytes), cookie verdict only.
    subscribers: dict[str, tuple[int, int]] = field(default_factory=dict)


@dataclass
class PacketCorpus:
    spec: CorpusSpec
    store: DescriptorStore
    flows: list[FlowPlan]
    packets: list[Packet]
    #: Flow index of each packet, aligned with ``packets``.
    flow_of: list[int]
    bursts: list[list[Packet]]
    expected: Expected
    digest: str
    class_counts: dict[str, int]

    def zero_rated_flags(self) -> list[bool]:
        """Per packet: does the cookie verdict make it free?"""
        valid = [flow.klass == "valid" for flow in self.flows]
        return [valid[index] for index in self.flow_of]


def client_ip(index: int) -> str:
    return f"10.{(index >> 16) & 0xFF}.{(index >> 8) & 0xFF}.{index & 0xFF}"


def make_descriptor(rng: random.Random) -> CookieDescriptor:
    return CookieDescriptor(
        cookie_id=rng.getrandbits(64), key=rng.randbytes(32), service_data=APP
    )


def _assign_classes(spec: CorpusSpec, rng: random.Random) -> list[str]:
    """Exact per-class flow counts (largest class absorbs rounding),
    shuffled; flow 0 is valid so every replay has an earlier original."""
    counts = {klass: int(share * spec.flows) for klass, share in spec.mix}
    largest = max(counts, key=counts.get)
    counts[largest] += spec.flows - sum(counts.values())
    classes = [klass for klass, n in counts.items() for _ in range(n)]
    rng.shuffle(classes)
    if "valid" in counts and classes[0] != "valid":
        swap = classes.index("valid")
        classes[0], classes[swap] = classes[swap], classes[0]
    return classes


def build_corpus(spec: CorpusSpec, seed: int) -> PacketCorpus:
    rng = random.Random(derive_seed(seed, "bench", "packet-corpus"))
    registry = default_registry()
    store = DescriptorStore()
    pool = [store.add(make_descriptor(rng)) for _ in range(spec.descriptors)]
    rogue = make_descriptor(rng)  # never stored: its cookies are unknown-id

    generators: dict[int, CookieGenerator] = {}
    minted_at = [T0]

    def mint(descriptor: CookieDescriptor, when: float) -> Cookie:
        generator = generators.get(descriptor.cookie_id)
        if generator is None:
            generator = generators[descriptor.cookie_id] = CookieGenerator(
                descriptor, clock=lambda: minted_at[0], rng=rng.randbytes
            )
        minted_at[0] = when
        return generator.generate()

    payload = max(1, spec.packet_size - HEADER_BYTES)
    first_payload = min(payload, FIRST_PAYLOAD_CAP)
    classes = _assign_classes(spec, rng)
    flows: list[FlowPlan] = []
    per_flow_packets: list[list[Packet]] = []
    valid_so_far: list[FlowPlan] = []
    hasher = hashlib.sha256(
        f"{spec.flows}/{spec.packets_per_flow}/{spec.packet_size}/"
        f"{spec.descriptors}/{spec.interleave}".encode()
    )
    for index, klass in enumerate(classes):
        if klass == "valid":
            cookie = mint(rng.choice(pool), T0)
        elif klass == "bad_signature":
            good = mint(rng.choice(pool), T0)
            cookie = Cookie(
                good.cookie_id,
                good.uuid,
                good.timestamp,
                bytes(b ^ 0xFF for b in good.signature),
            )
        elif klass == "replayed":
            cookie = rng.choice(valid_so_far).cookie
        elif klass == "unknown_id":
            cookie = mint(rogue, T0)
        elif klass == "stale_timestamp":
            cookie = mint(rng.choice(pool), T0 - STALE_AGE)
        else:
            cookie = None
        plan = FlowPlan(
            index=index,
            client_ip=client_ip(index),
            client_port=1024 + index % 50_000,
            klass=klass,
            cookie=cookie,
        )
        first = HEADER_BYTES + first_payload
        if cookie is not None:
            first += TlsExtensionCarrier.overhead_bytes
        plan.sizes = [first] + [HEADER_BYTES + payload] * (
            spec.packets_per_flow - 1
        )
        if klass == "valid":
            valid_so_far.append(plan)
        flows.append(plan)
        record = FlowRecord(
            start_time=T0,
            client_ip=plan.client_ip,
            client_port=plan.client_port,
            server_ip=SERVER_IP,
            server_port=SERVER_PORT,
            packets=spec.packets_per_flow,
            avg_packet_size=payload,
        )
        per_flow_packets.append(
            list(flow_to_packets(record, cookie=cookie, registry=registry))
        )
        hasher.update(f"{plan.client_ip}:{plan.client_port}:{klass}".encode())
        if cookie is not None:
            hasher.update(cookie.to_bytes())

    packets: list[Packet] = []
    flow_of: list[int] = []
    for group_start in range(0, len(flows), spec.interleave):
        group = range(group_start, min(group_start + spec.interleave, len(flows)))
        if spec.interleave == 1:
            for index in group:
                packets.extend(per_flow_packets[index])
                flow_of.extend([index] * spec.packets_per_flow)
            continue
        for position in range(spec.packets_per_flow):
            for index in group:
                packets.append(per_flow_packets[index][position])
                flow_of.append(index)

    return PacketCorpus(
        spec=spec,
        store=store,
        flows=flows,
        packets=packets,
        flow_of=flow_of,
        bursts=[list(burst) for burst in chunks(packets, BURST_PACKETS)],
        expected=_expect(spec, flows),
        digest=hasher.hexdigest(),
        class_counts={
            klass: sum(1 for flow in flows if flow.klass == klass)
            for klass in COOKIE_CLASSES
        },
    )


def _expect(spec: CorpusSpec, flows: list[FlowPlan]) -> Expected:
    """The paper's rules applied to the plan: a valid cookie on the
    first packet makes the whole flow free; anything else is charged,
    and the flow is resolved once the 3-packet sniff window closes."""
    sniff = ZERO_RATE_SNIFF_PACKETS
    expected = Expected(
        match_stats={
            "accepted": 0,
            "unknown_id": 0,
            "bad_signature": 0,
            "stale_timestamp": 0,
            "replayed": 0,
            "revoked": 0,
            "expired": 0,
        }
    )
    for flow in flows:
        total = sum(flow.sizes)
        expected.packets += len(flow.sizes)
        expected.bytes += total
        if flow.klass == "valid":
            expected.cookie_hits += 1
            expected.flows_resolved += 1
            expected.extract_calls += 1
            expected.match_stats["accepted"] += 1
            expected.subscribers[flow.client_ip] = (total, 0)
            continue
        if flow.klass != "bare":
            expected.cookie_misses += 1
            expected.match_stats[flow.klass] += 1
        expected.extract_calls += min(len(flow.sizes), sniff)
        if len(flow.sizes) >= sniff:
            expected.flows_resolved += 1
        expected.subscribers[flow.client_ip] = (0, total)
    return expected
