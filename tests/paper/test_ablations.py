"""Two of DESIGN.md's ablations, asserted by count.

- The replay cache is bounded by the coherency time.  The timestamp
  check makes a uuid older than one NCT unreplayable, so the cache may
  forget it.  Over a long cookie stream the two-generation cache holds
  about two windows of uuids where a naive set holds the whole stream,
  and both catch a replay inside the window.
- Hardware pre-filtering plus per-flow offload (§4.6): "the hardware
  could detect and forward to software only packets that contain
  cookies", and once software has resolved a flow a hardware entry
  serves the rest of it.  Software then sees one packet per flow.

Neither count depends on time, so both run on a fixed clock.
"""

from repro.core import CookieMatcher, DescriptorStore
from repro.core.matcher import ReplayCache
from repro.core.offload import HardwarePrefilter
from repro.netsim.middlebox import Sink
from repro.services.zerorate import ZeroRatingMiddlebox
from repro.trace.moongen import PacketGenerator, build_descriptor_pool

STREAM = 200_000
WINDOW = 5.0
ARRIVALS_PER_SECOND = 1000

FLOWS = 150
PACKETS_PER_FLOW = 50
PACKET_SIZE = 512


class UnboundedReplaySet:
    """The naive alternative: remember every uuid forever."""

    def __init__(self) -> None:
        self._seen: set[bytes] = set()

    def check_and_record(self, uuid: bytes, timestamp: float) -> bool:
        if uuid in self._seen:
            return True
        self._seen.add(uuid)
        return False

    @property
    def size(self) -> int:
        return len(self._seen)


def _drive(cache) -> int:
    for i in range(STREAM):
        cache.check_and_record(
            i.to_bytes(16, "big"), timestamp=i / ARRIVALS_PER_SECOND
        )
    return cache.size


def test_ablation_replay_cache_memory():
    bounded_size = _drive(ReplayCache(window=WINDOW))
    unbounded_size = _drive(UnboundedReplaySet())
    # Bounded memory: at most ~2 windows of arrivals, not the full stream.
    assert bounded_size <= 2 * WINDOW * ARRIVALS_PER_SECOND * 1.2
    assert unbounded_size == STREAM
    assert bounded_size <= unbounded_size / 10


def test_ablation_protection_equal_within_window():
    """The bounded cache gives up nothing that the timestamp check does
    not already cover."""
    uuid = b"r" * 16
    for cache in (ReplayCache(window=WINDOW), UnboundedReplaySet()):
        assert not cache.check_and_record(uuid, timestamp=0.0)
        assert cache.check_and_record(uuid, timestamp=WINDOW * 0.9)


def _software_packets(prefiltered: bool) -> tuple:
    """Packets the software middlebox sees, and the prefilter (or None)."""

    def clock():
        return 1_000.0

    store = DescriptorStore()
    generator = PacketGenerator(
        build_descriptor_pool(300, store), clock=clock,
        packet_size=PACKET_SIZE, packets_per_flow=PACKETS_PER_FLOW,
    )
    prefilter = HardwarePrefilter(store, clock=clock, nct=600.0)
    middlebox = ZeroRatingMiddlebox(
        CookieMatcher(store, nct=600.0), clock=clock,
        on_flow_resolved=lambda key, _state: prefilter.offload_flow(key),
    )
    prefilter.software(middlebox)
    prefilter.fast(Sink(keep=False))
    for packet in generator.packets(FLOWS):
        (prefilter if prefiltered else middlebox).push(packet)
    return middlebox.packets_processed, prefilter if prefiltered else None


def test_ablation_hw_offload():
    software_only, _ = _software_packets(prefiltered=False)
    co_design, prefilter = _software_packets(prefiltered=True)
    total = FLOWS * PACKETS_PER_FLOW
    # Software-only touches every packet; the co-design touches only each
    # flow's first (cookie-bearing) packet.
    assert software_only == total
    assert co_design == FLOWS
    assert prefilter.offloaded_flows == FLOWS
    assert prefilter.stats.offloaded_hits == total - FLOWS
    # Software load shrinks by the flow length factor.
    assert software_only / co_design == PACKETS_PER_FLOW
