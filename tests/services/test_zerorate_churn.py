"""Bounded middlebox state under sustained flow churn (≥100k flows).

The paper's line-rate argument (Fig. 4) assumes per-flow state does not
grow with the number of flows *ever seen*, only with the number recently
active.  This drives 100 000 distinct flows from 20 000 subscribers
through a capped middlebox and asserts the state footprint — tracked
flows plus subscriber counters — stays at its configured bounds while
the eviction counters and billing flush account for every drop.
"""

from repro.core import CookieDescriptor, CookieMatcher, DescriptorStore
from repro.netsim.packet import make_tcp_packet
from repro.services.zerorate import ZeroRatingMiddlebox
from repro.telemetry import MetricsRegistry

TOTAL_FLOWS = 100_000
MAX_FLOWS = 4_096
MAX_SUBSCRIBERS = 1_024
SUBSCRIBERS = 20_000


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_state_bounded_under_100k_flow_churn():
    clock = Clock()
    store = DescriptorStore()
    store.add(CookieDescriptor.create(service_data="zr"))
    flushed_bytes = [0]

    registry = MetricsRegistry()
    middlebox = ZeroRatingMiddlebox(
        CookieMatcher(store),
        clock=clock,
        max_flows=MAX_FLOWS,
        max_subscribers=MAX_SUBSCRIBERS,
        flow_idle_timeout=30.0,
        on_subscriber_evicted=lambda ip, counters: flushed_bytes.__setitem__(
            0, flushed_bytes[0] + counters.total_bytes
        ),
    )
    middlebox.register_telemetry(registry)

    peak_flows = 0
    peak_subscribers = 0
    total_bytes = 0
    for i in range(TOTAL_FLOWS):
        clock.now = i * 0.001  # 1000 new flows per simulated second
        subscriber = f"10.{(i % SUBSCRIBERS) >> 8 & 255}.{i % SUBSCRIBERS & 255}.7"
        packet = make_tcp_packet(
            subscriber, 1024 + (i % 60000), "93.184.216.34", 443,
            payload_size=100,
        )
        middlebox.handle(packet)
        total_bytes += packet.wire_length
        if i % 1000 == 0:
            peak_flows = max(peak_flows, middlebox.tracked_flows)
            peak_subscribers = max(
                peak_subscribers, middlebox.tracked_subscribers
            )

    peak_flows = max(peak_flows, middlebox.tracked_flows)
    peak_subscribers = max(peak_subscribers, middlebox.tracked_subscribers)

    # The bounds hold at (and therefore between) every sample point.
    assert peak_flows <= MAX_FLOWS
    assert peak_subscribers <= MAX_SUBSCRIBERS
    assert middlebox.packets_processed == TOTAL_FLOWS

    # Every flow beyond the caps was explicitly evicted, not leaked.
    evicted = middlebox.flows_evicted_cap + middlebox.flows_evicted_idle
    assert evicted == TOTAL_FLOWS - middlebox.tracked_flows
    assert middlebox.subscribers_evicted > 0

    # Billing integrity: bytes still tracked + bytes flushed at eviction
    # account for every byte the middlebox processed.
    retained = sum(c.total_bytes for c in middlebox.counters.values())
    assert retained + flushed_bytes[0] == total_bytes

    # The unified snapshot reports the same bounded view.
    snapshot = registry.snapshot()
    assert snapshot.gauges["middlebox.tracked_flows"] <= MAX_FLOWS
    assert snapshot.gauges["middlebox.tracked_subscribers"] <= MAX_SUBSCRIBERS
    assert snapshot.counters["middlebox.packets_processed"] == TOTAL_FLOWS


def test_unbounded_before_caps_would_have_grown():
    """Sanity check on the experiment itself: with caps far above the
    offered churn the same workload tracks every flow — i.e. the bound in
    the test above is doing real work."""
    clock = Clock()
    store = DescriptorStore()
    middlebox = ZeroRatingMiddlebox(
        CookieMatcher(store),
        clock=clock,
        max_flows=10**9,
        flow_idle_timeout=10**9,
    )
    for i in range(5_000):
        middlebox.handle(
            make_tcp_packet("10.0.0.1", 1024 + i, "93.184.216.34", 443)
        )
    assert middlebox.tracked_flows == 5_000

