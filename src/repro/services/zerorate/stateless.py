"""Stateless (packet-based) zero-rating (§4.6).

"Transport protocols that guarantee a cookie is contained within a single
packet (e.g., IPv6 extension header, QUIC) ... In the extreme, if every
packet carries a cookie, flow-related state is eliminated (in the expense
of bandwidth overhead and higher matching rates)."

:class:`StatelessZeroRater` is that extreme: no flow table at all.  Every
packet is judged on its own cookies — one valid means free, else
charged — so a box can restart (or a flow can migrate between boxes)
without losing accounting state.  Use packet-granularity descriptors and
a single-packet carrier (IPv6 extension header or the UDP shim).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ...core.matcher import CookieMatcher
from ...core.transport import TransportRegistry, default_registry
from ...netsim.middlebox import Element
from ...netsim.packet import Packet
from .middlebox import (
    SubscriberCounters,
    _is_private,
    _subscriber_side,
    byte_totals,
)

if TYPE_CHECKING:  # pragma: no cover - hints only
    from ...services.billing import BillingAccountant

__all__ = ["StatelessZeroRater"]


class StatelessZeroRater(Element):
    """Per-packet zero-rating with zero flow state.

    Keeps only the per-subscriber counters (which a real box persists
    anyway for billing); everything else is recomputed per packet.
    """

    def __init__(
        self,
        matcher: CookieMatcher,
        clock: Callable[[], float],
        registry: TransportRegistry | None = None,
        is_subscriber: Callable[[str], bool] | None = None,
        billing: "BillingAccountant | None" = None,
        name: str = "zero-rating-stateless",
    ) -> None:
        super().__init__(name)
        self.matcher = matcher
        self.clock = clock
        self.registry = registry or default_registry()
        self.is_subscriber = is_subscriber or _is_private
        #: Same contract as :class:`ZeroRatingMiddlebox`'s ``billing``:
        #: the cookie establishes the app, the subscriber's operator
        #: catalog decides freeness, and the accountant journals the
        #: delta.  Because every packet is judged alone, the stateless
        #: and stateful paths produce identical billing decisions for
        #: the same bytes (pinned by ``tests/model/``).  A
        #: cookie is verified on every packet, so there are no runs to
        #: bill at once: ``account()`` stays per packet here.
        self.billing = billing
        self.counters: dict[str, SubscriberCounters] = {}
        self.packets_processed = 0
        self.cookie_hits = 0
        self.cookie_misses = 0
        #: Verifier *errors* (not clean rejections): the packet is
        #: charged, as on the stateful box — never free, never dropped.
        self.verifier_failures = 0

    def handle(self, packet: Packet) -> None:
        self.process_batch([packet])

    def process_batch(self, packets: list[Packet]) -> None:
        """The data path: one rx burst, one clock reading (PROTOCOL §9).

        Every packet is still judged alone on its own cookie; the burst
        only shares the observation time.  Nothing is dropped, so the
        whole burst is forwarded downstream in arrival order.  If
        something raises mid-burst (an accountant that fails), the
        packets processed before it are still forwarded, as bursts of
        one would have forwarded them.
        """
        now = self.clock()
        finished = 0  # packets done: the index of the one in hand
        try:
            for finished, packet in enumerate(packets):
                self.packets_processed += 1
                ip = packet.ip
                if ip is None:
                    continue
                cookied = False
                service = None
                found = self.registry.extract(packet)
                if found:
                    # Meta parity with the stateful box: a consumed
                    # (verified) cookie is marked so downstream taps — the
                    # chaos attacker, the neutrality auditor — see the same
                    # annotations on both implementations.
                    packet.meta["cookie_checked"] = True
                    for cookie in found:  # the first accepted one wins
                        try:
                            descriptor = self.matcher.match(cookie, now)
                        except Exception:
                            self.verifier_failures += 1
                            descriptor = None
                        if descriptor is not None:
                            break
                    if descriptor is not None:
                        cookied = True
                        service = descriptor.service_data
                        self.cookie_hits += 1
                    else:
                        self.cookie_misses += 1
                subscriber = _subscriber_side(
                    self.is_subscriber, ip.src, ip.dst
                )
                wire = packet.wire_length
                if self.billing is not None:
                    remote = ip.dst if subscriber == ip.src else ip.src
                    free = self.billing.account(
                        subscriber,
                        service if cookied else None,
                        remote,
                        wire,
                        cookied=cookied,
                        now=now,
                    )
                else:
                    free = cookied
                if free:
                    packet.meta["zero_rated"] = True
                counters = self.counters.get(subscriber)
                if counters is None:
                    counters = SubscriberCounters()
                    self.counters[subscriber] = counters
                if free:
                    counters.free_bytes += wire
                else:
                    counters.charged_bytes += wire
            finished = len(packets)
        finally:
            self.emit_batch(packets[:finished])

    def counters_for(self, subscriber_ip: str) -> SubscriberCounters:
        return self.counters.get(subscriber_ip, SubscriberCounters())

    @property
    def tracked_flows(self) -> int:
        """Always zero — the whole point."""
        return 0

    COUNTERS = (
        "packets_processed", "cookie_hits", "cookie_misses", "verifier_failures",
    )

    def register_telemetry(self, registry, prefix: str = "stateless") -> None:
        """Export the per-packet counters into a
        :class:`~repro.telemetry.MetricsRegistry` (same metric names as
        :meth:`ZeroRatingMiddlebox.register_telemetry`)."""
        registry.register(self, prefix, self.COUNTERS, read=self._read_metrics)

    def _read_metrics(self):
        # Subscriber counters are never evicted here, so the sums only grow.
        return (
            byte_totals(self.counters.values()),
            {"tracked_subscribers": len(self.counters)},
        )
