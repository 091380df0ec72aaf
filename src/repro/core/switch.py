"""The cookie-enabled switch / middlebox element (§4.2, component 3).

This is the data-path box: it watches traffic, finds cookies in the first
few packets of each flow (the Boost daemon "sniffs the first 3 incoming
packets for each flow"), verifies them, and binds the flow — and, when the
descriptor says so, its reverse — to the granted service.  Subsequent
packets of a bound flow skip cookie work entirely and are simply mapped,
which is what makes the paper's Fig. 4 throughput scale with flow length.

Service application is pluggable: the default applier stamps
``meta['qos_class']`` / ``meta['service']`` for local enforcement;
:class:`DscpServiceApplier` instead writes DSCP bits so an internal
mechanism enforces the service elsewhere (the paper's "Cookie→DSCP
mapping" deployment).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from ..netsim.events import EventLoop
from ..netsim.flow import Flow, FlowTable
from ..netsim.middlebox import Element
from ..netsim.packet import Packet
from .attributes import Granularity
from .descriptor import CookieDescriptor
from .generator import CookieGenerator
from .errors import CookieError, TransportError
from .matcher import CookieMatcher
from .transport.registry import TransportRegistry, default_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from ..telemetry import MetricsRegistry

__all__ = ["CookieSwitch", "DscpServiceApplier", "SwitchStats", "FAST_LANE_CLASS"]

FAST_LANE_CLASS = 0
DEFAULT_SNIFF_PACKETS = 3

ServiceApplier = Callable[[CookieDescriptor, Packet], None]


def _default_applier(descriptor: CookieDescriptor, packet: Packet) -> None:
    """Stamp local-enforcement metadata: fast-lane class + service name."""
    packet.meta["qos_class"] = FAST_LANE_CLASS
    packet.meta["service"] = descriptor.service_data


class DscpServiceApplier:
    """Applies services by writing DSCP bits instead of local metadata.

    ``service_to_dscp`` maps ``service_data`` values to code points; the
    switch at the edge looks up cookies once and the rest of the network
    needs only plain DiffServ — cookies used purely as the trusted
    *expression* mechanism.
    """

    def __init__(self, service_to_dscp: dict[Any, int], default_dscp: int = 0) -> None:
        self.service_to_dscp = dict(service_to_dscp)
        self.default_dscp = default_dscp
        self.marked = 0

    def __call__(self, descriptor: CookieDescriptor, packet: Packet) -> None:
        dscp = self.service_to_dscp.get(descriptor.service_data, self.default_dscp)
        if packet.ip is not None:
            packet.set_dscp(dscp)
            self.marked += 1
        packet.meta["service"] = descriptor.service_data


@dataclass
class SwitchStats:
    """Data-path counters for one switch."""

    packets: int = 0
    packets_sniffed: int = 0
    cookies_found: int = 0
    cookies_accepted: int = 0
    cookies_rejected: int = 0
    flows_bound: int = 0
    packets_served: int = 0
    acks_attached: int = 0
    verifier_failures: int = 0  # errors, not rejections: forwarded unserved


class CookieSwitch(Element):
    """A flow-aware element that verifies cookies and applies services."""

    def __init__(
        self,
        matcher: CookieMatcher,
        loop: EventLoop | None = None,
        clock: Callable[[], float] | None = None,
        registry: TransportRegistry | None = None,
        applier: ServiceApplier | None = None,
        sniff_packets: int = DEFAULT_SNIFF_PACKETS,
        flow_idle_timeout: float = 60.0,
        context: dict[str, Any] | None = None,
        name: str = "cookie-switch",
    ) -> None:
        super().__init__(name)
        if loop is None and clock is None:
            raise ValueError("provide an event loop or a clock")
        self.matcher = matcher
        self.clock: Callable[[], float] = clock or (lambda: loop.now)  # type: ignore[union-attr]
        self.registry = registry or default_registry()
        self.applier = applier or _default_applier
        if sniff_packets < 1:
            raise ValueError("must sniff at least one packet per flow")
        self.sniff_packets = sniff_packets
        self.flows = FlowTable(idle_timeout=flow_idle_timeout)
        #: What this switch can attest about itself (network name, region,
        #: domain, ...), matched against descriptor constraint attributes.
        self.context: dict[str, Any] = dict(context or {})
        self.stats = SwitchStats()

    def register_telemetry(
        self, registry: "MetricsRegistry", prefix: str = "switch"
    ) -> None:
        """Export :class:`SwitchStats` plus flow-table evictions and
        occupancy into a metrics registry."""
        registry.register(
            self, prefix, counters=("stats",), read=self._read_metrics
        )

    def _read_metrics(self):
        return (
            {"flows_evicted": self.flows.evicted_count},
            {"tracked_flows": len(self.flows)},
        )

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def handle(self, packet: Packet) -> None:
        """One packet is a burst of one."""
        self.process_batch([packet])

    def process_batch(self, packets: list[Packet]) -> None:
        """The data path: one rx burst, one clock reading.

        A burst leaves the switch (flow table, bindings, stats) exactly
        as the same packets pushed as bursts of one at the same instant
        would — including intra-burst effects such as a cookie on packet
        *i* binding the flow that packet *i+1* then rides as a bound
        flow.  Surviving packets are forwarded downstream as one burst.
        Non-IP traffic passes through untouched.
        """
        now = self.clock()
        stats = self.stats
        observe = self.flows.observe
        sniff_packets = self.sniff_packets
        out: list[Packet] = []
        append = out.append
        for packet in packets:
            stats.packets += 1
            try:
                flow, _is_new = observe(packet, now)
            except ValueError:
                append(packet)
                continue
            if flow.service is not None:
                self._serve_bound(flow, packet, now)
            elif flow.packets <= sniff_packets:
                stats.packets_sniffed += 1
                self._try_cookie(flow, packet, now)
            append(packet)
        self.emit_batch(out)

    def _try_cookie(self, flow: Flow, packet: Packet, now: float) -> None:
        # A packet may carry several composed cookies (e.g. one per access
        # network); act on the first one THIS switch's store recognizes
        # and whose constraints this switch's context satisfies.
        descriptor = None
        for cookie in self.registry.extract_all(packet):
            self.stats.cookies_found += 1
            try:
                candidate = self.matcher.match(cookie, now)
            except Exception:
                # Fail-safe, as on the zero-rating boxes: a verifier that
                # blows up has not said yes — best effort, never dropped.
                self.stats.verifier_failures += 1
                candidate = None
            if (
                candidate is None
                or not self.serves(candidate)
                or not candidate.attributes.matches_context(self.context)
            ):
                self.stats.cookies_rejected += 1
                continue
            descriptor = candidate
            break
        if descriptor is None:
            return
        self.stats.cookies_accepted += 1
        attributes = descriptor.attributes
        if attributes.granularity is Granularity.PACKET:
            # One-shot service: this packet only, no flow state at all.
            self.applier(descriptor, packet)
            self.stats.packets_served += 1
            return
        flow.service = descriptor
        # The binding packet's source endpoint: a later packet of the
        # flow from any other endpoint travels the reverse way.
        flow.annotations["bound_direction"] = (packet.ip.src, packet.l4.src_port)
        if attributes.delivery_guarantee:
            flow.annotations["needs_ack"] = True
        self.stats.flows_bound += 1
        self.applier(descriptor, packet)
        self.stats.packets_served += 1

    def serves(self, descriptor: CookieDescriptor) -> bool:
        """Whether this box offers the descriptor's service at all; a
        cookie for a service it does not offer is rejected."""
        return True

    def _serve_bound(self, flow: Flow, packet: Packet, now: float) -> None:
        descriptor: CookieDescriptor = flow.service
        if not descriptor.is_usable(now):
            # Revocation/expiry takes effect mid-flow: drop the binding.
            flow.service = None
            flow.annotations.pop("needs_ack", None)
            return
        is_reverse = (packet.ip.src, packet.l4.src_port) != flow.annotations.get(
            "bound_direction"
        )
        if is_reverse and flow.annotations.pop("needs_ack", False):
            # The delivery guarantee is about the *forward* service having
            # been applied, so the ack rides the first reverse packet even
            # when the descriptor does not service the reverse direction.
            self._attach_ack(descriptor, packet)
        if is_reverse and not descriptor.attributes.apply_reverse:
            return
        self.applier(descriptor, packet)
        self.stats.packets_served += 1

    def _attach_ack(self, descriptor: CookieDescriptor, packet: Packet) -> None:
        """Network delivery guarantee: acknowledge on reverse traffic.

        The switch holds the descriptor, so it generates a fresh ack cookie
        and attaches it to the first reverse packet.  Failure to attach is
        non-fatal — the client will then warn the user, per the paper.
        """
        try:
            ack = CookieGenerator(descriptor, self.clock).generate()
            self.registry.attach(
                packet, ack, allowed=descriptor.attributes.transports
            )
            self.stats.acks_attached += 1
        except (CookieError, TransportError):
            pass
