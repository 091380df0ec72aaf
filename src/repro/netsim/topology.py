"""Canonical topologies used by the experiments.

:class:`HomeNetwork` models the paper's deployment unit: a residential WiFi
router (OnHub analogue) with a NAT between LAN and WAN, a rate-limited
last-mile downlink with a two-level priority scheduler, and an optional
token-bucket throttle applied to non-fast-lane traffic — exactly the
provisioning the Boost daemon performs with WMM + ``tc``.

Middlebox elements (cookie matchers, DPI engines) are spliced into the WAN
ingress path where the paper's daemon sniffs traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .events import EventLoop
from .links import Link
from .middlebox import Counter, Element
from .nat import NAT44
from .packet import Packet
from .queues import StrictPriorityScheduler, TokenBucket, WMMScheduler
from .middlebox import ShaperElement
from .tcpmodel import TransferEndpoint

__all__ = ["HomeNetwork", "HomeNetworkConfig"]

FAST_LANE_CLASS = 0
DEFAULT_CLASS = 1


@dataclass
class HomeNetworkConfig:
    """Knobs for a :class:`HomeNetwork`.

    Defaults mirror the paper's Fig. 5(b) scenario: a 6 Mb/s downlink where
    the daemon throttles non-boosted traffic to 1 Mb/s when a boost is
    active.
    """

    downlink_bps: float = 6_000_000.0
    uplink_bps: float = 1_000_000.0
    propagation_delay: float = 0.01
    throttle_bps: float | None = 1_000_000.0
    #: Packets the throttle will hold before dropping (the ``tc`` qdisc
    #: queue limit).  Keeping this finite is what lets TCP inside the
    #: throttled lane see losses and back off instead of building seconds
    #: of standing queue.
    throttle_queue_packets: int = 200
    priority_levels: int = 2
    #: Use the WMM access-category scheduler on the downlink instead of
    #: strict priority — the actual queue the OnHub prototype used
    #: ("we use the high-bandwidth wireless WMM queue").  Classification
    #: then reads ``meta['qos_class_name']`` (the daemon stamps boosted
    #: traffic into the ``video`` category).
    use_wmm: bool = False
    queue_capacity: int = 100
    public_ip: str = "198.51.100.7"


class HomeNetwork:
    """A simulated home network with a prioritized, throttleable downlink.

    Downlink path (WAN to LAN)::

        wan_ingress -> [middleboxes...] -> throttle -> downlink -> endpoint

    Uplink path (LAN to WAN)::

        lan_ingress -> nat.outbound -> uplink -> wan_egress

    ``throttle`` shapes only packets whose ``meta['qos_class']`` is not the
    fast lane, and only while :attr:`throttle_active` — mirroring Boost,
    which throttles the rest of the traffic only when a boost is in effect.
    """

    def __init__(
        self,
        loop: EventLoop,
        config: HomeNetworkConfig | None = None,
        middleboxes: list[Element] | None = None,
    ) -> None:
        self.loop = loop
        self.config = config or HomeNetworkConfig()
        self.nat = NAT44(public_ip=self.config.public_ip)
        self.throttle_active = False

        # --- downlink -------------------------------------------------
        self.wan_ingress = Counter(name="wan-ingress")
        self.endpoint = TransferEndpoint(name="lan-endpoint")
        if self.config.use_wmm:
            scheduler: StrictPriorityScheduler | WMMScheduler = WMMScheduler(
                capacity_packets=self.config.queue_capacity
            )
        else:
            scheduler = StrictPriorityScheduler(
                levels=self.config.priority_levels,
                capacity_packets=self.config.queue_capacity,
            )
        self.downlink = Link(
            loop,
            rate_bps=self.config.downlink_bps,
            delay=self.config.propagation_delay,
            scheduler=scheduler,
            name="downlink",
        )
        self.throttle: ShaperElement | None = None
        chain: list[Element] = [self.wan_ingress]
        chain.extend(middleboxes or [])
        if self.config.throttle_bps is not None:
            bucket = TokenBucket(rate_bps=self.config.throttle_bps)
            self.throttle = ShaperElement(
                loop,
                bucket,
                predicate=self._should_throttle,
                name="non-boost-throttle",
                max_backlog=self.config.throttle_queue_packets,
            )
            chain.append(self.throttle)
        chain.append(self.downlink)
        chain.append(self.endpoint)
        for upstream, downstream in zip(chain, chain[1:]):
            upstream >> downstream
        self._downlink_chain = chain

        # --- uplink ---------------------------------------------------
        self.lan_ingress = Counter(name="lan-ingress")
        self.uplink = Link(
            loop,
            rate_bps=self.config.uplink_bps,
            delay=self.config.propagation_delay,
            name="uplink",
        )
        self.wan_egress = Counter(name="wan-egress")
        self.lan_ingress >> self.nat.outbound >> self.uplink >> self.wan_egress

    def _should_throttle(self, packet: Packet) -> bool:
        if not self.throttle_active:
            return False
        return packet.meta.get("qos_class", DEFAULT_CLASS) != FAST_LANE_CLASS

    def activate_throttle(self, rate_bps: float | None = None) -> None:
        """Start throttling non-fast-lane traffic (boost became active)."""
        if self.throttle is None:
            raise RuntimeError("network was built without a throttle stage")
        if rate_bps is not None:
            self.throttle.bucket.set_rate(rate_bps)
        self.throttle_active = True

    def deactivate_throttle(self) -> None:
        """Stop throttling (no boost in effect); Boost is not
        work-conserving, so the paper calls this out as a limitation —
        deactivation restores the full link to everyone."""
        self.throttle_active = False
