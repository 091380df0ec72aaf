"""AnyLink: the cloud-hosted, proxy-mode *slow* lane (§5, §4.6).

"AnyLink, a cloud-based version of Boost which provides slow (instead of
fast) lanes" — developers route traffic through the proxy and use cookies
to select an emulated link profile (2G, 3G, DSL, ...), testing how their
application behaves on slower networks.  Proxy mode means cookie
inspection is co-located with a web proxy the client explicitly sends its
traffic through, so no in-path deployment is needed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

from ...core import CookieMatcher, CookieServer, ServiceOffering
from ...core.transport import TransportRegistry, default_registry
from ...netsim.events import EventLoop
from ...netsim.middlebox import Element, ShaperElement
from ...netsim.packet import Packet, stamp
from ...netsim.queues import TokenBucket

__all__ = ["LinkProfile", "STANDARD_PROFILES", "AnyLinkProxy", "make_anylink_server"]


@dataclass(frozen=True)
class LinkProfile:
    """An emulated access link."""

    name: str
    rate_bps: float
    description: str = ""


#: Profiles AnyLink advertises (nominal downlink rates).
STANDARD_PROFILES: dict[str, LinkProfile] = {
    "2g": LinkProfile("2g", 50_000.0, "EDGE-class cellular"),
    "3g": LinkProfile("3g", 1_000_000.0, "HSPA cellular"),
    "dsl": LinkProfile("dsl", 6_000_000.0, "entry-level DSL"),
    "dialup": LinkProfile("dialup", 56_000.0, "56k modem"),
}


def make_anylink_server(
    clock: Callable[[], float],
    profiles: dict[str, LinkProfile] | None = None,
    lifetime: float = 3600.0,
) -> CookieServer:
    """A cookie server offering one service per link profile.

    ``service_data`` is the profile name so the proxy can map a matched
    descriptor straight to a shaper.
    """
    server = CookieServer(clock=clock)
    for profile in (profiles or STANDARD_PROFILES).values():
        server.offer(
            ServiceOffering(
                name=f"anylink-{profile.name}",
                description=f"slow lane: {profile.description}",
                lifetime=lifetime,
                service_data=profile.name,
            )
        )
    return server


class AnyLinkProxy(Element):
    """The proxy data path: cookied flows go through their profile's
    shaper; everything else passes at full speed.

    Flow→profile bindings are made on the first cookied packet and apply
    to both directions (the packet's stamp is the flow key), like every
    cookie service.
    """

    def __init__(
        self,
        loop: EventLoop,
        matcher: CookieMatcher,
        profiles: dict[str, LinkProfile] | None = None,
        registry: TransportRegistry | None = None,
        sniff_packets: int = 3,
        max_flows: int = 100_000,
        name: str = "anylink-proxy",
    ) -> None:
        super().__init__(name)
        if max_flows < 1:
            raise ValueError("max_flows must be at least 1")
        self.loop = loop
        self.matcher = matcher
        self.registry = registry or default_registry()
        self.profiles = dict(profiles or STANDARD_PROFILES)
        self.sniff_packets = sniff_packets
        self.max_flows = max_flows
        self._shapers: dict[str, ShaperElement] = {}
        self._flow_profiles: dict[object, str] = {}
        # LRU-ordered (entries re-inserted on touch): the first key is the
        # least recently active flow, evicted when max_flows is reached.
        self._flow_packets: dict[object, int] = {}
        self.flows_bound = 0
        self.flows_evicted = 0
        #: Verifier errors (not rejections): the packet passes unshaped.
        self.verifier_failures = 0

    COUNTERS = ("flows_bound", "flows_evicted", "verifier_failures")

    def register_telemetry(self, registry, prefix: str = "anylink") -> None:
        """Export proxy bindings and per-profile flow counts into a
        :class:`~repro.telemetry.MetricsRegistry`."""
        registry.register(self, prefix, self.COUNTERS, read=self._read_metrics)

    def _read_metrics(self):
        gauges = {
            "tracked_flows": len(self._flow_packets),
            "active_shapers": len(self._shapers),
        }
        bound = Counter(self._flow_profiles.values())
        for profile_name in self.profiles:
            gauges[f"profile.{profile_name}.flows"] = bound[profile_name]
        return {}, gauges

    def _shaper_for(self, profile_name: str) -> ShaperElement:
        shaper = self._shapers.get(profile_name)
        if shaper is None:
            profile = self.profiles[profile_name]
            # Burst scales with the emulated rate (~250 ms worth, at least
            # two MTUs) so a 2G profile actually feels like 2G instead of
            # hiding behind a default burst sized for broadband.
            burst = max(3_000, int(profile.rate_bps / 8 * 0.25))
            shaper = ShaperElement(
                self.loop,
                TokenBucket(rate_bps=profile.rate_bps, burst_bytes=burst),
                name=f"anylink-{profile_name}",
            )
            # All shapers feed the proxy's downstream.
            shaper.downstream = self.downstream
            self._shapers[profile_name] = shaper
        return shaper

    def handle(self, packet: Packet) -> None:
        key = packet.flow_key or stamp(packet)
        if key is None:
            self.emit(packet)
            return
        count = self._flow_packets.pop(key, 0) + 1
        if count == 1:
            while len(self._flow_packets) >= self.max_flows:
                oldest = next(iter(self._flow_packets))
                del self._flow_packets[oldest]
                self._flow_profiles.pop(oldest, None)
                self.flows_evicted += 1
        self._flow_packets[key] = count
        profile_name = self._flow_profiles.get(key)
        if profile_name is None and count <= self.sniff_packets:
            found = self.registry.extract(packet)
            if found is not None:
                try:
                    descriptor = self.matcher.match(found[0], self.loop.now)
                except Exception:
                    self.verifier_failures += 1
                    descriptor = None
                if descriptor is not None and descriptor.service_data in self.profiles:
                    profile_name = str(descriptor.service_data)
                    self._flow_profiles[key] = profile_name
                    self.flows_bound += 1
        if profile_name is None:
            self.emit(packet)
            return
        packet.meta["anylink_profile"] = profile_name
        self._shaper_for(profile_name).push(packet)

    def __rshift__(self, other: Element) -> Element:
        # Keep existing shapers pointed at the (new) downstream.
        result = super().__rshift__(other)
        for shaper in self._shapers.values():
            shaper.downstream = other
        return result
