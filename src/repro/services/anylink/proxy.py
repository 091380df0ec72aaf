"""AnyLink: the cloud-hosted, proxy-mode *slow* lane (§5, §4.6).

"AnyLink, a cloud-based version of Boost which provides slow (instead of
fast) lanes" — developers route traffic through the proxy and use cookies
to select an emulated link profile (2G, 3G, DSL, ...), testing how their
application behaves on slower networks.  Proxy mode means cookie
inspection is co-located with a web proxy the client explicitly sends its
traffic through, so no in-path deployment is needed.

:class:`AnyLinkProxy` is a :class:`~repro.core.switch.CookieSwitch` whose
service is a shaper, as Boost's is a fast lane: the switch sniffs,
verifies and binds flows, and drops a binding whose descriptor was
revoked or expired on the flow's next packet.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

from ...core import CookieDescriptor, CookieMatcher, CookieServer, ServiceOffering
from ...core.switch import CookieSwitch
from ...core.transport import TransportRegistry
from ...netsim.events import EventLoop
from ...netsim.middlebox import Element, ShaperElement
from ...netsim.packet import Packet
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


def _mark_profile(descriptor: CookieDescriptor, packet: Packet) -> None:
    packet.meta["anylink_profile"] = descriptor.service_data


class AnyLinkProxy(CookieSwitch):
    """The proxy data path: packets the switch marks with a profile go
    through that profile's shaper; everything else passes at full speed.
    """

    def __init__(
        self,
        loop: EventLoop,
        matcher: CookieMatcher,
        profiles: dict[str, LinkProfile] | None = None,
        registry: TransportRegistry | None = None,
        sniff_packets: int = 3,
        name: str = "anylink-proxy",
    ) -> None:
        super().__init__(
            matcher,
            loop=loop,
            registry=registry,
            applier=_mark_profile,
            sniff_packets=sniff_packets,
            name=name,
        )
        self.loop = loop
        self.profiles = dict(profiles or STANDARD_PROFILES)
        self._shapers: dict[str, ShaperElement] = {}

    def register_telemetry(self, registry, prefix: str = "anylink") -> None:
        """The switch's metrics plus shapers and per-profile bound flows."""
        super().register_telemetry(registry, prefix)

    def _read_metrics(self):
        counters, gauges = super()._read_metrics()
        gauges["active_shapers"] = len(self._shapers)
        bound = Counter(
            flow.service.service_data for flow in self.flows
            if flow.service is not None
        )
        for profile_name in self.profiles:
            gauges[f"profile.{profile_name}.flows"] = bound[profile_name]
        return counters, gauges

    def serves(self, descriptor: CookieDescriptor) -> bool:
        return descriptor.service_data in self.profiles

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

    def emit_batch(self, packets: list[Packet]) -> None:
        plain: list[Packet] = []
        for packet in packets:
            profile_name = packet.meta.get("anylink_profile")
            if profile_name is None:
                plain.append(packet)
            else:
                super().emit_batch(plain)
                plain = []
                self._shaper_for(profile_name).push(packet)
        super().emit_batch(plain)

    def __rshift__(self, other: Element) -> Element:
        # Keep existing shapers pointed at the (new) downstream.
        result = super().__rshift__(other)
        for shaper in self._shapers.values():
            shaper.downstream = other
        return result
