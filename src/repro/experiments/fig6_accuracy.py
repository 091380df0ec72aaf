"""Fig. 6: matching accuracy of cookies vs nDPI vs out-of-band rules.

For each target site (cnn.com, youtube.com, skai.gr) the experiment loads
the target *and* the other catalog pages plus a background facebook
session through a NAT'd home network, asks one mechanism to boost the
target, and scores the outcome against ground truth:

- ``matched``: fraction of the target page's packets that got boosted;
- ``false``: packets from *other* traffic that got boosted, reported both
  per-site (nDPI marks 12 % of skai.gr's packets when boosting
  youtube.com) and as a fraction of everything marked (OOB's ≈40 % false
  positives on cnn.com).

The mechanisms run over the same WAN vantage point the paper's head-end
router has: uplink packets post-NAT, downlink packets addressed to the
public IP.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..baselines.dpi import DpiBooster, DpiEngine
from ..baselines.oob import FlowDescription, OobController, OobSwitch
from ..core import CookieMatcher, CookieServer, DescriptorStore, ServiceOffering
from ..core.switch import CookieSwitch
from ..netsim.middlebox import Element, Sink
from ..netsim.nat import NAT44
from ..netsim.packet import Packet
from ..services.boost import BOOST_SERVICE, BoostAgent
from ..web.browser import Browser
from ..web.sites import site_catalog

__all__ = ["AccuracyResult", "run_accuracy", "run_all_targets", "TARGET_SITES",
           "DPI_APP_OF_SITE"]

TARGET_SITES = ("cnn.com", "youtube.com", "skai.gr")

#: What a DPI operator would configure to boost each site.
DPI_APP_OF_SITE = {"cnn.com": "cnn", "youtube.com": "youtube", "skai.gr": "skai"}


@dataclass
class AccuracyResult:
    """Scores for one (mechanism, target) run."""

    mechanism: str
    target: str
    target_packets: int = 0
    matched_packets: int = 0
    false_packets: int = 0
    false_by_site: dict[str, tuple[int, int]] = field(default_factory=dict)

    @property
    def matched_fraction(self) -> float:
        return self.matched_packets / self.target_packets if self.target_packets else 0.0

    @property
    def marked_packets(self) -> int:
        return self.matched_packets + self.false_packets

    @property
    def false_fraction_of_marked(self) -> float:
        """False positives as a fraction of everything the mechanism
        marked (the paper's "40 % false positives" metric for OOB)."""
        return self.false_packets / self.marked_packets if self.marked_packets else 0.0

    def false_fraction_of_site(self, site: str) -> float:
        """Falsely marked packets of one site over that site's packets
        (the paper's "12 % of packets from skai.gr" metric for nDPI)."""
        marked, total = self.false_by_site.get(site, (0, 0))
        return marked / total if total else 0.0

    def summary(self) -> dict[str, object]:
        return {
            "mechanism": self.mechanism,
            "target": self.target,
            "matched": round(self.matched_fraction, 4),
            "false_of_marked": round(self.false_fraction_of_marked, 4),
            "false_by_site": {
                site: round(marked / total, 4) if total else 0.0
                for site, (marked, total) in self.false_by_site.items()
            },
        }


class _WanRewriter(Element):
    """Presents the head-end (WAN) view of both directions.

    Uplink packets pass through the NAT's outbound face; downlink packets
    (which the browser addressed to the private client) are rewritten to
    the public endpoint the server would actually have replied to.
    """

    def __init__(self, nat: NAT44) -> None:
        super().__init__(name="wan-view")
        self.nat = nat

    def handle(self, packet: Packet) -> None:
        if packet.meta.get("direction") == "up":
            self.nat.outbound.downstream = self.downstream
            self.nat.outbound.push(packet)
            return
        if packet.ip is not None and packet.l4 is not None:
            mapping = self.nat.mapping_for_private(
                packet.ip.dst, packet.l4.dst_port, int(packet.proto or 0)
            )
            packet.ip.dst = mapping.public_ip
            packet.l4.dst_port = mapping.public_port
            packet.flow_key = packet.pkt_len = None
        self.emit(packet)


def _is_boosted(packet: Packet) -> bool:
    return packet.meta.get("qos_class") == 0 or "boosted_by" in packet.meta


def _score(result: AccuracyResult, packets: list[Packet]) -> AccuracyResult:
    per_site_totals: dict[str, int] = {}
    for packet in packets:
        site = packet.meta.get("site", "?")
        per_site_totals[site] = per_site_totals.get(site, 0) + 1
    per_site_false: dict[str, int] = {}
    for packet in packets:
        site = packet.meta.get("site", "?")
        boosted = _is_boosted(packet)
        if site == result.target:
            result.target_packets += 1
            if boosted:
                result.matched_packets += 1
        elif boosted:
            result.false_packets += 1
            per_site_false[site] = per_site_false.get(site, 0) + 1
    for site, total in per_site_totals.items():
        if site != result.target:
            result.false_by_site[site] = (per_site_false.get(site, 0), total)
    return result


def _generate_mix(target: str, seed: int, hook=None) -> list[Packet]:
    """All four page loads through one browser, one tab per site.

    ``hook(packet, context)`` is registered before loading so mechanisms
    with an endpoint agent (cookies, OOB) see every request.
    """
    browser = Browser(seed=seed)
    if hook is not None:
        browser.on_request(hook)
    catalog = site_catalog()
    ordered_sites = [target] + [s for s in catalog if s != target]
    packets: list[Packet] = []
    for site in ordered_sites:
        tab = browser.open_tab(site)
        packets.extend(browser.load_page(tab, catalog[site]))
    return packets


def _push_through(packets: list[Packet], nat: NAT44, mechanism: Element) -> list[Packet]:
    sink = Sink()
    wan = _WanRewriter(nat)
    wan >> mechanism
    mechanism >> sink
    for packet in packets:
        wan.push(packet)
    return sink.packets


# ----------------------------------------------------------------------
# Mechanism runs
# ----------------------------------------------------------------------
def run_cookies(target: str, seed: int = 0) -> AccuracyResult:
    """Boost ``target`` via the Boost agent + cookie switch."""
    clock = lambda: 0.0  # noqa: E731 - single shared instant
    store = DescriptorStore()
    server = CookieServer(clock=clock)
    server.offer(ServiceOffering(name=BOOST_SERVICE, lifetime=3600.0))
    server.attach_enforcement_store(store)
    agent = BoostAgent("resident", clock=clock, channel=server.handle_request)
    agent.always_boost(target)
    packets = _generate_mix(target, seed, hook=agent.on_request)
    nat = NAT44(public_ip="198.51.100.7")
    switch = CookieSwitch(CookieMatcher(store), clock=clock, name="fig6-cookies")
    observed = _push_through(packets, nat, switch)
    return _score(AccuracyResult("cookies", target), observed)


def run_ndpi(target: str, seed: int = 0) -> AccuracyResult:
    """Boost ``target`` via DPI classification."""
    engine = DpiEngine()
    booster = DpiBooster(engine, target_app=DPI_APP_OF_SITE[target])
    packets = _generate_mix(target, seed)
    nat = NAT44(public_ip="198.51.100.7")
    observed = _push_through(packets, nat, booster)
    return _score(AccuracyResult("ndpi", target), observed)


def run_oob(target: str, seed: int = 0, mode: str = "dst_only") -> AccuracyResult:
    """Boost ``target`` via out-of-band flow descriptions.

    ``mode='dst_only'`` is the NAT workaround the paper analyzes;
    ``mode='full_tuple'`` shows the unworked-around failure (nothing
    matches post-NAT).
    """
    switch = OobSwitch(name="fig6-oob")
    controller = OobController(switch)

    def hook(packet: Packet, context) -> None:
        if context.address_bar_domain == target:
            controller.request_service(
                "resident", FlowDescription.of_packet(packet, mode=mode), "boost"
            )

    packets = _generate_mix(target, seed, hook=hook)
    nat = NAT44(public_ip="198.51.100.7")
    observed = _push_through(packets, nat, switch)
    return _score(AccuracyResult(f"oob-{mode}", target), observed)


def run_accuracy(target: str, seed: int = 0) -> dict[str, AccuracyResult]:
    """All three mechanisms against one target."""
    return {
        "cookies": run_cookies(target, seed),
        "ndpi": run_ndpi(target, seed),
        "oob": run_oob(target, seed),
    }


def run_all_targets(seed: int = 0) -> dict[str, dict[str, AccuracyResult]]:
    """The full Fig. 6 grid: {target: {mechanism: result}}."""
    return {target: run_accuracy(target, seed) for target in TARGET_SITES}
