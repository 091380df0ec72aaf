"""A flow-based DPI engine (the nDPI stand-in).

The engine inspects what a real middlebox can see — SNI in ClientHellos,
Host headers in plaintext HTTP, destination IPs and ports — during the
first packets of each flow, labels the flow with the first matching rule,
and remembers the label for the rest of the flow.  Encrypted payloads
beyond the handshake are opaque to it.

Its limitations are the paper's §3 argument, and they emerge here rather
than being hard-coded: a site with no rule is invisible; CDN-hosted
content is attributed to the CDN's customer only when the SNI says so; an
embedded YouTube player inside another site is labelled ``youtube``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..netsim.appmsg import HTTPRequest, TLSClientHello
from ..netsim.flow import FlowTable
from ..netsim.middlebox import Element
from ..netsim.packet import Packet
from .dpi_rules import DpiRule, default_rule_db

__all__ = ["DpiEngine", "DpiStats", "DpiBooster"]

DPI_SNIFF_PACKETS = 8  # how deep into a flow the engine keeps looking


@dataclass
class DpiStats:
    packets: int = 0
    flows_labelled: int = 0
    packets_labelled: int = 0


class DpiEngine(Element):
    """Labels flows by application using a signature rule base."""

    def __init__(
        self,
        rules: list[DpiRule] | None = None,
        clock=None,
        flow_idle_timeout: float = 60.0,
        name: str = "dpi",
    ) -> None:
        super().__init__(name)
        self.rules = rules if rules is not None else default_rule_db()
        self.clock = clock or (lambda: 0.0)
        self.flows = FlowTable(idle_timeout=flow_idle_timeout)
        self.stats = DpiStats()

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def _classify_packet(self, packet: Packet) -> str | None:
        """Match one packet against the rule base (first hit wins)."""
        name = self._visible_name(packet)
        if name is not None:
            for rule in self.rules:
                if rule.matches_name(name):
                    return rule.app
        for rule in self.rules:
            if packet.dst_ip is not None and rule.matches_ip(packet.dst_ip):
                return rule.app
            if packet.dst_port is not None and packet.dst_port in rule.ports:
                return rule.app
        return None

    @staticmethod
    def _visible_name(packet: Packet) -> str | None:
        """The hostname a middlebox can actually read from this packet."""
        content = packet.payload.content
        if isinstance(content, TLSClientHello) and content.sni:
            return content.sni
        if isinstance(content, HTTPRequest) and not packet.payload.encrypted:
            return content.host or None
        return None

    def label_of(self, packet: Packet) -> str | None:
        """Classify a packet in the context of its flow (stateful)."""
        self.stats.packets += 1
        try:
            flow, _ = self.flows.observe(packet, self.clock())
        except ValueError:
            return self._classify_packet(packet)
        label = flow.annotations.get("dpi_label")
        if label is None and flow.packets <= DPI_SNIFF_PACKETS:
            label = self._classify_packet(packet)
            if label is not None:
                flow.annotations["dpi_label"] = label
                self.stats.flows_labelled += 1
        if label is not None:
            self.stats.packets_labelled += 1
        return label

    def handle(self, packet: Packet) -> None:
        label = self.label_of(packet)
        if label is not None:
            packet.meta["dpi_app"] = label
        self.emit(packet)


class DpiBooster(Element):
    """A DPI-driven fast lane: boost packets the engine attributes to the
    target application.  This is the baseline Fig. 6(b) scores."""

    def __init__(
        self,
        engine: DpiEngine,
        target_app: str,
        qos_class: int = 0,
        name: str = "dpi-booster",
    ) -> None:
        super().__init__(name)
        self.engine = engine
        self.target_app = target_app
        self.qos_class = qos_class
        self.boosted = 0

    def handle(self, packet: Packet) -> None:
        if self.engine.label_of(packet) == self.target_app:
            packet.meta["qos_class"] = self.qos_class
            packet.meta["boosted_by"] = "dpi"
            self.boosted += 1
        self.emit(packet)
