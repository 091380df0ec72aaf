"""Out-of-band (SDN) flow-description baseline.

The agent observes flows at the endpoint and asks a centralized controller
— over a slow control channel — to install match rules in network
switches.  Two structural problems follow the paper's §3:

- **Control-plane cost**: one rule installation per flow; loading cnn.com
  means 255 controller transactions, each paying ``signaling_latency``.
  Packets arriving before the rule lands are missed.
- **NAT breaks the description**: a 5-tuple captured at the browser has
  the private source address; the head-end sees the NAT'd one.  Full-tuple
  rules match nothing.  The workaround — match destination (ip, port) only
  — works, but any other traffic to the same co-hosted servers now matches
  too: false positives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable

from ..netsim.middlebox import Element
from ..netsim.packet import Packet

__all__ = ["FlowDescription", "OobController", "OobSwitch", "OobStats"]


@dataclass(frozen=True)
class FlowDescription:
    """A match rule; ``None`` fields are wildcards."""

    src_ip: str | None = None
    src_port: int | None = None
    dst_ip: str | None = None
    dst_port: int | None = None
    proto: int | None = None

    @classmethod
    def of_packet(cls, packet: Packet, mode: str = "dst_only") -> "FlowDescription":
        """Describe a flow as seen at the endpoint.

        ``mode='full_tuple'`` captures all five fields; ``'dst_only'`` is
        the NAT workaround using only static server-side fields.
        """
        if mode == "full_tuple":
            return cls(
                src_ip=packet.src_ip,
                src_port=packet.src_port,
                dst_ip=packet.dst_ip,
                dst_port=packet.dst_port,
                proto=packet.proto,
            )
        if mode == "dst_only":
            return cls(dst_ip=packet.dst_ip, dst_port=packet.dst_port)
        raise ValueError(f"unknown description mode {mode!r}")


@dataclass
class OobStats:
    rules_requested: int = 0
    rules_installed: int = 0
    control_messages: int = 0


class OobController:
    """The centralized control plane.

    Rule installations are not instantaneous: with an event loop, each
    rule lands ``signaling_latency`` seconds after it is requested, so a
    flow's early packets race the control plane.  Without a loop the
    installation is immediate (useful for order-driven experiments where
    the caller interleaves packets and installs explicitly).
    """

    def __init__(
        self,
        switch: "OobSwitch",
        loop=None,
        signaling_latency: float = 0.01,
        authenticate: Callable[[str], bool] | None = None,
    ) -> None:
        self.switch = switch
        self.loop = loop
        self.signaling_latency = signaling_latency
        self.authenticate = authenticate
        self.stats = OobStats()

    def request_service(
        self, user: str, description: FlowDescription, service: str
    ) -> bool:
        """Agent-side API: ask for ``service`` on flows matching
        ``description``.  Returns False if authentication fails."""
        self.stats.control_messages += 1
        if self.authenticate is not None and not self.authenticate(user):
            return False
        self.stats.rules_requested += 1
        if self.loop is not None:
            self.loop.schedule(
                self.signaling_latency,
                lambda: self._install(description, service),
            )
        else:
            self._install(description, service)
        return True

    def withdraw_service(self, description: FlowDescription) -> None:
        """Remove a previously installed rule (revocation path)."""
        self.stats.control_messages += 1
        self.switch.remove_rule(description)

    def _install(self, description: FlowDescription, service: str) -> None:
        self.switch.install_rule(description, service)
        self.stats.rules_installed += 1


def _shape_and_values(description: FlowDescription) -> tuple[tuple[int, ...], tuple]:
    """Which of the five fields ``description`` sets, and all five."""
    values = (
        description.src_ip,
        description.src_port,
        description.dst_ip,
        description.dst_port,
        description.proto,
    )
    return tuple(i for i, value in enumerate(values) if value is not None), values


def _key_of(shape: tuple[int, ...]) -> Callable[[tuple], object]:
    """Project a five-field tuple onto the fields of ``shape``."""
    if not shape:
        return lambda values: ()
    return itemgetter(*shape)


class OobSwitch(Element):
    """A switch matching packets against controller-installed rules.

    The first installed rule that matches wins, as a scan of ``rules`` in
    order would find it.  Rules are indexed by shape (which of the five
    fields are set); each shape maps its set values to ``(rank, service)``
    so a packet costs two dict lookups per shape, in both orientations,
    instead of a scan over every rule.  A re-install keeps its rank, as a
    dict key keeps its place; a remove and re-add goes last.
    """

    def __init__(self, qos_class: int = 0, name: str = "oob-switch") -> None:
        super().__init__(name)
        self.rules: dict[FlowDescription, str] = {}
        self.qos_class = qos_class
        self.matched = 0
        self._index: dict[tuple[int, ...], tuple[Callable, dict]] = {}
        self._ranks = itertools.count()

    def install_rule(self, description: FlowDescription, service: str) -> None:
        shape, values = _shape_and_values(description)
        entry = self._index.get(shape)
        if entry is None:
            entry = self._index[shape] = (_key_of(shape), {})
        key_of, table = entry
        key = key_of(values)
        hit = table.get(key)
        rank = hit[0] if hit is not None else next(self._ranks)
        table[key] = (rank, service)
        self.rules[description] = service

    def remove_rule(self, description: FlowDescription) -> None:
        if description not in self.rules:
            return
        del self.rules[description]
        shape, values = _shape_and_values(description)
        key_of, table = self._index[shape]
        del table[key_of(values)]
        if not table:
            del self._index[shape]

    def service_of(self, packet: Packet) -> str | None:
        if not self._index:
            return None
        src_ip, src_port = packet.src_ip, packet.src_port
        dst_ip, dst_port = packet.dst_ip, packet.dst_port
        proto = packet.proto
        forward = (src_ip, src_port, dst_ip, dst_port, proto)
        reverse = (dst_ip, dst_port, src_ip, src_port, proto)
        best = None
        for key_of, table in self._index.values():
            for hit in (table.get(key_of(forward)), table.get(key_of(reverse))):
                if hit is not None and (best is None or hit[0] < best[0]):
                    best = hit
        return None if best is None else best[1]

    def handle(self, packet: Packet) -> None:
        service = self.service_of(packet)
        if service is not None:
            packet.meta["qos_class"] = self.qos_class
            packet.meta["service"] = service
            packet.meta["boosted_by"] = "oob"
            self.matched += 1
        self.emit(packet)
