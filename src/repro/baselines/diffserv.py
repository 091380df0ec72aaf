"""DiffServ (DSCP) baseline.

DiffServ lets endpoints mark the 6 DSCP bits and lets networks map marks
to classes.  The paper's §3 critique is reproduced structurally:

- only 64 classes exist (:data:`DSCP_MAX` + 1), several already claimed by
  the network internally;
- *anything* can set the bits — there is no authentication, so an
  opportunistic application (:class:`OpportunisticMarker`) obtains service
  the user never asked for and cannot revoke;
- operators routinely bleach marks at boundaries
  (:class:`BoundaryRemarker`), so marks do not survive across networks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..netsim.headers import DSCP_MAX
from ..netsim.middlebox import Element
from ..netsim.packet import Packet

__all__ = [
    "DscpClassTable",
    "EndpointMarker",
    "OpportunisticMarker",
    "BoundaryRemarker",
    "DscpEnforcer",
]


@dataclass
class DscpClassTable:
    """The network's mapping from code points to service classes.

    ``reserved`` models code points the operator already uses internally;
    user-facing services must fit in what remains — the paper's "limited
    set ... leaving little room for customization".
    """

    classes: dict[int, str] = field(default_factory=dict)
    reserved: set[int] = field(default_factory=lambda: {46, 26, 10, 0})

    def define(self, dscp: int, service: str) -> None:
        if not 0 <= dscp <= DSCP_MAX:
            raise ValueError(f"DSCP {dscp} out of range")
        if dscp in self.reserved:
            raise ValueError(f"DSCP {dscp} is reserved for internal use")
        if len(self.classes) + len(self.reserved) > DSCP_MAX:
            raise ValueError("DSCP space exhausted")
        self.classes[dscp] = service

    def service_of(self, dscp: int) -> str | None:
        return self.classes.get(dscp)


class EndpointMarker(Element):
    """An application or OS marking its own traffic with a DSCP value.

    ``predicate`` selects which packets to mark; crucially, nothing
    verifies that the *user* sanctioned the marking.
    """

    def __init__(
        self,
        dscp: int,
        predicate: Callable[[Packet], bool] | None = None,
        name: str = "dscp-marker",
    ) -> None:
        super().__init__(name)
        if not 0 <= dscp <= DSCP_MAX:
            raise ValueError(f"DSCP {dscp} out of range")
        self.dscp = dscp
        self.predicate = predicate or (lambda _p: True)
        self.marked = 0

    def handle(self, packet: Packet) -> None:
        if packet.ip is not None and self.predicate(packet):
            packet.set_dscp(self.dscp)
            self.marked += 1
        self.emit(packet)


class OpportunisticMarker(EndpointMarker):
    """The paper's legacy games console: sets a premium code point for all
    its traffic without asking anyone, possibly incurring charges the user
    cannot refuse except by unplugging the device."""

    def __init__(self, dscp: int = 34, name: str = "legacy-console") -> None:
        super().__init__(dscp=dscp, name=name)


class BoundaryRemarker(Element):
    """Operator behaviour at a network boundary.

    ``mode='bleach'`` resets every mark to zero (the common case the paper
    notes: "Network operators often ignore or even reset DSCP bits across
    network boundaries"); ``mode='remap'`` rewrites marks through a table;
    ``mode='trust'`` passes marks unchanged.
    """

    def __init__(
        self,
        mode: str = "bleach",
        remap: dict[int, int] | None = None,
        name: str = "boundary",
    ) -> None:
        super().__init__(name)
        if mode not in ("bleach", "remap", "trust"):
            raise ValueError(f"unknown boundary mode {mode!r}")
        self.mode = mode
        self.remap = dict(remap or {})
        self.rewritten = 0

    def handle(self, packet: Packet) -> None:
        if packet.ip is not None and self.mode != "trust":
            if self.mode == "bleach":
                if packet.dscp != 0:
                    packet.set_dscp(0)
                    self.rewritten += 1
            else:
                new = self.remap.get(packet.dscp, 0)
                if new != packet.dscp:
                    packet.set_dscp(new)
                    self.rewritten += 1
        self.emit(packet)


class DscpEnforcer(Element):
    """Maps DSCP values to local QoS classes for enforcement.

    This is legitimate *internal* use — the role the paper concludes
    DiffServ is actually suited for, including as the second stage of the
    cookie→DSCP edge deployment.
    """

    def __init__(
        self,
        table: DscpClassTable,
        class_to_level: dict[str, int] | None = None,
        name: str = "dscp-enforcer",
    ) -> None:
        super().__init__(name)
        self.table = table
        self.class_to_level = dict(class_to_level or {})
        self.served = 0

    def handle(self, packet: Packet) -> None:
        service = self.table.service_of(packet.dscp)
        if service is not None:
            packet.meta["service"] = service
            level = self.class_to_level.get(service)
            if level is not None:
                packet.meta["qos_class"] = level
            self.served += 1
        self.emit(packet)
