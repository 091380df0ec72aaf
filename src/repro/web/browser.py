"""A browser model: tabs, page loads, and the agent vantage point.

The Boost agent lives in the browser because "what is simple and meaningful
for the user (e.g., a webpage) can be very complex for the network to
detect".  :class:`Browser` turns a :class:`PageModel` into the packet
stream a home router would see, and exposes the same vantage point Chrome's
``webRequest`` API gave the paper's extension: a callback per outgoing
request carrying the tab and address-bar context.

Ground truth (which page load and tab produced each packet) is recorded in
``packet.meta`` for scoring only — mechanisms under test must not read it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable

from ..netsim.appmsg import HTTPRequest, TLSClientHello, TLSRecord
from ..netsim.packet import Packet, make_tcp_packet, make_udp_packet
from .page import PageModel, ResourceFlow

__all__ = ["Tab", "RequestContext", "Browser"]

_tab_ids = itertools.count(1)
_load_ids = itertools.count(1)

REQUEST_SIZE_RANGE = (280, 700)
RESPONSE_SIZE_RANGE = (900, 1460)
DNS_SIZE = 80


@dataclass
class Tab:
    """One browser tab; the agent's "boost this tab" unit."""

    tab_id: int = field(default_factory=lambda: next(_tab_ids))
    address_bar: str = ""
    opened_at: float = 0.0
    closed: bool = False

    @property
    def domain(self) -> str:
        """The domain shown in the address bar — the paper's definition of
        a website for boosting purposes."""
        return self.address_bar


@dataclass
class RequestContext:
    """What the browser knows about an outgoing request.

    This is the context the agent matches preferences against: the tab
    that generated the request and the url in the address bar — richer
    than anything visible on the wire.
    """

    tab: Tab
    address_bar_domain: str
    flow: ResourceFlow
    load_id: int


RequestHook = Callable[[Packet, RequestContext], None]


class Browser:
    """Generates the packets of page loads and invokes agent hooks.

    ``on_request`` hooks fire for the first request packet of every *web*
    flow — the packet carrying the HTTP header or TLS ClientHello where a
    cookie can ride.  DNS and prefetch flows never hit the hooks, exactly
    like the real extension.
    """

    def __init__(
        self,
        client_ip: str = "192.168.1.100",
        seed: int = 0,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.client_ip = client_ip
        self.rng = random.Random(seed)
        self.clock = clock or (lambda: 0.0)
        self.tabs: dict[int, Tab] = {}
        self._hooks: list[RequestHook] = []
        self._next_port = 50_000
        self.loads_performed = 0

    # ------------------------------------------------------------------
    # Tabs and hooks
    # ------------------------------------------------------------------
    def on_request(self, hook: RequestHook) -> None:
        """Register an agent hook (the webRequest interception point)."""
        self._hooks.append(hook)

    def open_tab(self, url: str) -> Tab:
        tab = Tab(address_bar=url, opened_at=self.clock())
        self.tabs[tab.tab_id] = tab
        return tab

    def _ephemeral_port(self) -> int:
        port = self._next_port
        self._next_port += 1
        if self._next_port >= 60_000:
            self._next_port = 50_000
        return port

    # ------------------------------------------------------------------
    # Page loading
    # ------------------------------------------------------------------
    def load_page(self, tab: Tab, page: PageModel) -> list[Packet]:
        """Generate all packets for loading ``page`` in ``tab``.

        Returns packets in a realistic order: each flow's request first,
        responses interleaved round-robin across flows (so middleboxes see
        concurrent flows, not one at a time).  Uplink packets have
        ``meta['direction'] == 'up'``; downlink ``'down'``.
        """
        tab.address_bar = page.domain
        load_id = next(_load_ids)
        self.loads_performed += 1
        per_flow_packets: list[list[Packet]] = []
        for flow in page.flows:
            per_flow_packets.append(self._flow_packets(tab, page, flow, load_id))
        # Interleave: take one packet from each flow in turn.
        ordered: list[Packet] = []
        cursors = [0] * len(per_flow_packets)
        remaining = sum(len(p) for p in per_flow_packets)
        while remaining:
            for i, packets in enumerate(per_flow_packets):
                if cursors[i] < len(packets):
                    ordered.append(packets[cursors[i]])
                    cursors[i] += 1
                    remaining -= 1
        return ordered

    def _flow_packets(
        self, tab: Tab, page: PageModel, flow: ResourceFlow, load_id: int
    ) -> list[Packet]:
        if flow.kind == "dns":
            return self._dns_packets(page, flow, load_id)
        src_port = self._ephemeral_port()
        dst_port = 443 if flow.https else 80
        now = self.clock()
        packets: list[Packet] = []
        ground_truth = {
            "site": page.domain,
            "tab": tab.tab_id,
            "load": load_id,
            "kind": flow.kind,
            "direction": "up",
        }

        for i in range(flow.request_packets):
            if i == 0:
                content = self._first_request_content(flow)
                size = self.rng.randint(*REQUEST_SIZE_RANGE)
            else:
                content = TLSRecord(size=200) if flow.https else None
                size = self.rng.randint(120, 400)
            packet = make_tcp_packet(
                self.client_ip,
                src_port,
                flow.server.ip,
                dst_port,
                payload_size=size,
                content=content,
                encrypted=flow.https and i > 0,
                created_at=now,
            )
            packet.meta.update(ground_truth)
            if i == 0 and flow.kind not in PageModel.AUXILIARY_KINDS:
                context = RequestContext(
                    tab=tab,
                    address_bar_domain=tab.domain,
                    flow=flow,
                    load_id=load_id,
                )
                for hook in self._hooks:
                    hook(packet, context)
            packets.append(packet)

        for _ in range(flow.response_packets):
            size = self.rng.randint(*RESPONSE_SIZE_RANGE)
            packet = make_tcp_packet(
                flow.server.ip,
                dst_port,
                self.client_ip,
                src_port,
                payload_size=size,
                content=TLSRecord(size=size) if flow.https else None,
                encrypted=flow.https,
                created_at=now,
            )
            packet.meta.update(ground_truth)
            packet.meta["direction"] = "down"
            packets.append(packet)
        return packets

    def _dns_packets(
        self, page: PageModel, flow: ResourceFlow, load_id: int
    ) -> list[Packet]:
        src_port = self._ephemeral_port()
        query = make_udp_packet(
            self.client_ip, src_port, flow.server.ip, 53, payload_size=DNS_SIZE
        )
        answer = make_udp_packet(
            flow.server.ip, 53, self.client_ip, src_port, payload_size=DNS_SIZE + 40
        )
        for packet, direction in ((query, "up"), (answer, "down")):
            packet.meta.update(
                {
                    "site": page.domain,
                    "load": load_id,
                    "kind": "dns",
                    "direction": direction,
                }
            )
        return [query, answer]

    @staticmethod
    def _first_request_content(flow: ResourceFlow):
        """What a middlebox can read in the flow's first packet."""
        if flow.https:
            return TLSClientHello(sni=flow.sni or flow.server.hostname)
        return HTTPRequest(
            method="GET",
            path="/",
            host=flow.url_host or flow.server.hostname,
        )
