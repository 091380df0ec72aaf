"""Table 1: property matrix of cookies vs DPI vs OOB vs DiffServ.

Each row of the paper's Table 1 is evaluated here.  Wherever a property is
checkable by running code, the cell is computed by a live probe against
the actual implementations in this repository (composability, replay
protection, authentication, revocability, privacy, NAT independence,
transport diversity, delivery guarantees, delegation).  Structural
properties that are claims about workflow economics (transaction cost,
...) are declared constants with the paper's reasoning in the docstring — they are
still cross-checked against :data:`PAPER_TABLE1` by the benchmark.
"""

from __future__ import annotations

from ..core import (
    AcquisitionDenied,
    AuthenticatedUsersPolicy,
    CookieGenerator,
    CookieMatcher,
    CookieServer,
    CookieDescriptor,
    CookieAttributes,
    DelegatedParty,
    DelegationError,
    DescriptorStore,
    ServiceOffering,
    UserAgent,
    default_registry,
)
from ..netsim.appmsg import TLSClientHello
from ..netsim.packet import Packet, make_tcp_packet
from .diffserv import BoundaryRemarker, DscpClassTable, DscpEnforcer, OpportunisticMarker
from .oob import FlowDescription, OobController, OobSwitch

__all__ = ["MECHANISMS", "PAPER_TABLE1", "evaluate_table1", "format_table1"]

MECHANISMS = ("cookies", "dpi", "oob", "diffserv")

#: The matrix exactly as printed in the paper (✓=True, ✗=False), rows in
#: paper order, cells in :data:`MECHANISMS` order.
PAPER_TABLE1: dict[str, tuple[bool, bool, bool, bool]] = {
    "arbitrary traffic <-> arbitrary state": (True, False, True, False),
    "low transaction cost": (True, False, True, True),
    "high-level preferences": (True, False, True, True),
    "composable": (True, False, True, False),
    "delegatable": (True, False, True, False),
    "protection from replay, spoofing": (True, True, False, True),
    "built-in authentication": (True, False, True, False),
    "respect privacy": (True, False, True, True),
    "revocable": (True, False, True, False),
    "independent from headerspace, payload, path": (True, False, False, False),
    "high accuracy": (True, False, True, True),
    "multiple transport mechanisms": (True, False, False, False),
    "low overhead": (True, True, False, True),
    "network delivery guarantees": (True, False, True, False),
}


# ----------------------------------------------------------------------
# Live probes (cells demonstrated by running the implementations)
# ----------------------------------------------------------------------
def _probe_cookie_replay_protection() -> bool:
    """A replayed cookie must be rejected; a forged signature must be
    rejected."""
    store = DescriptorStore()
    descriptor = store.add(CookieDescriptor.create(service_data="probe"))
    matcher = CookieMatcher(store)
    cookie = CookieGenerator(descriptor, clock=lambda: 100.0).generate()
    first = matcher.match(cookie, now=100.0)
    replayed = matcher.match(cookie, now=100.1)
    forged = CookieGenerator(
        CookieDescriptor(cookie_id=descriptor.cookie_id, key=b"wrong-key"),
        clock=lambda: 100.0,
    ).generate()
    forged_result = matcher.match(forged, now=100.2)
    return first is not None and replayed is None and forged_result is None


def _probe_oob_spoofing() -> bool:
    """OOB rules are unauthenticated matches: anyone who sends traffic
    matching an installed destination rule receives the service.  Returns
    True if OOB *is* protected (it is not)."""
    switch = OobSwitch()
    switch.install_rule(FlowDescription(dst_ip="10.9.9.9", dst_port=443), "fast")
    spoofed = make_tcp_packet("172.16.0.66", 4242, "10.9.9.9", 443)
    return switch.service_of(spoofed) is None


def _probe_oob_revocation() -> bool:
    """A withdrawn OOB rule stops serving the flow it described."""
    switch = OobSwitch()
    controller = OobController(switch)
    description = FlowDescription(dst_ip="10.9.9.9", dst_port=443)
    packet = make_tcp_packet("192.168.1.2", 5000, "10.9.9.9", 443)
    controller.request_service("alice", description, "fast")
    served = switch.service_of(packet) == "fast"
    controller.withdraw_service(description)
    return served and switch.service_of(packet) is None


def _probe_cookie_authentication() -> bool:
    """Descriptor acquisition can demand credentials; bad ones are denied."""
    server = CookieServer(
        clock=lambda: 0.0,
        policy=AuthenticatedUsersPolicy(accounts={"alice": "s3cret"}),
    )
    server.offer(ServiceOffering(name="Boost"))
    try:
        server.acquire("mallory", "Boost", credentials={"secret": "guess"})
        return False
    except AcquisitionDenied:
        pass
    server.acquire("alice", "Boost", credentials={"secret": "s3cret"})
    return True


def _probe_diffserv_authentication() -> bool:
    """Any device can set DSCP bits and obtain the class — no consent.
    Returns True if DiffServ *is* authenticated (it is not)."""
    table = DscpClassTable()
    table.define(34, "premium")
    enforcer = DscpEnforcer(table)
    packet = make_tcp_packet("192.168.1.50", 1111, "8.8.8.8", 443)
    marker = OpportunisticMarker(dscp=34)
    marker >> enforcer
    marker.push(packet)
    unauthorized_served = packet.meta.get("service") == "premium"
    return not unauthorized_served


def _probe_cookie_revocation() -> bool:
    """After revocation, freshly generated cookies stop matching."""
    store = DescriptorStore()
    server = CookieServer(clock=lambda: 0.0)
    server.offer(ServiceOffering(name="Boost"))
    server.attach_enforcement_store(store)
    descriptor = server.acquire("alice", "Boost")
    matcher = CookieMatcher(store)
    generator = CookieGenerator(descriptor, clock=lambda: 1.0)
    before = matcher.match(generator.generate(), now=1.0)
    server.revoke(descriptor.cookie_id)
    # The user-side generator object may still sign, but the network must
    # now refuse (simulate an uncontrollable application still emitting).
    stale = CookieGenerator(
        CookieDescriptor(
            cookie_id=descriptor.cookie_id, key=descriptor.key, service_data="Boost"
        ),
        clock=lambda: 2.0,
    ).generate()
    after = matcher.match(stale, now=2.0)
    return before is not None and after is None


def _probe_cookie_privacy() -> bool:
    """A cookie on a fully encrypted packet (no SNI at all) still matches:
    the network grants service without learning what the traffic is."""
    store = DescriptorStore()
    descriptor = store.add(CookieDescriptor.create(service_data="Boost"))
    matcher = CookieMatcher(store)
    registry = default_registry()
    packet = make_tcp_packet(
        "192.168.1.2", 5000, "203.0.113.5", 443, payload_size=800, encrypted=True
    )
    cookie = CookieGenerator(descriptor, clock=lambda: 0.0).generate()
    registry.attach(packet, cookie)  # falls through to the TCP option carrier
    found = registry.extract(packet)
    return bool(found) and matcher.match(found[0], now=0.0) is not None


def _probe_cookie_nat_independence() -> bool:
    """Rewriting the 5-tuple (NAT) must not disturb cookie matching."""
    store = DescriptorStore()
    descriptor = store.add(CookieDescriptor.create(service_data="Boost"))
    matcher = CookieMatcher(store)
    registry = default_registry()
    packet = make_tcp_packet(
        "192.168.1.2", 5000, "203.0.113.5", 443,
        content=TLSClientHello(sni="example.com"),
    )
    cookie = CookieGenerator(descriptor, clock=lambda: 0.0).generate()
    registry.attach(packet, cookie)
    # NAT rewrites addresses; the cookie rides above the rewritten fields.
    packet.ip.src = "198.51.100.7"
    packet.l4.src_port = 23_456
    packet.flow_key = packet.pkt_len = None
    found = registry.extract(packet)
    return bool(found) and matcher.match(found[0], now=0.0) is not None


def _probe_oob_nat_dependence() -> bool:
    """A full-tuple OOB rule captured pre-NAT fails post-NAT.  Returns
    True if OOB *is* path independent (it is not)."""
    pre_nat = make_tcp_packet("192.168.1.2", 5000, "203.0.113.5", 443)
    rule = FlowDescription.of_packet(pre_nat, mode="full_tuple")
    switch = OobSwitch()
    switch.install_rule(rule, "fast")
    post_nat = make_tcp_packet("198.51.100.7", 23_456, "203.0.113.5", 443)
    return switch.service_of(post_nat) is not None


def _probe_diffserv_path_dependence() -> bool:
    """Marks are bleached at network boundaries.  Returns True if DiffServ
    marks *do* survive (they do not, under common operator policy)."""
    packet = make_tcp_packet("10.0.0.1", 1, "10.0.0.2", 2, dscp=34)
    boundary = BoundaryRemarker(mode="bleach")
    boundary.push(packet)
    return packet.dscp == 34


def _probe_cookie_transports() -> bool:
    """Cookies ride over HTTP, TLS, IPv6, TCP and UDP: a cookie attached
    through each carrier, to a packet that carrier can carry, crosses a
    NAT and is zero-rated by a middlebox."""
    from ..netsim.appmsg import HTTPRequest
    from ..netsim.headers import IPProto, IPv6Header, TCPHeader
    from ..netsim.middlebox import Sink
    from ..netsim.nat import NAT44
    from ..netsim.packet import Packet, Payload, make_udp_packet
    from ..services.zerorate import ZeroRatingMiddlebox

    clock = lambda: 0.0  # noqa: E731
    store = DescriptorStore()
    generator = CookieGenerator(
        store.add(CookieDescriptor.create(service_data="zero-rate")), clock=clock
    )
    lan, server = "192.168.1.2", "203.0.113.5"
    packets = {
        "http": make_tcp_packet(lan, 5001, server, 80,
                                content=HTTPRequest(host="example.com")),
        "tls": make_tcp_packet(lan, 5002, server, 443,
                               content=TLSClientHello(sni="example.com")),
        "ipv6": Packet(
            ip=IPv6Header(src="2001:db8::2", dst="2001:db8::5",
                          next_header=IPProto.TCP),
            l4=TCPHeader(src_port=5003, dst_port=443), payload=Payload(),
        ),
        "tcp": make_tcp_packet(lan, 5004, server, 443),
        "udp": make_udp_packet(lan, 5005, server, 443),
    }
    registry = default_registry()
    nat = NAT44("198.51.100.7")
    nat.outbound >> ZeroRatingMiddlebox(CookieMatcher(store), clock=clock) >> Sink()
    for name, packet in packets.items():
        registry.attach(packet, generator.generate(), allowed=(name,))
        nat.outbound.push(packet)
    return all(packet.meta.get("zero_rated") for packet in packets.values())


def _probe_cookie_delivery_guarantee() -> bool:
    """A switch with a delivery-guarantee descriptor attaches an
    acknowledgment cookie to reverse traffic, and the user agent that
    holds the descriptor recognises it; a reverse packet that did not
    cross the switch carries no acknowledgment."""
    from ..core.switch import CookieSwitch
    from ..netsim.middlebox import Sink

    store = DescriptorStore()
    server = CookieServer(clock=lambda: 0.0)
    server.offer(ServiceOffering(
        name="Boost",
        attribute_factory=lambda _now: CookieAttributes(delivery_guarantee=True),
    ))
    server.attach_enforcement_store(store)
    agent = UserAgent("alice", clock=lambda: 0.0, channel=server.handle_request)
    agent.acquire("Boost")
    switch = CookieSwitch(CookieMatcher(store), clock=lambda: 0.0)
    switch >> Sink()
    forward = make_tcp_packet(
        "192.168.1.2", 5000, "203.0.113.5", 443,
        content=TLSClientHello(sni="x.com"),
    )
    agent.insert_cookie(forward, "Boost")
    switch.push(forward)

    def reverse() -> Packet:
        return make_tcp_packet(
            "203.0.113.5", 443, "192.168.1.2", 5000,
            content=TLSClientHello(sni=""),
        )

    acknowledged = reverse()
    switch.push(acknowledged)
    return agent.check_delivery_ack(acknowledged, "Boost") and not (
        agent.check_delivery_ack(reverse(), "Boost")
    )


def _probe_cookie_delegation() -> bool:
    """A content provider handed a shared descriptor stamps cookies that
    the network's matcher accepts; a descriptor not marked shared is
    refused."""
    store = DescriptorStore()
    shared = store.add(CookieDescriptor.create(
        service_data="video", attributes=CookieAttributes(shared=True),
    ))
    private = store.add(CookieDescriptor.create(service_data="video"))
    provider = DelegatedParty("cdn.example", clock=lambda: 0.0)
    try:
        provider.accept_delegation(private)
        return False
    except DelegationError:
        pass
    provider.accept_delegation(shared)
    downlink = make_tcp_packet(
        "203.0.113.5", 443, "192.168.1.2", 5000,
        content=TLSClientHello(sni=""),
    )
    provider.stamp(downlink, shared.cookie_id)
    matcher = CookieMatcher(store)
    return any(
        matcher.match(cookie, now=0.0) is not None
        for cookie in default_registry().extract(downlink)
    )


def _probe_cookie_composition() -> bool:
    """§4.5's videocall: one packet carries network A's cookie, then
    network B's.  A's switch serves it, and B's zero-rating middlebox
    zero-rates it, each on the cookie its own store knows."""
    from ..core.switch import CookieSwitch
    from ..netsim.middlebox import Sink
    from ..services.zerorate import ZeroRatingMiddlebox

    clock = lambda: 0.0  # noqa: E731
    stores = [DescriptorStore(), DescriptorStore()]
    registry = default_registry()
    packet = make_tcp_packet(
        "192.168.1.5", 5004, "198.51.100.77", 5004,
        content=TLSClientHello(sni="call.example"),
    )
    for store in stores:
        descriptor = store.add(CookieDescriptor.create(service_data="realtime"))
        registry.attach(packet, CookieGenerator(descriptor, clock=clock).generate())
    switch = CookieSwitch(CookieMatcher(stores[0]), clock=clock)
    middlebox = ZeroRatingMiddlebox(CookieMatcher(stores[1]), clock=clock)
    for box in (switch, middlebox):
        box >> Sink()
    switch.push(packet)
    middlebox.push(packet)
    return packet.meta.get("service") == "realtime" and bool(
        packet.meta.get("zero_rated")
    )


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------
def evaluate_table1() -> dict[str, dict[str, bool]]:
    """Compute every cell; probe-backed where possible.

    Returns ``{row: {mechanism: bool}}`` in paper row order.
    """
    rows: dict[str, dict[str, bool]] = {}

    def row(name: str, cookies: bool, dpi: bool, oob: bool, diffserv: bool) -> None:
        rows[name] = {
            "cookies": cookies, "dpi": dpi, "oob": oob, "diffserv": diffserv,
        }

    # --- Simple & expressive -----------------------------------------
    # DPI can only bind traffic its rule base describes; DiffServ can only
    # bind to one of <64 shared classes.  Cookies and OOB name arbitrary
    # state.
    row("arbitrary traffic <-> arbitrary state",
        cookies=True, dpi=False, oob=True, diffserv=False)
    # Adding one more preference: cookies/OOB are one API call; DiffServ a
    # local marking rule; DPI needs a new signature authored and deployed
    # (SomaFM's 18 months).
    row("low transaction cost", cookies=True, dpi=False, oob=True, diffserv=True)
    # "Boost this webpage": endpoint-resident mechanisms see the page;
    # DPI in the network reconstructs at best a fraction (Fig. 6).
    row("high-level preferences", cookies=True, dpi=False, oob=True, diffserv=True)
    # Multiple services on one flow: several cookies or several rules
    # compose; one 6-bit field and one signature label do not.
    row("composable",
        cookies=_probe_cookie_composition(), dpi=False, oob=True, diffserv=False)
    # A descriptor (or a controller token) can be handed to a content
    # provider; a DPI signature or DSCP value cannot carry a grant.
    row("delegatable",
        cookies=_probe_cookie_delegation(), dpi=False, oob=True, diffserv=False)

    # --- Tussle aware -------------------------------------------------
    row("protection from replay, spoofing",
        cookies=_probe_cookie_replay_protection(),
        dpi=True,  # nothing to replay: service follows content, not tokens
        oob=_probe_oob_spoofing(),
        diffserv=True)  # likewise no token to steal; consent is the gap below
    row("built-in authentication",
        cookies=_probe_cookie_authentication(),
        dpi=False,  # the ISP decides; the user never authorizes anything
        oob=True,  # the controller API can authenticate its callers
        diffserv=_probe_diffserv_authentication())
    row("respect privacy",
        cookies=_probe_cookie_privacy(),
        dpi=False,  # classification *is* content inspection
        oob=True, diffserv=True)
    row("revocable",
        cookies=_probe_cookie_revocation(),
        dpi=False,  # a user cannot make an ISP un-recognize her traffic
        oob=_probe_oob_revocation(),
        diffserv=False)  # the opportunistic console cannot be revoked
    # --- Deployable ----------------------------------------------------
    row("independent from headerspace, payload, path",
        cookies=_probe_cookie_nat_independence(),
        dpi=False,  # payload/SNI dependent by construction
        oob=_probe_oob_nat_dependence(),
        diffserv=_probe_diffserv_path_dependence())
    row("high accuracy",
        cookies=True, dpi=False, oob=True, diffserv=True)  # Fig. 6 outcome
    row("multiple transport mechanisms",
        cookies=_probe_cookie_transports(), dpi=False, oob=False, diffserv=False)
    # DPI and DiffServ are data-plane only; cookies add ~64 B to a flow's
    # first packet; OOB pays a controller round trip per flow.
    row("low overhead", cookies=True, dpi=True, oob=False, diffserv=True)
    row("network delivery guarantees",
        cookies=_probe_cookie_delivery_guarantee(),
        dpi=False, oob=True, diffserv=False)
    return rows


def format_table1(rows: dict[str, dict[str, bool]] | None = None) -> str:
    """Render the matrix like the paper's Table 1."""
    rows = rows if rows is not None else evaluate_table1()
    width = max(len(name) for name in rows) + 2
    header = "".join(m.rjust(10) for m in MECHANISMS)
    lines = [" " * width + header]
    for name, cells in rows.items():
        marks = "".join(
            ("yes" if cells[m] else "no").rjust(10) for m in MECHANISMS
        )
        lines.append(name.ljust(width) + marks)
    return "\n".join(lines)
