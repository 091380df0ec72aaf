"""Malicious-operator personas for the neutrality auditor.

Each persona is a drop-in wrapper over the honest enforcement stack — the
same ZeroRatingMiddlebox / BoostDaemon / shaper topology, with one
deliberate policy deviation spliced in at the operator's vantage (the
verifier, the descriptor store, or an element before/after the box).
They extend the PR-4 chaos attacker's threat model from "outsider
replaying sniffed cookies" to "the network itself cheats", and exist to
be caught: :mod:`repro.experiments.audit` proves the auditor flags every
one of them while the :class:`HonestOperator` passes clean.

The hook surface (see :class:`OperatorPersona`) mirrors where a real
operator could cheat:

- ``wrap_matcher`` / ``wrap_store`` — the verification control plane
  (honor replays, ignore revocations);
- ``front_elements`` / ``rear_elements`` — on-path elements around the
  box (staple colluding cookies, throttle, cook the books);
- ``boost_stage`` — the bottleneck stage the fast lane is supposed to
  bypass (under-deliver the boosted rate).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Callable

from ..core.cookie import Cookie
from ..core.descriptor import CookieDescriptor
from ..core.errors import CookieError, ReplayDetected
from ..core.generator import CookieGenerator
from ..netsim.middlebox import Element, FunctionElement
from ..netsim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - hints only
    from .auditor import HarnessContext

__all__ = [
    "OperatorPersona",
    "HonestOperator",
    "NonCookieThrottler",
    "FreeByteInflater",
    "BoostUnderDeliverer",
    "ReplayHonorer",
    "DescriptorColluder",
    "RevocationIgnorer",
    "PERSONAS",
    "persona_catalog",
]


class OperatorPersona:
    """Base persona: every hook is the identity, i.e. the honest operator.

    ``targets`` names the audits this persona's cheat applies to
    (``"zerorate"``, ``"boost"``, ``"anylink"``); the campaign runs each
    persona only where its deviation is observable.
    """

    name = "honest"
    description = "enforces exactly the advertised policy"
    targets: tuple[str, ...] = ("zerorate", "boost", "anylink")

    def setup(self, ctx: "HarnessContext") -> None:
        """Called once, after the control plane exists and before any
        element is built; personas acquire descriptors or seed RNGs here."""

    def wrap_store(self, store: Any) -> Any:
        return store

    def wrap_matcher(self, matcher: Any) -> Any:
        return matcher

    def front_elements(self, ctx: "HarnessContext") -> list[Element]:
        """Elements spliced in *before* the element under audit."""
        return []

    def rear_elements(self, ctx: "HarnessContext") -> list[Element]:
        """Elements spliced in *after* it (before the capture tap)."""
        return []

    def boost_stage(self, ctx: "HarnessContext", stage: Element) -> Element:
        """The bottleneck stage behind the boost switch; the honest one
        (``stage``, as handed in) lets fast-lane packets bypass it."""
        return stage

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "targets": list(self.targets),
        }


class HonestOperator(OperatorPersona):
    """The null persona — must pass every audit with zero findings."""


class _DelayDropElement(Element):
    """Delays every non-zero-rated packet and drops every Nth one."""

    def __init__(self, ctx: "HarnessContext", delay_s: float, drop_every: int) -> None:
        super().__init__("persona-throttle")
        self.loop = ctx.loop
        self.delay_s = delay_s
        self.drop_every = drop_every
        self._flow_counts: dict[tuple, int] = {}
        self.dropped = 0

    def handle(self, packet: Packet) -> None:
        if packet.meta.get("zero_rated"):
            self.emit(packet)
            return
        key = (packet.src_ip, packet.src_port, packet.dst_ip, packet.dst_port)
        count = self._flow_counts.get(key, 0) + 1
        self._flow_counts[key] = count
        if count % self.drop_every == 0:
            self.dropped += 1
            return
        self.loop.schedule(self.delay_s, lambda p=packet: self.emit(p))


class NonCookieThrottler(OperatorPersona):
    """Degrades everything that did not pay: non-cookie traffic is
    delayed and partially dropped behind the middlebox.

    Caught twice over: the matched pair's FCT/delivery deltas become an
    *unadvertised* performance difference, and the dropped-but-billed
    bytes break conservation.
    """

    name = "non-cookie-throttler"
    description = "delays and drops traffic without a valid cookie"
    targets = ("zerorate",)

    def __init__(self, delay_s: float = 0.2, drop_every: int = 4) -> None:
        self.delay_s = delay_s
        self.drop_every = drop_every

    def rear_elements(self, ctx: "HarnessContext") -> list[Element]:
        return [_DelayDropElement(ctx, self.delay_s, self.drop_every)]


class FreeByteInflater(OperatorPersona):
    """Over-counts free bytes: every zero-rated packet is billed twice to
    the sponsored counter (the operator inflates what it invoices the
    content provider for).  Caught by conservation: the subscriber's bill
    no longer equals the bytes that crossed the wire.
    """

    name = "free-byte-inflater"
    description = "bills sponsored traffic at twice its wire size"
    targets = ("zerorate",)

    def rear_elements(self, ctx: "HarnessContext") -> list[Element]:
        def inflate(packet: Packet) -> Packet:
            if packet.meta.get("zero_rated") and packet.src_ip is not None:
                counters = ctx.element.counters.get(packet.src_ip)
                if counters is not None:
                    counters.free_bytes += packet.wire_length
            return packet

        return [FunctionElement(inflate, "persona-inflater")]


class BoostUnderDeliverer(OperatorPersona):
    """Sells the fast lane but shapes it like everything else: the
    bottleneck stage loses its fast-lane bypass, so boosted packets queue
    behind the same token bucket.  The paired delta alone cannot convict
    (both lanes degrade together); the absolute delivery invariant —
    boosted flows complete at send pacing — does.
    """

    name = "boost-under-deliverer"
    description = "shapes fast-lane traffic at the bottleneck rate"
    targets = ("boost",)

    def boost_stage(self, ctx: "HarnessContext", stage: Element) -> Element:
        # The honest stage minus its bypass: every packet is shaped.
        stage.predicate = lambda _packet: True
        return stage


class _ReplayHonoringMatcher:
    """Accepts any replayed cookie whose descriptor it knows — the
    operator monetizing stolen cookies instead of enforcing freshness."""

    def __init__(self, inner: Any) -> None:
        self.inner = inner

    def match(self, cookie: Cookie, now: float) -> CookieDescriptor | None:
        try:
            return self.inner.verify(cookie, now)
        except ReplayDetected:
            return self.inner.store.get(cookie.cookie_id)
        except CookieError:
            return None


class ReplayHonorer(OperatorPersona):
    """Honors stolen/replayed cookies: a spent uuid verifies again.
    Caught by the replay invariant — the auditor's replayed probes (the
    plain replay and the 2×NCT future-skew variant) ride free.
    """

    name = "replay-honorer"
    description = "accepts already-spent cookies as fresh"
    targets = ("zerorate",)

    def wrap_matcher(self, matcher: Any) -> Any:
        return _ReplayHonoringMatcher(matcher)


class DescriptorColluder(OperatorPersona):
    """Descriptor-sharing collusion: the operator holds one legitimately
    issued descriptor and staples fresh cookies from it onto every
    cookie-less flow, zero-rating subscribers who never acquired the
    service.  Every cookie is individually valid — only the matched-pair
    construction exposes it: the auditor's bare probes (including the
    second subscriber's) come back free, breaking exclusivity.
    """

    name = "descriptor-colluder"
    description = "staples cookies from one shared descriptor onto bare flows"
    targets = ("zerorate",)

    def setup(self, ctx: "HarnessContext") -> None:
        rng = random.Random(ctx.config.seed ^ 0xC0)
        descriptor = ctx.server.acquire("colluding-operator", ctx.service)
        self._generator = CookieGenerator(
            descriptor, clock=ctx.clock, rng=rng.randbytes
        )
        self._seen_flows: set[tuple] = set()

    def front_elements(self, ctx: "HarnessContext") -> list[Element]:
        def staple(packet: Packet) -> Packet:
            key = (packet.src_ip, packet.src_port)
            if key in self._seen_flows:
                return packet
            self._seen_flows.add(key)
            if not ctx.transports.extract(packet):
                ctx.transports.attach(packet, self._generator.generate())
            return packet

        return [FunctionElement(staple, "persona-colluder")]


class _StaleReplicaStore:
    """A descriptor-store replica that never applies revocations.

    ``get`` serves a cached pre-revocation copy of each descriptor (same
    id, same signing key), and ``revoke`` acknowledges without acting —
    the operator keeps matching cookies the control plane already
    invalidated.
    """

    def __init__(self, inner: Any) -> None:
        self.inner = inner
        self._replica: dict[int, CookieDescriptor] = {}

    def get(self, cookie_id: int) -> CookieDescriptor | None:
        live = self.inner.get(cookie_id)
        if live is None:
            return None
        cached = self._replica.get(cookie_id)
        if cached is None:
            cached = self._replica[cookie_id] = live.clone()
            cached.revoked = False
        return cached

    def add(self, descriptor: CookieDescriptor) -> CookieDescriptor:
        return self.inner.add(descriptor)

    def revoke(self, cookie_id: int) -> bool:
        return cookie_id in self._replica or self.inner.get(cookie_id) is not None

    def remove(self, cookie_id: int) -> CookieDescriptor | None:
        self._replica.pop(cookie_id, None)
        return self.inner.get(cookie_id)


class RevocationIgnorer(OperatorPersona):
    """Silently ignores revocation: the verifier runs against a stale
    replica where nothing is ever revoked.  Caught by the revocation
    invariant — the auditor revokes a descriptor through the public
    control plane, then watches its cookies still ride free.
    """

    name = "revocation-ignorer"
    description = "verifies against a replica that never sees revocations"
    targets = ("zerorate",)

    def wrap_store(self, store: Any) -> Any:
        return _StaleReplicaStore(store)


#: The malicious-persona registry (the honest operator is not in it; it
#: is the baseline every audit also runs).  Values are factories so each
#: audit run gets a fresh, stateless persona instance.
PERSONAS: dict[str, Callable[[], OperatorPersona]] = {
    persona_cls.name: persona_cls
    for persona_cls in (
        NonCookieThrottler,
        FreeByteInflater,
        BoostUnderDeliverer,
        ReplayHonorer,
        DescriptorColluder,
        RevocationIgnorer,
    )
}


def persona_catalog() -> list[dict[str, Any]]:
    """JSON-shaped catalog of all malicious personas (for docs/CI)."""
    return [factory().to_json() for factory in PERSONAS.values()]
