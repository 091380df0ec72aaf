"""The user agent (§4.2, component 1).

The agent is the user's representative: it acquires and caches
descriptors, renews them as they expire, and inserts cookies into
outgoing packets using whatever transport fits.  GUIs (the
Boost browser extension) sit on top of this class; it holds no policy about
*which* traffic deserves a cookie — that is the preference layer's job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..netsim.packet import Packet
from .cookie import Cookie
from .descriptor import CookieDescriptor
from .errors import (
    AcquisitionDenied,
    ChannelUnavailable,
    CookieError,
    DescriptorRevoked,
    TransportError,
)
from .generator import CookieGenerator
from .resilience import TRANSIENT_ERRORS
from .transport.registry import TransportRegistry, default_registry

__all__ = ["UserAgent", "AgentStats"]

RequestChannel = Callable[[dict[str, Any]], dict[str, Any]]

#: Channel failures an agent may ride out on cached descriptors.  A policy
#: refusal (AcquisitionDenied) is deliberately absent: a reachable server
#: saying "no" must stick.
_OUTAGE_ERRORS = (ChannelUnavailable, *TRANSIENT_ERRORS)


@dataclass
class AgentStats:
    """Counters for one agent's cookie activity.

    ``by_transport`` counts successful insertions per carrier name, plus
    ``"<name>:failed"`` entries for carriers that were allowed but could
    not take the cookie — the diagnosis trail for a degraded transport.
    """

    descriptors_acquired: int = 0
    descriptors_renewed: int = 0
    cookies_inserted: int = 0
    insertions_failed: int = 0
    renewals_failed: int = 0
    grace_signings: int = 0
    by_transport: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict[str, int]:
        flat = dict(vars(self))
        del flat["by_transport"]
        for transport, count in sorted(self.by_transport.items()):
            flat[f"by_transport.{transport}"] = count
        return flat


class UserAgent:
    """Acquires descriptors over a request channel and tags packets.

    ``channel`` abstracts the out-of-band path to the cookie server: for
    simulations it is ``server.handle_request`` directly; for the live
    prototype it is an :class:`repro.core.netserver.CookieClient` call —
    and for anything that must survive a flaky path, a
    :class:`~repro.core.resilience.ResilientChannel` wrapping either.
    Descriptors are cached per service and renewed automatically when a
    generator reports expiry.

    ``renewal_grace`` is the outage allowance: when renewal fails because
    the server is *unreachable* (not because it refused), the agent keeps
    signing with the cached descriptor for up to that many seconds past
    its expiry instead of going dark.  Revoked descriptors never get
    grace.
    """

    def __init__(
        self,
        user: str,
        clock: Callable[[], float],
        channel: RequestChannel,
        registry: TransportRegistry | None = None,
        credentials: dict[str, Any] | None = None,
        renewal_grace: float = 0.0,
    ) -> None:
        self.user = user
        self.clock = clock
        self.channel = channel
        self.registry = registry or default_registry()
        self.credentials = dict(credentials or {})
        self.renewal_grace = max(renewal_grace, 0.0)
        self.stats = AgentStats()
        #: Invoked with the service name when a delivery-guaranteed
        #: response arrives without the network's acknowledgment cookie —
        #: the hook a UI uses to warn "you may be getting best effort".
        self.on_missing_ack: Callable[[str], None] | None = None
        self._generators: dict[str, CookieGenerator] = {}

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------

    def acquire(self, service: str, preferences: dict[str, Any] | None = None) -> CookieDescriptor:
        """Acquire (or re-acquire) a descriptor for ``service``."""
        response = self.channel(
            {
                "op": "acquire",
                "user": self.user,
                "service": service,
                "credentials": self.credentials,
                "preferences": preferences or {},
            }
        )
        if not response.get("ok"):
            raise AcquisitionDenied(response.get("error", "acquisition failed"))
        descriptor = CookieDescriptor.from_json(response["descriptor"])
        self._generators[service] = CookieGenerator(descriptor, self.clock)
        self.stats.descriptors_acquired += 1
        return descriptor

    def request_revocation(self, service: str) -> bool:
        """Ask the network to invalidate the descriptor (for traffic the
        user cannot control, e.g. the legacy console example)."""
        generator = self._generators.get(service)
        if generator is None:
            return False
        response = self.channel(
            {
                "op": "revoke",
                "user": self.user,
                "cookie_id": generator.descriptor.cookie_id,
            }
        )
        return bool(response.get("ok"))

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def generate_cookie(self, service: str) -> Cookie:
        """Mint a cookie, transparently renewing an expired descriptor.

        When renewal fails because the channel is down, a cached (merely
        expired, never revoked) descriptor keeps signing within
        :attr:`renewal_grace`; past the grace, the outage propagates as
        :class:`~repro.core.errors.ChannelUnavailable`.
        """
        generator = self._generators.get(service)
        if generator is None:
            self.acquire(service)
            generator = self._generators[service]
        try:
            return generator.generate()
        except DescriptorRevoked:
            # Revocation is not an outage: renew or fail, never grace.
            self.acquire(service)
            self.stats.descriptors_renewed += 1
            return self._generators[service].generate()
        except CookieError:
            # Descriptor expired under us: renew once.
            try:
                self.acquire(service)
            except _OUTAGE_ERRORS as exc:
                self.stats.renewals_failed += 1
                try:
                    cookie = generator.generate(grace=self.renewal_grace)
                except CookieError:
                    raise ChannelUnavailable(
                        f"descriptor for {service!r} expired beyond the "
                        f"{self.renewal_grace}s renewal grace and the "
                        f"cookie server is unreachable"
                    ) from exc
                self.stats.grace_signings += 1
                return cookie
            self.stats.descriptors_renewed += 1
            return self._generators[service].generate()

    def check_delivery_ack(self, packet: Packet, service: str) -> bool:
        """Did the network acknowledge acting on our cookies?

        For descriptors with the ``delivery_guarantee`` attribute, the
        network attaches an acknowledgment cookie (from the same
        descriptor) to reverse traffic.  Call this on a response packet;
        it returns True when a valid-looking ack from the service's
        descriptor is present.  On False the paper's prototype "shows an
        alert to the user asking whether she wants to continue
        nevertheless with best effort service" — surface that through
        :attr:`on_missing_ack` or the return value.
        """
        generator = self._generators.get(service)
        if generator is None:
            return False
        descriptor = generator.descriptor
        for cookie in self.registry.extract_all(packet):
            if cookie.cookie_id == descriptor.cookie_id and cookie.verify_signature(
                descriptor
            ):
                return True
        if self.on_missing_ack is not None:
            self.on_missing_ack(service)
        return False

    def insert_cookie(self, packet: Packet, service: str) -> str | None:
        """Attach a fresh cookie for ``service`` to the packet.

        Returns the transport used, or None if no carrier fits or the
        control plane is down with no descriptor to fall back on (the
        packet then travels uncookied and receives best-effort service —
        the paper's graceful-failure default; the data plane never raises
        for a control-plane outage).
        """
        try:
            cookie = self.generate_cookie(service)
        except _OUTAGE_ERRORS:
            self.stats.insertions_failed += 1
            self._note_transport_failure("channel")
            return None
        generator = self._generators[service]
        allowed = generator.descriptor.attributes.transports
        try:
            transport = self.registry.attach(packet, cookie, allowed=allowed)
        except TransportError:
            self.stats.insertions_failed += 1
            # No carrier fit: record every candidate that was allowed to
            # try, so a degraded transport shows up by name in stats.
            names = self.registry.names
            for name in names if allowed is None else allowed:
                if name in names:
                    self._note_transport_failure(name)
            return None
        self.stats.cookies_inserted += 1
        self.stats.by_transport[transport] = (
            self.stats.by_transport.get(transport, 0) + 1
        )
        return transport

    def _note_transport_failure(self, name: str) -> None:
        key = f"{name}:failed"
        self.stats.by_transport[key] = self.stats.by_transport.get(key, 0) + 1

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def register_telemetry(self, registry, prefix: str = "agent") -> None:
        """Export :class:`AgentStats` (including per-transport failure
        counters) as ``agent.*``; if the channel is a
        :class:`~repro.core.resilience.ResilientChannel`, its ``retry.*``
        and ``breaker.*`` metrics are registered alongside."""
        registry.register(self, prefix, counters=("stats",))
        register_channel = getattr(self.channel, "register_telemetry", None)
        if callable(register_channel):
            register_channel(registry)
