"""Descriptor delegation and acknowledgment cookies.

Users "can choose to share their cookie descriptors with their desired
content providers who in turn can generate cookies on their behalf and
apply them to the downlink content".  Delegation is only legal when the
descriptor's ``shared`` attribute allows it; the delegate gets the real key
(it must sign valid cookies) but the grant is recorded so audits see the
chain.

Acknowledgment cookies (§4.3) reuse the same machinery: the responder
either *plays back* the original cookie or *regenerates* a fresh one from a
delegated descriptor and attaches it to the reverse traffic.
"""

from __future__ import annotations

from typing import Callable

from ..netsim.packet import Packet
from ..audit.log import AuditEvent, AuditLog
from .cookie import Cookie
from .descriptor import CookieDescriptor
from .errors import DelegationError
from .generator import CookieGenerator
from .transport.registry import TransportRegistry, default_registry

__all__ = ["delegate_descriptor", "DelegatedParty", "make_ack_cookie"]


def delegate_descriptor(
    descriptor: CookieDescriptor,
    delegate: str,
    *,
    audit_log: AuditLog | None = None,
    now: float = 0.0,
    by: str = "user",
) -> CookieDescriptor:
    """Share a descriptor with another party.

    Returns the same descriptor object — delegation hands over the ability
    to sign, it does not mint new key material, so revoking the original
    also cuts off every delegate (the user stays in control).  Raises
    :class:`DelegationError` when the descriptor's attributes forbid
    sharing.
    """
    if not descriptor.attributes.shared:
        raise DelegationError(
            f"descriptor {descriptor.cookie_id:#x} is not marked shareable"
        )
    if descriptor.revoked:
        raise DelegationError(
            f"descriptor {descriptor.cookie_id:#x} is revoked"
        )
    if audit_log is not None:
        audit_log.record(
            now,
            AuditEvent.DELEGATED,
            by,
            str(descriptor.service_data),
            cookie_id=descriptor.cookie_id,
            delegate=delegate,
        )
    return descriptor


class DelegatedParty:
    """A content provider (or third party) holding delegated descriptors.

    It can stamp cookies onto downlink packets on the user's behalf —
    "apply them to the downlink content" — which is how reverse-path
    service works without the network modifying traffic.
    """

    def __init__(
        self,
        name: str,
        clock: Callable[[], float],
        registry: TransportRegistry | None = None,
    ) -> None:
        self.name = name
        self.clock = clock
        self.registry = registry or default_registry()
        self._generators: dict[int, CookieGenerator] = {}
        self.cookies_applied = 0

    def accept_delegation(self, descriptor: CookieDescriptor) -> None:
        """Store a delegated descriptor for later cookie generation."""
        if not descriptor.attributes.shared:
            raise DelegationError(
                f"{self.name} offered a non-shareable descriptor"
            )
        self._generators[descriptor.cookie_id] = CookieGenerator(
            descriptor, self.clock
        )

    def stamp(self, packet: Packet, cookie_id: int) -> str:
        """Generate a cookie from the delegated descriptor and attach it."""
        generator = self._generators.get(cookie_id)
        if generator is None:
            raise DelegationError(
                f"{self.name} holds no delegation for {cookie_id:#x}"
            )
        cookie = generator.generate()
        transport = self.registry.attach(
            packet, cookie, allowed=generator.descriptor.attributes.transports
        )
        self.cookies_applied += 1
        return transport


def make_ack_cookie(
    original: Cookie,
    descriptor: CookieDescriptor | None,
    clock: Callable[[], float],
) -> Cookie:
    """Build an acknowledgment cookie for reverse traffic.

    With a delegated ``descriptor`` a *fresh* cookie is generated (the
    verifier will accept it as new); without one the original is played
    back — useful to prove receipt to the client, though a verifier's
    replay cache will not grant service twice for it.
    """
    if descriptor is not None:
        return CookieGenerator(descriptor, clock).generate()
    return original
