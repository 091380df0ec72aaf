"""The well-known cookie server (§4.2, component 2).

The server advertises the special services the network offers, issues
cookie descriptors under a pluggable access policy, registers each issued
descriptor with the network's enforcement stores so switches can verify
cookies, and records everything in the audit log.

The API surface is a single :meth:`CookieServer.handle_request` taking and
returning JSON-shaped dicts — the paper's "downloaded over an (optionally
authenticated) out-of-band mechanism (e.g., a JSON API)".  Transports wrap
it: in-process calls for simulations, and
:class:`repro.core.netserver.AsyncCookieServer` for a real TCP service.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .attributes import CookieAttributes
from ..audit.log import AuditEvent, AuditLog
from .descriptor import CookieDescriptor
from .errors import AcquisitionDenied
from .policy import AccessPolicy, AcquisitionRequest, OpenAccessPolicy

__all__ = ["ServiceOffering", "CookieServer"]


@dataclass
class ServiceOffering:
    """One advertised network service.

    ``attribute_factory`` builds the attribute block for each grant (so,
    e.g., expirations are relative to grant time); ``describe`` is the
    human-readable advertisement.
    """

    name: str
    description: str = ""
    lifetime: float | None = 3600.0  # descriptor validity; Boost's default 1 h
    service_data: Any = None
    attribute_factory: Callable[[float], CookieAttributes] | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    def build_attributes(self, now: float) -> CookieAttributes:
        if self.attribute_factory is not None:
            return self.attribute_factory(now)
        expires = None if self.lifetime is None else now + self.lifetime
        return CookieAttributes(expires_at=expires)

    def advertisement(self) -> dict[str, Any]:
        """The JSON the server advertises for this offering."""
        return {
            "name": self.name,
            "description": self.description,
            "lifetime": self.lifetime,
            **self.extra,
        }


class CookieServer:
    """Issues descriptors for advertised services under an access policy."""

    def __init__(
        self,
        clock: Callable[[], float],
        policy: AccessPolicy | None = None,
        audit_log: AuditLog | None = None,
    ) -> None:
        self.clock = clock
        self.policy = policy if policy is not None else OpenAccessPolicy()
        # `is not None`: an empty AuditLog is falsy through __len__.
        self.audit_log = audit_log if audit_log is not None else AuditLog()
        self.offerings: dict[str, ServiceOffering] = {}
        self.issued: dict[int, CookieDescriptor] = {}
        self._enforcement_stores: list[Any] = []

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def offer(self, offering: ServiceOffering) -> ServiceOffering:
        """Advertise a service."""
        self.offerings[offering.name] = offering
        return offering

    def withdraw_offering(self, name: str) -> None:
        """Stop advertising a service (already-issued descriptors remain
        valid until expiry or revocation)."""
        self.offerings.pop(name, None)

    def attach_enforcement_store(self, store: Any) -> None:
        """Register a descriptor store used by data-path verifiers; every
        issued descriptor is mirrored into it so switches can match.
        A :class:`~repro.core.parallel.ProcessShardExecutor` is attached
        the same way (it forwards ``add`` / ``revoke`` to its workers)."""
        self._enforcement_stores.append(store)

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def list_services(self) -> list[dict[str, Any]]:
        """The advertisement published on the well-known server."""
        return [o.advertisement() for o in self.offerings.values()]

    def acquire(
        self,
        user: str,
        service: str,
        credentials: dict[str, Any] | None = None,
        preferences: dict[str, Any] | None = None,
    ) -> CookieDescriptor:
        """Issue a descriptor for ``service`` to ``user``.

        Raises :class:`AcquisitionDenied` when the service is unknown or
        the policy refuses.  On success the descriptor is mirrored to all
        enforcement stores and the grant is audited.
        """
        now = self.clock()
        request = AcquisitionRequest(
            user=user,
            service=service,
            credentials=dict(credentials or {}),
            preferences=dict(preferences or {}),
            time=now,
        )
        self.audit_log.record(now, AuditEvent.REQUESTED, user, service)
        offering = self.offerings.get(service)
        if offering is None:
            self.audit_log.record(
                now, AuditEvent.DENIED, user, service, reason="unknown service"
            )
            raise AcquisitionDenied(f"service {service!r} is not offered")
        try:
            self.policy.authorize(request)
        except AcquisitionDenied as exc:
            self.audit_log.record(
                now, AuditEvent.DENIED, user, service, reason=str(exc)
            )
            raise
        descriptor = CookieDescriptor.create(
            service_data=offering.service_data
            if offering.service_data is not None
            else offering.name,
            attributes=offering.build_attributes(now),
        )
        self.issued[descriptor.cookie_id] = descriptor
        for store in self._enforcement_stores:
            store.add(descriptor)
        self.policy.on_granted(request)
        self.audit_log.record(
            now,
            AuditEvent.GRANTED,
            user,
            service,
            cookie_id=descriptor.cookie_id,
            expires_at=descriptor.attributes.expires_at,
        )
        return descriptor

    def revoke(self, cookie_id: int, by: str = "network") -> bool:
        """Revoke an issued descriptor everywhere; returns success.

        Either side may call this: users "ask the network to invalidate a
        descriptor (in case they cannot control the application)" and the
        network "can similarly stop matching against a cookie".
        """
        descriptor = self.issued.get(cookie_id)
        if descriptor is None:
            return False
        descriptor.revoke()
        for store in self._enforcement_stores:
            store.revoke(cookie_id)
        self.audit_log.record(
            self.clock(),
            AuditEvent.REVOKED,
            by,
            str(descriptor.service_data),
            cookie_id=cookie_id,
        )
        return True

    def renew(
        self,
        user: str,
        cookie_id: int,
        credentials: dict[str, Any] | None = None,
    ) -> CookieDescriptor:
        """Replace an expiring descriptor with a fresh one for the same
        service ("a cookie descriptor typically lasts hours or days, and is
        renewed by the user as needed")."""
        old = self.issued.get(cookie_id)
        if old is None:
            raise AcquisitionDenied(f"descriptor {cookie_id:#x} unknown")
        service = str(old.service_data)
        new = self.acquire(user, service, credentials=credentials)
        self.audit_log.record(
            self.clock(),
            AuditEvent.RENEWED,
            user,
            service,
            cookie_id=new.cookie_id,
            replaces=cookie_id,
        )
        return new

    # ------------------------------------------------------------------
    # JSON API
    # ------------------------------------------------------------------
    def handle_request(self, request: dict[str, Any]) -> dict[str, Any]:
        """Dispatch one JSON API call.

        Operations: ``list_services``, ``acquire``, ``revoke``, ``renew``.
        Responses carry ``ok`` plus either the result or an ``error``.
        """
        op = request.get("op")
        try:
            if op == "list_services":
                return {"ok": True, "services": self.list_services()}
            if op == "acquire":
                descriptor = self.acquire(
                    user=str(request.get("user", "anonymous")),
                    service=str(request.get("service", "")),
                    credentials=request.get("credentials"),
                    preferences=request.get("preferences"),
                )
                return {"ok": True, "descriptor": descriptor.to_json()}
            if op == "revoke":
                revoked = self.revoke(
                    int(request["cookie_id"]),
                    by=str(request.get("user", "network")),
                )
                return {"ok": revoked, "error": None if revoked else "unknown id"}
            if op == "renew":
                descriptor = self.renew(
                    user=str(request.get("user", "anonymous")),
                    cookie_id=int(request["cookie_id"]),
                    credentials=request.get("credentials"),
                )
                return {"ok": True, "descriptor": descriptor.to_json()}
            return {"ok": False, "error": f"unknown op {op!r}"}
        except AcquisitionDenied as exc:
            return {"ok": False, "error": str(exc)}
        except (KeyError, TypeError, ValueError) as exc:
            return {"ok": False, "error": f"bad request: {exc}"}
