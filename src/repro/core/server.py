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

This is the one acquisition core.  A control-plane shard
(:class:`repro.core.cp.shard.ControlPlaneShard`) is this class with a
delta log attached as one more enforcement store, and
:func:`serve_json` is the one ladder both front doors answer
``list_services`` / ``acquire`` / ``revoke`` / ``renew`` with.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from .attributes import CookieAttributes
from ..audit.log import AuditEvent, AuditLog, NullAuditLog
from .descriptor import DEFAULT_KEY_BYTES, GRANT_DRAW_BYTES, CookieDescriptor
from .errors import AcquisitionDenied
from .policy import NO_ARGUMENTS, AccessPolicy, AcquisitionRequest, OpenAccessPolicy
from .store import DescriptorStore

__all__ = ["ServiceOffering", "CookieServer", "GrantReply", "serve_json"]


def _entry(user, service, credentials=None, preferences=None):
    """A batch entry's four fields; any other arity is a ``TypeError``."""
    return user, service, credentials, preferences


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
        lifetime = self.lifetime
        expires = None if lifetime is None else now + lifetime
        return CookieAttributes.expiring_at(expires)

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
        # A log that keeps nothing is not called at all.
        self._audited = not isinstance(self.audit_log, NullAuditLog)
        self.offerings: dict[str, ServiceOffering] = {}
        #: every live descriptor, holding the server's own shells
        self.issued = DescriptorStore()
        self._enforcement_stores: list[Any] = []
        # Successful mutations and refusals, as flat ints on the op path.
        self.acquired = 0
        self.denied = 0
        self.revoked = 0

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def offer(self, offering: ServiceOffering) -> ServiceOffering:
        """Advertise a service."""
        self.offerings[offering.name] = offering
        return offering

    def attach_enforcement_store(self, store: Any) -> None:
        """Register anything that speaks ``add`` / ``revoke``: every
        grant and revocation is mirrored into it.  A data-path descriptor
        store, a :class:`~repro.core.parallel.ProcessShardExecutor` (it
        pushes to its workers) and a
        :class:`~repro.core.cp.deltalog.DeltaLog` are all attached the
        same way."""
        self._enforcement_stores.append(store)

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def list_services(self) -> list[dict[str, Any]]:
        """The advertisement published on the well-known server."""
        return [o.advertisement() for o in self.offerings.values()]

    def lookup(self, cookie_id: int) -> CookieDescriptor | None:
        return self.issued.get(cookie_id)

    def acquire(
        self,
        user: str,
        service: str,
        credentials: dict[str, Any] | None = None,
        preferences: dict[str, Any] | None = None,
    ) -> CookieDescriptor:
        """Issue a descriptor for ``service`` to ``user``: a batch of one,
        raising what failed it (:class:`AcquisitionDenied`: unknown or refused)."""
        entry = (user, service, credentials, preferences)
        draw = os.urandom(GRANT_DRAW_BYTES)
        (granted,) = self.grant_batch([entry], self.clock(), draw, {})
        if isinstance(granted, Exception):
            raise granted
        return granted

    def grant_batch(
        self, requests: Sequence[Sequence[Any]], now: float, draw: bytes,
        blocks: dict[str, CookieAttributes],
    ) -> list[CookieDescriptor | Exception]:
        """The grant loop: ``(user, service[, credentials, preferences])``
        entries, each granted as on its own but all at ``now``, entry *i* from
        the *i*-th :data:`GRANT_DRAW_BYTES` of ``draw`` (id's 8 bytes big-endian,
        then key).  ``blocks``, new per batch, holds each factory-less offering's
        one block.  Returns per entry the descriptor, or what failed it."""
        authorize, on_granted = self.policy.authorize, self.policy.on_granted
        offerings, issue, stores = self.offerings, self.issued.add, self._enforcement_stores
        audit = self.audit_log.record if self._audited else None
        results: list[CookieDescriptor | Exception] = []
        end = 0
        for entry in requests:
            at, end = end, end + GRANT_DRAW_BYTES
            try:
                user, service, credentials, preferences = _entry(*entry)
                # The copies are the request's own, and copying is what turns
                # a non-object into a bad request; absent ones share NO_ARGUMENTS.
                # tuple.__new__: the namedtuple's own __new__ is Python code.
                request = tuple.__new__(AcquisitionRequest, (
                    user, service,
                    dict(credentials) if credentials else NO_ARGUMENTS,
                    dict(preferences) if preferences else NO_ARGUMENTS, now,
                ))
                if audit is not None:
                    audit(now, AuditEvent.REQUESTED, user, service)
                offering = offerings.get(service)
                if offering is None:
                    raise AcquisitionDenied(f"service {service!r} is not offered")
                authorize(request)
                block = blocks.get(service)
                if block is None:
                    block = offering.build_attributes(now)
                    if offering.attribute_factory is None:
                        blocks[service] = block
                data, key_at = offering.service_data, end - DEFAULT_KEY_BYTES
                # CookieDescriptor.create's build: a drawn id is valid.
                descriptor = object.__new__(CookieDescriptor)
                descriptor.cookie_id = int.from_bytes(draw[at:key_at], "big")
                descriptor.key = draw[key_at:end]
                descriptor.service_data = offering.name if data is None else data
                descriptor.attributes = block
                descriptor.revoked = False
                issue(descriptor)
                for store in stores:
                    store.add(descriptor)
                on_granted(request)
                self.acquired += 1
                if audit is not None:
                    audit(now, AuditEvent.GRANTED, user, service,
                          cookie_id=descriptor.cookie_id, expires_at=block.expires_at)
            except AcquisitionDenied as exc:
                self.denied += 1
                if audit is not None:
                    reason = "unknown service" if offering is None else str(exc)
                    audit(now, AuditEvent.DENIED, user, service, reason=reason)
                # No traceback: its frame holds ``results``, a cycle to collect.
                results.append(exc.with_traceback(None))
            except (TypeError, ValueError) as exc:
                results.append(exc.with_traceback(None))
            else:
                results.append(descriptor)
        return results

    def revoke(self, cookie_id: int, by: str = "network") -> bool:
        """Revoke an issued descriptor everywhere; False for an unknown id.

        Either side may call this: users "ask the network to invalidate a
        descriptor (in case they cannot control the application)" and the
        network "can similarly stop matching against a cookie".  Revoking
        what is already revoked is an idempotent success: nothing is
        pushed, audited or counted again, so a client repeating itself
        grows no log.
        """
        descriptor = self.issued.get(cookie_id)
        if descriptor is None:
            return False
        if descriptor.revoked:
            return True
        descriptor.revoke()
        for store in self._enforcement_stores:
            store.revoke(cookie_id)
        self.revoked += 1
        if self._audited:
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
        if self._audited:
            self.audit_log.record(
                self.clock(),
                AuditEvent.RENEWED,
                user,
                service,
                cookie_id=new.cookie_id,
                replaces=cookie_id,
            )
        return new

    def handle_request(self, request: dict[str, Any]) -> dict[str, Any]:
        """Dispatch one JSON API call: :func:`serve_json`."""
        return serve_json(self, request)


class GrantReply(dict):
    """``{"ok": true, "descriptor": descriptor.to_json()}``: a plain
    dict to an in-process caller, which also keeps the descriptor it was
    rendered from, so a transport can write the reply's JSON line from
    the descriptor instead of walking the dict again
    (:mod:`repro.core.netserver`, rendered before it serves the next
    line).  A handler that edits a grant reply returns a copy."""

    __slots__ = ("descriptor",)

    def __init__(self, descriptor: CookieDescriptor) -> None:
        self["ok"] = True
        self["descriptor"] = descriptor.to_json()
        self.descriptor = descriptor


def serve_json(server: Any, request: dict[str, Any]) -> dict[str, Any]:
    """The JSON API ladder: ``list_services``, ``acquire``, ``revoke``,
    ``renew``.  Responses carry ``ok`` plus either the result or an
    ``error``.  ``server`` is whatever owns those four operations — a
    :class:`CookieServer`, or the sharded control plane routing to many.
    """
    op = request.get("op")
    try:
        if op == "list_services":
            return {"ok": True, "services": server.list_services()}
        if op == "acquire":
            descriptor = server.acquire(
                user=str(request.get("user", "anonymous")),
                service=str(request.get("service", "")),
                credentials=request.get("credentials"),
                preferences=request.get("preferences"),
            )
            return GrantReply(descriptor)
        if op == "revoke":
            revoked = server.revoke(
                int(request["cookie_id"]),
                by=str(request.get("user", "network")),
            )
            return {"ok": revoked, "error": None if revoked else "unknown id"}
        if op == "renew":
            descriptor = server.renew(
                user=str(request.get("user", "anonymous")),
                cookie_id=int(request["cookie_id"]),
                credentials=request.get("credentials"),
            )
            return GrantReply(descriptor)
        return {"ok": False, "error": f"unknown op {op!r}"}
    except AcquisitionDenied as exc:
        return {"ok": False, "error": str(exc)}
    except (KeyError, TypeError, ValueError) as exc:
        return {"ok": False, "error": f"bad request: {exc}"}
