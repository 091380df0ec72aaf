"""One control-plane shard: a descriptor store + its delta log.

A shard owns every descriptor whose cookie id rendezvous-hashes to it
(:func:`~repro.core.distributed.rendezvous_shard` — the same placement
the data-plane pools use, so a control-plane shard and its data-plane
counterpart agree on ownership for free).  The dispatcher mints cookie
ids and routes; the shard authorizes, stores, and logs.

Every successful mutation appends a :class:`~.deltalog.DeltaRecord`, so
``shard.snapshot()`` + ``shard.log.since(offset)`` is always a complete
replication feed.

Shards are plain objects in the dispatcher's process (PROTOCOL.md
§14.4 gives the measurement behind that).
"""

from __future__ import annotations

import secrets
from typing import Any

from ..descriptor import COOKIE_ID_BITS, CookieDescriptor
from ..errors import AcquisitionDenied
from ..policy import AccessPolicy, AcquisitionRequest, OpenAccessPolicy
from ..server import ServiceOffering
from ..store import DescriptorStore
from .deltalog import DeltaLog, StoreSnapshot

__all__ = ["ControlPlaneShard"]


class ControlPlaneShard:
    """Store + delta log + policy for one rendezvous shard."""

    def __init__(
        self,
        index: int,
        policy: AccessPolicy | None = None,
        store: Any | None = None,
    ) -> None:
        self.index = index
        self.policy = policy if policy is not None else OpenAccessPolicy()
        self.store = store if store is not None else DescriptorStore()
        self.log = DeltaLog()
        self.offerings: dict[str, ServiceOffering] = {}
        # Flat ints on the op path; the service folds them into telemetry.
        self.acquired = 0
        self.denied = 0
        self.revoked = 0
        self.removed = 0

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def offer(self, offering: ServiceOffering) -> None:
        self.offerings[offering.name] = offering

    def withdraw_offering(self, name: str) -> None:
        self.offerings.pop(name, None)

    # ------------------------------------------------------------------
    # Mutations (each appends to the delta log)
    # ------------------------------------------------------------------
    def acquire(
        self,
        user: str,
        service: str,
        now: float,
        cookie_id: int | None = None,
        credentials: dict[str, Any] | None = None,
        preferences: dict[str, Any] | None = None,
    ) -> CookieDescriptor:
        """Authorize and issue a descriptor; raises AcquisitionDenied.

        ``cookie_id`` is normally pre-minted by the dispatcher (that is
        what routed the call here); a bare shard mints its own.
        """
        offering = self.offerings.get(service)
        if offering is None:
            self.denied += 1
            raise AcquisitionDenied(f"service {service!r} is not offered")
        request = AcquisitionRequest(
            user=user,
            service=service,
            credentials=dict(credentials or {}),
            preferences=dict(preferences or {}),
            time=now,
        )
        try:
            self.policy.authorize(request)
        except AcquisitionDenied:
            self.denied += 1
            raise
        descriptor = CookieDescriptor(
            cookie_id=(
                cookie_id
                if cookie_id is not None
                else secrets.randbits(COOKIE_ID_BITS)
            ),
            key=secrets.token_bytes(32),
            service_data=(
                offering.service_data
                if offering.service_data is not None
                else offering.name
            ),
            attributes=offering.build_attributes(now),
        )
        self.store.add(descriptor)
        self.log.append("add", descriptor.cookie_id, now, descriptor)
        self.policy.on_granted(request)
        self.acquired += 1
        return descriptor

    def acquire_batch(
        self, requests: list[tuple], now: float
    ) -> tuple[list[CookieDescriptor | None], list[str | None]]:
        """Acquire for ``(user, service, cookie_id[, credentials,
        preferences])`` tuples; parallel lists of descriptors (None when
        denied) and denial reasons (None when granted).  The descriptors
        are the store's own shells: a caller that hands one out clones
        or renders it first."""
        descriptors: list[CookieDescriptor | None] = []
        errors: list[str | None] = []
        for entry in requests:
            try:
                descriptor = self.acquire(
                    entry[0],
                    entry[1],
                    now,
                    cookie_id=entry[2],
                    credentials=entry[3] if len(entry) > 3 else None,
                    preferences=entry[4] if len(entry) > 4 else None,
                )
            except AcquisitionDenied as exc:
                descriptors.append(None)
                errors.append(str(exc))
            else:
                descriptors.append(descriptor)
                errors.append(None)
        return descriptors, errors

    def revoke(self, cookie_id: int, now: float) -> bool:
        """False for an unknown id.  Revoking what is already revoked is
        an idempotent success: nothing is logged or counted again, so a
        client repeating itself cannot grow the log."""
        descriptor = self.store.get(cookie_id)
        if descriptor is None:
            return False
        if descriptor.revoked:
            return True
        self.store.revoke(cookie_id)
        self.log.append("revoke", cookie_id, now)
        self.revoked += 1
        return True

    def remove(self, cookie_id: int, now: float) -> bool:
        if self.store.remove(cookie_id) is None:
            return False
        self.log.append("remove", cookie_id, now)
        self.removed += 1
        return True

    def purge_expired(self, now: float) -> list[int]:
        """Drop expired descriptors, logging a ``remove`` for each so
        replicas converge; returns the dropped ids."""
        stale = [
            d.cookie_id for d in self.store if d.attributes.is_expired(now)
        ]
        for cookie_id in stale:
            self.store.remove(cookie_id)
            self.log.append("remove", cookie_id, now)
            self.removed += 1
        return stale

    def lookup(self, cookie_id: int) -> CookieDescriptor | None:
        return self.store.get(cookie_id)

    # ------------------------------------------------------------------
    # Replication feed
    # ------------------------------------------------------------------
    def snapshot(self) -> StoreSnapshot:
        return StoreSnapshot.take(self.store, self.log.next_offset)

    def stats(self) -> dict[str, int]:
        return {
            "shard": self.index,
            "acquired": self.acquired,
            "denied": self.denied,
            "revoked": self.revoked,
            "removed": self.removed,
            "descriptors": len(self.store),
            "log_len": len(self.log),
            "log_base": self.log.base_offset,
            "log_next": self.log.next_offset,
        }
