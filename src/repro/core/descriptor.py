"""Cookie descriptors (Listing 1 of the paper).

A descriptor is the control-plane object a user acquires from a cookie
server.  It carries a 64-bit lookup id, the shared HMAC key cookies are
signed with, opaque ``service_data`` naming the network service, and an
optional attribute block.  From one descriptor the client locally generates
many single-use cookies.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any

from .attributes import DEFAULT_ATTRIBUTES, CookieAttributes

__all__ = ["CookieDescriptor", "COOKIE_ID_BITS", "DEFAULT_KEY_BYTES",
           "GRANT_DRAW_BYTES"]

COOKIE_ID_BITS = 64
_COOKIE_ID_MAX = 2**COOKIE_ID_BITS - 1
DEFAULT_KEY_BYTES = 32
#: A grant's randomness, its slice of one ``os.urandom`` draw: the id's 8
#: bytes, read big-endian as ``secrets.randbits`` reads them, then the key.
GRANT_DRAW_BYTES = COOKIE_ID_BITS // 8 + DEFAULT_KEY_BYTES


def _check_id(cookie_id: int) -> None:
    if not 0 <= cookie_id <= _COOKIE_ID_MAX:
        raise ValueError(
            f"cookie_id must fit in {COOKIE_ID_BITS} bits, got {cookie_id}"
        )


@dataclass(slots=True)
class CookieDescriptor:
    """The shared state between a cookie issuer and its verifiers.

    ``cookie_id`` identifies the descriptor and acts as the verifier's
    lookup key; ``key`` signs cookies; ``service_data`` identifies the
    network service to apply (a plain name like ``"Boost"`` or any richer
    structure); ``attributes`` qualify when and how cookies may be used.

    Only ``revoked`` ever changes after the grant, and each holder
    (store, log record, replica, user) flips its own: :meth:`clone`.
    """

    cookie_id: int
    key: bytes
    service_data: Any = ""
    attributes: CookieAttributes = DEFAULT_ATTRIBUTES
    revoked: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.cookie_id <= _COOKIE_ID_MAX:
            _check_id(self.cookie_id)  # raises, with the message
        key = self.key
        if type(key) is not bytes:
            if not isinstance(key, (bytes, bytearray)):
                raise ValueError("descriptor key must be non-empty bytes")
            self.key = key = bytes(key)
        if not key:
            raise ValueError("descriptor key must be non-empty bytes")

    @classmethod
    def create(
        cls,
        service_data: Any = "",
        attributes: CookieAttributes | None = None,
        cookie_id: int | None = None,
        key: bytes | None = None,
    ) -> "CookieDescriptor":
        """Mint a fresh descriptor: id and key from one draw of
        :data:`GRANT_DRAW_BYTES`, unless the caller routed on a
        pre-minted ``cookie_id`` — then ``key`` is the rest of the draw
        that id was read from, or a fresh key if none is given.

        Built the way :meth:`clone` builds: what was just drawn is valid
        by construction, so only a caller's id is checked."""
        if cookie_id is None:
            draw = os.urandom(GRANT_DRAW_BYTES)
            cookie_id = int.from_bytes(draw[:-DEFAULT_KEY_BYTES], "big")
            key = draw[-DEFAULT_KEY_BYTES:]
        else:
            _check_id(cookie_id)
            if key is None:
                key = os.urandom(DEFAULT_KEY_BYTES)
        descriptor = object.__new__(cls)
        descriptor.cookie_id = cookie_id
        descriptor.key = key
        descriptor.service_data = service_data
        descriptor.attributes = attributes or DEFAULT_ATTRIBUTES
        descriptor.revoked = False
        return descriptor

    def revoke(self) -> None:
        """Revoke the descriptor.

        Either party can do this: a user asks the network to invalidate a
        descriptor she can no longer control, or the network stops matching
        to withdraw a service.  Verification of cookies from a revoked
        descriptor fails from this point on.
        """
        self.revoked = True

    def is_usable(self, now: float) -> bool:
        """Neither revoked nor past its expiration attribute."""
        return not self.revoked and not self.attributes.is_expired(now)

    def clone(self) -> "CookieDescriptor":
        """A shell for another holder: own ``revoked`` flag, the *same*
        attribute block (immutable, so safe to share), no
        re-validation."""
        copy = object.__new__(CookieDescriptor)
        copy.cookie_id = self.cookie_id
        copy.key = self.key
        copy.service_data = self.service_data
        copy.attributes = self.attributes
        copy.revoked = self.revoked
        return copy

    def to_json(self, include_key: bool = True) -> dict[str, Any]:
        """Serialize for the acquisition API.

        ``include_key=False`` yields the audit-safe form: regulators can see
        *who* received *which* descriptor without learning the signing key.
        """
        data: dict[str, Any] = {
            "cookie_id": self.cookie_id,
            "service_data": self.service_data,
            "attributes": self.attributes.to_json(),
            "revoked": self.revoked,
        }
        if include_key:
            data["key"] = self.key.hex()
        return data

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "CookieDescriptor":
        """Inverse of :meth:`to_json` (requires the key to be present)."""
        if "key" not in data:
            raise ValueError("descriptor JSON lacks the signing key")
        return cls(
            cookie_id=int(data["cookie_id"]),
            key=bytes.fromhex(data["key"]),
            service_data=data.get("service_data", ""),
            attributes=CookieAttributes.from_json(data.get("attributes", {})),
            revoked=bool(data.get("revoked", False)),
        )

    def __repr__(self) -> str:  # avoid leaking the key in logs
        return (
            f"CookieDescriptor(id={self.cookie_id:#018x}, "
            f"service={self.service_data!r}, revoked={self.revoked})"
        )
