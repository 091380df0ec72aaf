"""Cookie-descriptor attributes (§4.3 of the paper).

Attributes are optional, service-specific qualifiers carried with a
descriptor.  The paper expects a handful to become common-place; those are
modelled as first-class fields here, with ``extra`` holding the unformatted
remainder the paper allows.

Fields
------
granularity:
    Whether a cookie binds the *flow* the tagged packet belongs to (the
    default — "a cookie characterizes the flow (5-tuple) that a packet
    belongs to") or only the single *packet*.  ``flow_fields`` optionally
    narrows which header fields compose the flow.
apply_reverse:
    Whether the service also covers the reverse direction of the flow.
shared:
    Whether the descriptor may be re-distributed by a cache (e.g. the home
    router acquires one descriptor from the ISP and shares it with devices).
ack_cookie:
    The remote server is expected to echo or regenerate a cookie with its
    response.
delivery_guarantee:
    The *network* must acknowledge acting on a cookie by attaching an
    acknowledgment cookie to reverse traffic.
transports:
    Carrier protocols over which cookies from this descriptor may travel.
expires_at:
    Absolute expiry (seconds, simulation clock or epoch).  ``None`` means no
    expiry.  Expiry both revokes a service and bounds descriptor leakage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any

__all__ = ["Granularity", "CookieAttributes"]


class Granularity(str, Enum):
    """What a single cookie binds to."""

    FLOW = "flow"
    PACKET = "packet"


_DEFAULT_FLOW_FIELDS = ("src_ip", "src_port", "dst_ip", "dst_port", "proto")
_DEFAULT_TRANSPORTS = ("http", "tls", "ipv6", "tcp", "udp")


@dataclass
class CookieAttributes:
    """Structured attribute block attached to a cookie descriptor."""

    granularity: Granularity = Granularity.FLOW
    flow_fields: tuple[str, ...] = _DEFAULT_FLOW_FIELDS
    apply_reverse: bool = True
    shared: bool = False
    ack_cookie: bool = False
    delivery_guarantee: bool = False
    transports: tuple[str, ...] = _DEFAULT_TRANSPORTS
    expires_at: float | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if isinstance(self.granularity, str) and not isinstance(
            self.granularity, Granularity
        ):
            self.granularity = Granularity(self.granularity)
        self.flow_fields = tuple(self.flow_fields)
        self.transports = tuple(self.transports)

    def is_expired(self, now: float) -> bool:
        """True when the descriptor has passed its expiration attribute."""
        return self.expires_at is not None and now > self.expires_at

    def allows_transport(self, transport_name: str) -> bool:
        """Whether cookies may ride over the named carrier."""
        return transport_name in self.transports

    @property
    def constraints(self) -> dict[str, Any]:
        """Context constraints from the unformatted attribute block.

        The paper's examples: "a cookie might only be valid when the user
        is connected to a specific WiFi network, or in a specific
        geographic area, or in a specific network domain".  Constraints
        live under ``extra['constraints']`` as key/value pairs matched
        against the verifying switch's context.
        """
        value = self.extra.get("constraints", {})
        return dict(value) if isinstance(value, dict) else {}

    def matches_context(self, context: dict[str, Any]) -> bool:
        """True when every constraint equals the context's value for it.

        A constraint on a key the context does not define fails closed —
        a geo-fenced cookie must not work on a switch that cannot attest
        its location.
        """
        return all(
            key in context and context[key] == expected
            for key, expected in self.constraints.items()
        )

    def clone(self) -> "CookieAttributes":
        """A private copy with its own ``extra`` dict; every other field
        is immutable and was normalized when the source was built, so
        nothing is re-validated."""
        # Field by field: going through ``__dict__`` would make CPython
        # build a real dict for both instances (slower, and more memory
        # for every descriptor a log or replica holds).
        copy = object.__new__(CookieAttributes)
        copy.granularity = self.granularity
        copy.flow_fields = self.flow_fields
        copy.apply_reverse = self.apply_reverse
        copy.shared = self.shared
        copy.ack_cookie = self.ack_cookie
        copy.delivery_guarantee = self.delivery_guarantee
        copy.transports = self.transports
        copy.expires_at = self.expires_at
        copy.extra = dict(self.extra)
        return copy

    def to_json(self) -> dict[str, Any]:
        """Serialize for the descriptor-acquisition JSON API."""
        return {
            "granularity": self.granularity.value,
            "flow_fields": list(self.flow_fields),
            "apply_reverse": self.apply_reverse,
            "shared": self.shared,
            "ack_cookie": self.ack_cookie,
            "delivery_guarantee": self.delivery_guarantee,
            "transports": list(self.transports),
            "expires_at": self.expires_at,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "CookieAttributes":
        """Inverse of :meth:`to_json`; unknown keys land in ``extra``."""
        extra = dict(data.get("extra", {}))
        for key, value in data.items():
            if key not in _KNOWN_KEYS:
                extra[key] = value
        return cls(
            granularity=Granularity(data.get("granularity", "flow")),
            flow_fields=tuple(data.get("flow_fields", _DEFAULT_FLOW_FIELDS)),
            apply_reverse=bool(data.get("apply_reverse", True)),
            shared=bool(data.get("shared", False)),
            ack_cookie=bool(data.get("ack_cookie", False)),
            delivery_guarantee=bool(data.get("delivery_guarantee", False)),
            transports=tuple(data.get("transports", _DEFAULT_TRANSPORTS)),
            expires_at=data.get("expires_at"),
            extra=extra,
        )


#: The keys ``to_json`` writes (one per field); anything else in a parsed
#: block lands in ``extra``.
_KNOWN_KEYS = frozenset(CookieAttributes.__dataclass_fields__)
