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
    An attach-side attribute: the holder passes it as the registry's
    ``allowed`` list; no box on the packet path reads it.
expires_at:
    Absolute expiry (seconds, simulation clock or epoch).  ``None`` means no
    expiry.  Expiry both revokes a service and bounds descriptor leakage.

A block is written once, at the grant: it is a tuple, so assigning a
field raises, and ``extra`` is a read-only mapping (depth-one: a value
nested inside it is the caller's to leave alone).  Every holder of the
descriptor can therefore point at the *same* block (PROTOCOL.md §1.3).
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from types import MappingProxyType
from typing import Any, Mapping

__all__ = ["Granularity", "CookieAttributes", "DEFAULT_ATTRIBUTES"]


class Granularity(str, Enum):
    """What a single cookie binds to."""

    FLOW = "flow"
    PACKET = "packet"


_DEFAULT_FLOW_FIELDS = ("src_ip", "src_port", "dst_ip", "dst_port", "proto")
_DEFAULT_TRANSPORTS = ("http", "tls", "ipv6", "tcp", "udp")
#: The ``extra`` of every block built without one.
_NO_EXTRA: Mapping[str, Any] = MappingProxyType({})


class CookieAttributes(
    namedtuple(
        "_Block",  # in the order of __new__'s parameters and to_json's keys
        "granularity flow_fields apply_reverse shared ack_cookie"
        " delivery_guarantee transports expires_at extra",
    )
):
    """Immutable attribute block attached to a cookie descriptor."""

    __slots__ = ()

    # A tuple rather than a frozen dataclass: one block is built per
    # grant, and nine ``object.__setattr__`` calls cost four times what
    # one ``tuple.__new__`` does.
    def __new__(
        cls,
        granularity: Granularity | str = Granularity.FLOW,
        flow_fields: tuple[str, ...] = _DEFAULT_FLOW_FIELDS,
        apply_reverse: bool = True,
        shared: bool = False,
        ack_cookie: bool = False,
        delivery_guarantee: bool = False,
        transports: tuple[str, ...] = _DEFAULT_TRANSPORTS,
        expires_at: float | None = None,
        extra: Mapping[str, Any] | None = None,
    ) -> "CookieAttributes":
        if granularity.__class__ is not Granularity:  # the lookup is slow
            granularity = Granularity(granularity)
        # ``extra`` is a private copy behind a read-only view: the
        # caller's dict is no way to write to the block afterwards.
        extra = MappingProxyType(dict(extra)) if extra else _NO_EXTRA
        return tuple.__new__(
            cls,
            (granularity, tuple(flow_fields), apply_reverse, shared, ack_cookie,
             delivery_guarantee, tuple(transports), expires_at, extra),
        )

    @classmethod
    def expiring_at(cls, expires_at: float | None) -> "CookieAttributes":
        """``CookieAttributes(expires_at=expires_at)``, the block of a
        grant built without a factory: the default's fields, checked
        once, with only the expiry new."""
        return tuple.__new__(cls, _DEFAULT_HEAD + (expires_at, _NO_EXTRA))

    def __getnewargs__(self) -> tuple:
        # pickle and deepcopy rebuild a block through __new__; the
        # read-only view cannot be pickled, a copy of its dict can.
        return (*self[:-1], self.extra.copy())

    def is_expired(self, now: float) -> bool:
        """True when the descriptor has passed its expiration attribute."""
        expires_at = self.expires_at
        return expires_at is not None and now > expires_at

    @property
    def constraints(self) -> Mapping[str, Any]:
        """Context constraints from the unformatted attribute block.

        The paper's examples: "a cookie might only be valid when the user
        is connected to a specific WiFi network, or in a specific
        geographic area, or in a specific network domain".  Constraints
        live under ``extra['constraints']`` as key/value pairs matched
        against the verifying switch's context; what is handed out is a
        read-only view of them.
        """
        value = self.extra.get("constraints")
        return MappingProxyType(value) if isinstance(value, dict) else _NO_EXTRA

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

    def to_json(self) -> dict[str, Any]:
        """Serialize for the descriptor-acquisition JSON API."""
        return {
            "granularity": self.granularity._value_,  # .value is a slow property
            "flow_fields": list(self.flow_fields),
            "apply_reverse": self.apply_reverse,
            "shared": self.shared,
            "ack_cookie": self.ack_cookie,
            "delivery_guarantee": self.delivery_guarantee,
            "transports": list(self.transports),
            "expires_at": self.expires_at,
            "extra": self.extra.copy(),  # the view's dict's: a plain dict
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "CookieAttributes":
        """Inverse of :meth:`to_json`; unknown keys land in ``extra``."""
        extra = dict(data.get("extra", {}))
        for key, value in data.items():
            if key not in _KNOWN_KEYS:
                extra[key] = value
        return cls(
            granularity=data.get("granularity", "flow"),
            flow_fields=data.get("flow_fields", _DEFAULT_FLOW_FIELDS),
            apply_reverse=bool(data.get("apply_reverse", True)),
            shared=bool(data.get("shared", False)),
            ack_cookie=bool(data.get("ack_cookie", False)),
            delivery_guarantee=bool(data.get("delivery_guarantee", False)),
            transports=data.get("transports", _DEFAULT_TRANSPORTS),
            expires_at=data.get("expires_at"),
            extra=extra,
        )


#: The keys ``to_json`` writes (one per field); anything else in a parsed
#: block lands in ``extra``.
_KNOWN_KEYS = frozenset(CookieAttributes._fields)

#: The block of every descriptor granted without one.
DEFAULT_ATTRIBUTES = CookieAttributes()
#: Its fields before ``expires_at`` and ``extra``, the last two: what
#: :meth:`CookieAttributes.expiring_at` copies.
_DEFAULT_HEAD = DEFAULT_ATTRIBUTES[:-2]
