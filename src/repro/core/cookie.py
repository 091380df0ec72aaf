"""Cookies and their wire encodings (Listing 2 of the paper).

A cookie is ``(cookie_id, uuid, timestamp, signature)`` where the signature
is an HMAC over the first three fields under the descriptor key.  Cookies
are unique (fresh uuid), bounded in time (timestamp must fall within the
network coherency time), and verifiable without revealing anything about
the traffic they ride on.

A :class:`Cookie` *is* its 48 wire bytes, however it was made — built
from fields, minted by a generator or parsed off a carrier — and the
fields are views of those bytes.  Two encodings are provided:

- :meth:`Cookie.to_bytes` — the 48 bytes, as binary carriers hold them
  (IPv6 extension header, TCP option, UDP framing);
- :meth:`Cookie.to_text` — base64 of the binary form, used by text carriers
  (HTTP header, TLS extension), matching the paper's "we send a
  base64-encoded text cookie".
"""

from __future__ import annotations

import base64
import hashlib
import hmac
import struct
from dataclasses import dataclass, fields

from .descriptor import CookieDescriptor
from .errors import MalformedCookie

__all__ = [
    "Cookie",
    "sign_cookie_fields",
    "SignerCache",
    "keyed_mac",
    "sign_message",
    "COOKIE_WIRE_BYTES",
    "REPLAY_KEY_BYTES",
    "SIGNATURE_BYTES",
    "SIGNED_BYTES",
    "TIMESTAMP_SCALE",
    "UUID_BYTES",
    "WIRE_VERIFY_FIELDS",
    "verify_operands",
]

UUID_BYTES = 16
SIGNATURE_BYTES = 16
# id (8) + uuid (16) + timestamp (8) + signature (16)
COOKIE_WIRE_BYTES = 8 + UUID_BYTES + 8 + SIGNATURE_BYTES

TIMESTAMP_SCALE = 1_000_000  # store seconds as integer microseconds

_WIRE = struct.Struct(f"!Q{UUID_BYTES}sQ{SIGNATURE_BYTES}s")
_SIGNED = struct.Struct(f"!Q{UUID_BYTES}sQ")

#: The signature covers the first 32 wire bytes (id | uuid | timestamp);
#: the first 24 of those (id | uuid) are the replay-cache key.
SIGNED_BYTES = 8 + UUID_BYTES + 8
REPLAY_KEY_BYTES = 8 + UUID_BYTES
#: What a verifier unpacks of a wire cookie — (id, µs timestamp,
#: signature); the uuid it only ever uses in place, inside those slices.
WIRE_VERIFY_FIELDS = struct.Struct(f"!Q{UUID_BYTES}xQ{SIGNATURE_BYTES}s")

# RFC 2104: HMAC(K, m) = H((K' ^ opad) | H((K' ^ ipad) | m)), K' the key
# zero-padded to H's 64-byte block (hashed first when longer).
_BLOCK_BYTES = 64
_IPAD = bytes(byte ^ 0x36 for byte in range(256))
_OPAD = bytes(byte ^ 0x5C for byte in range(256))
_sha256 = hashlib.sha256


def _padded_keys(key: bytes) -> tuple[bytes, bytes]:
    """``(K' ^ ipad, K' ^ opad)``: the two 64-byte blocks HMAC absorbs
    before the message and before the inner digest."""
    if len(key) > _BLOCK_BYTES:
        key = _sha256(key).digest()
    key = key.ljust(_BLOCK_BYTES, b"\0")
    return key.translate(_IPAD), key.translate(_OPAD)


def keyed_mac(inner, outer, message: bytes) -> bytes:
    """Truncated HMAC-SHA256 of ``message`` from the two pre-absorbed
    states :meth:`SignerCache.states` keeps per key: two
    ``copy()/update()/digest()`` instead of re-hashing the key blocks."""
    inner = inner.copy()
    inner.update(message)
    outer = outer.copy()
    outer.update(inner.digest())
    return outer.digest()[:SIGNATURE_BYTES]


def sign_message(key: bytes, message: bytes) -> bytes:
    """:func:`keyed_mac` without the cache: each key block is hashed
    together with what follows it, in one call per SHA-256."""
    inner_key, outer_key = _padded_keys(key)
    return _sha256(outer_key + _sha256(inner_key + message).digest()).digest()[
        :SIGNATURE_BYTES
    ]


def _signed_fields(cookie_id: int, uuid: bytes, timestamp: float) -> bytes:
    """The 32 bytes a signature covers — id | uuid | timestamp in whole
    microseconds — or :class:`MalformedCookie` for fields that have no
    such encoding (an id or a µs value outside u64, a NaN, a short uuid).
    """
    if len(uuid) != UUID_BYTES:
        raise MalformedCookie(
            f"uuid must be {UUID_BYTES} bytes, got {len(uuid)}"
        )
    try:
        return _SIGNED.pack(cookie_id, uuid, round(timestamp * TIMESTAMP_SCALE))
    except (struct.error, ValueError, OverflowError) as exc:
        raise MalformedCookie(
            f"no wire form for id {cookie_id!r} at t={timestamp!r}: {exc}"
        ) from exc


def sign_cookie_fields(key: bytes, cookie_id: int, uuid: bytes, timestamp: float) -> bytes:
    """HMAC-SHA256 over (id | uuid | timestamp), truncated to 16 bytes.

    Truncated HMAC-SHA256 retains its unforgeability at reduced output
    length (RFC 2104 §5); 128 bits is far beyond what an on-path attacker
    can brute-force within a 5-second coherency window.  Bit-identical to
    ``hmac.digest(key, message, "sha256")[:16]``; this is the uncached
    form of the one MAC every verifier path shares (:func:`sign_message`).
    """
    return sign_message(key, _signed_fields(cookie_id, uuid, timestamp))


class SignerCache:
    """Per-key pre-absorbed HMAC states for repeated verification.

    HMAC hashes two key-derived 64-byte blocks before it sees a byte of
    the message — two SHA-256 block transforms a verifier repeats for
    every cookie of the same descriptor.  The cache keeps, per descriptor
    key, the two ``hashlib.sha256`` states that have absorbed ``K ^ ipad``
    and ``K ^ opad`` and serves each signature from their ``copy()``
    (:func:`keyed_mac`).  Digests are bit-identical to
    :func:`sign_cookie_fields`, which is the same construction with
    nothing cached.

    State is bounded: at most ``max_keys`` state pairs are kept, evicted
    in FIFO order — one pair per descriptor, so the cap is really a cap
    on hot descriptors per verifier.
    """

    def __init__(self, max_keys: int = 4096) -> None:
        if max_keys < 1:
            raise ValueError("max_keys must be at least 1")
        self.max_keys = max_keys
        self._states: dict[bytes, tuple] = {}

    def __len__(self) -> int:
        return len(self._states)

    def peek(self, key: bytes) -> tuple:
        """The ``(inner, outer)`` states for ``key`` if they are cached,
        else ``(None, None)`` — nothing is built, nothing evicted."""
        return self._states.get(key, (None, None))

    def states(self, key: bytes) -> tuple:
        """The ``(inner, outer)`` states for ``key``, built on first use.
        Callers ``copy()`` them (via :func:`keyed_mac`), never update."""
        states = self._states
        pair = states.get(key)
        if pair is None:
            inner_key, outer_key = _padded_keys(key)
            pair = (_sha256(inner_key), _sha256(outer_key))
            while len(states) >= self.max_keys:
                del states[next(iter(states))]
            states[key] = pair
        return pair

    def sign(
        self, key: bytes, cookie_id: int, uuid: bytes, timestamp: float
    ) -> bytes:
        """Equivalent of :func:`sign_cookie_fields` via the cached states."""
        inner, outer = self.states(key)
        return keyed_mac(inner, outer, _signed_fields(cookie_id, uuid, timestamp))


@dataclass(frozen=True, eq=False)
class Cookie:
    """A single-use, signed token attached to packets.

    Every cookie holds its 48 wire bytes (``_wire``) from birth, and two
    cookies are equal iff those bytes are.  The constructor packs them —
    fields with no wire form raise :class:`MalformedCookie` — and keeps
    the timestamp it packed: whole microseconds, which is all the
    signature ever covered.  :meth:`from_bytes` / :meth:`from_text` keep
    the validated bytes and decode the fields once, on first access.
    The verifier (:class:`~repro.core.matcher.CookieMatcher`) reads what
    it judges straight out of the bytes (:func:`verify_operands`), so
    how a cookie was made cannot change its verdict and the data path
    never decodes one.
    """

    cookie_id: int
    uuid: bytes
    timestamp: float
    signature: bytes

    def __post_init__(self) -> None:
        if len(self.signature) != SIGNATURE_BYTES:
            raise MalformedCookie(
                f"signature must be {SIGNATURE_BYTES} bytes, got {len(self.signature)}"
            )
        state = self.__dict__
        wire = state["_wire"] = (
            _signed_fields(self.cookie_id, self.uuid, self.timestamp)
            + self.signature
        )
        state["timestamp"] = (
            WIRE_VERIFY_FIELDS.unpack(wire)[1] / TIMESTAMP_SCALE
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._wire == other._wire
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._wire)

    def verify_signature(self, descriptor: CookieDescriptor) -> bool:
        """Constant-time check of the HMAC digest under the descriptor key."""
        _, _, signature, signed = verify_operands(self)
        return hmac.compare_digest(
            sign_message(descriptor.key, signed), signature
        )

    # ------------------------------------------------------------------
    # Wire encodings
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """The 48-byte binary encoding: the bytes this cookie holds, so
        one parsed by :meth:`from_bytes` re-emits what it arrived as."""
        return self._wire

    @classmethod
    def from_bytes(cls, data: bytes) -> "Cookie":
        """Parse the binary encoding; raises :class:`MalformedCookie`.

        Any 48 bytes are a well-formed cookie, so the length is the whole
        parse: the result keeps the bytes and decodes fields on demand.
        """
        if len(data) != COOKIE_WIRE_BYTES:
            raise MalformedCookie(
                f"cookie must be {COOKIE_WIRE_BYTES} bytes, got {len(data)}"
            )
        cookie = object.__new__(cls)
        cookie.__dict__["_wire"] = bytes(data)
        return cookie

    def to_text(self) -> str:
        """Base64 text encoding for HTTP headers and TLS extensions."""
        return base64.b64encode(self.to_bytes()).decode("ascii")

    @classmethod
    def from_text(cls, text: str | bytes) -> "Cookie":
        """Parse the base64 text encoding, given as ``str`` or as the
        ASCII bytes a carrier holds; raises :class:`MalformedCookie`."""
        try:
            # b64decode takes either form and, with validate=True, rejects
            # every non-alphabet character (non-ASCII text included).
            wire = base64.b64decode(text, validate=True)
        except ValueError as exc:  # binascii.Error is a ValueError
            raise MalformedCookie(f"bad base64 cookie text: {exc}") from exc
        if len(wire) != COOKIE_WIRE_BYTES:
            raise MalformedCookie(
                f"cookie must be {COOKIE_WIRE_BYTES} bytes, got {len(wire)}"
            )
        cookie = object.__new__(cls)
        cookie.__dict__["_wire"] = wire
        return cookie

    def __repr__(self) -> str:
        return (
            f"Cookie(id={self.cookie_id:#018x}, uuid={self.uuid.hex()[:8]}..., "
            f"t={self.timestamp:.6f})"
        )


class _WireField:
    """One field of a parsed cookie, decoded on first access.

    A non-data descriptor: the instance ``__dict__`` shadows it, so it is
    reached only while the cookie holds nothing but ``_wire`` — one built
    from fields, or decoded already, never comes here.  (``__getattr__``
    would do the same job but replaces the type's attribute lookup, and
    CPython then stops specialising *every* attribute and method access
    on every cookie.)
    """

    def __init__(self, name: str) -> None:
        self.name = name

    def __get__(self, cookie: Cookie | None, owner: type | None = None):
        if cookie is None:
            return self
        state = cookie.__dict__
        wire = state.get("_wire")
        if wire is None:
            raise AttributeError(
                f"{type(cookie).__name__!r} object has no attribute {self.name!r}"
            )
        # Whatever 48 bytes unpack to has a wire form, which is all
        # __post_init__ checks.
        cookie_id, uuid, ts_micros, signature = _WIRE.unpack(wire)
        state.update(
            cookie_id=cookie_id,
            uuid=uuid,
            timestamp=ts_micros / TIMESTAMP_SCALE,
            signature=signature,
        )
        return state[self.name]


# Installed after @dataclass has read the class: a class attribute named
# like a field would otherwise be taken for the field's default.
for _field in fields(Cookie):
    setattr(Cookie, _field.name, _WireField(_field.name))
del _field


def verify_operands(cookie: Cookie) -> tuple[int, float, bytes, bytes]:
    """``(cookie_id, timestamp, signature, signed bytes)``: what a
    verifier judges, read out of the cookie's bytes without decoding it.

    The signed bytes are the 32 the signature covers (id | uuid | µs
    timestamp); their first :data:`REPLAY_KEY_BYTES` are the
    replay-cache key.  The freshness operand is ``ts_micros / 1e6`` —
    the one :meth:`~repro.core.matcher.CookieMatcher.match_wire` derives
    from the same 48 bytes in a frame.
    """
    wire = cookie._wire
    cookie_id, ts_micros, signature = WIRE_VERIFY_FIELDS.unpack(wire)
    return (
        cookie_id,
        ts_micros / TIMESTAMP_SCALE,
        signature,
        wire[:SIGNED_BYTES],
    )
