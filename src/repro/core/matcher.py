"""Cookie verification and matching (the network half of Listing 3).

The verifier accepts a cookie iff:

1. the cookie id is known (a descriptor exists in the store),
2. the descriptor is usable (not revoked, not expired),
3. the HMAC digest verifies under the descriptor key,
4. the timestamp lies within the Network Coherency Time of now, and at
   or above the replay cache's floor, and
5. the uuid has not been seen before *for this descriptor* (no replay).

Replay scope is per descriptor: the cache key is ``cookie_id || uuid``, so
two descriptors minting the same uuid do not collide.  This matches the
sharded deployments (§4.6 relaxes uniqueness to what is locally
verifiable): descriptor-affine shards each keep their own replay cache, so
cross-descriptor uuid collisions land on different shards and were never
detectable there.  Keying the scalar matcher the same way makes scalar,
sharded, and multi-process verdicts identical by construction.

The NCT — "the maximum time we expect a packet to live within the network"
— defaults to the paper's 5 seconds.  It bounds both clock skew tolerance
and the replay cache's memory.  The cache is aged by the timestamps of the
cookies it checks, not by the clock that reads them: it forgets a key only
once the key's timestamp is below its floor, and rule 4 rejects a cookie
below the floor, so no replay gets through whatever the clock does.
"""

from __future__ import annotations

import hmac as _hmac
import struct
from dataclasses import dataclass, fields
from typing import Sequence

from .cookie import (
    COOKIE_WIRE_BYTES,
    REPLAY_KEY_BYTES,
    SIGNED_BYTES,
    TIMESTAMP_SCALE,
    WIRE_VERIFY_FIELDS,
    Cookie,
    SignerCache,
    keyed_mac,
    sign_message,
    verify_operands,
)
from .descriptor import CookieDescriptor
from .errors import (
    DescriptorExpired,
    DescriptorRevoked,
    InvalidSignature,
    MalformedCookie,
    ReplayDetected,
    StaleTimestamp,
    UnknownDescriptor,
)
from .store import DescriptorStore

__all__ = [
    "ReplayCache",
    "MatchStats",
    "CookieMatcher",
    "MATCH_OUTCOMES",
    "VERDICT_RECORD",
    "NETWORK_COHERENCY_TIME",
]

NETWORK_COHERENCY_TIME = 5.0


class ReplayCache:
    """Remembers recent replay keys in two generations, aged by the
    cookies' own timestamps: generation *g* covers ``[g·window,
    (g+1)·window)``, and a key is forgotten only once its timestamp is
    below :attr:`floor`.  Memory is bounded by the arrival rate times
    2×window whatever the verifier's clock does — the property the paper
    relies on when it says the timestamp "reduces state kept by the
    network"."""

    def __init__(self, window: float = NETWORK_COHERENCY_TIME) -> None:
        if window <= 0:
            raise ValueError("replay window must be positive")
        self.window = window
        self._current: set[bytes] = set()
        self._previous: set[bytes] = set()
        #: The generation of the newest timestamp checked.
        self.generation = 0
        #: ``(generation - 1) · window``; a verifier rejects a cookie below.
        self.floor = -window
        # Where the next generation starts: the steady state's one test.
        self._next = window
        #: Generations entered since construction (telemetry: a healthy
        #: cache rotates ~1/window per second under load).
        self.rotations = 0

    def enter(self, generation: int) -> None:
        """Move up to ``generation``, keeping the one left if adjacent."""
        if generation <= self.generation:
            return
        adjacent = generation == self.generation + 1
        self._previous = self._current if adjacent else set()
        self._current = set()
        self.generation = generation
        self.floor = (generation - 1) * self.window
        self._next = (generation + 1) * self.window
        self.rotations += 1

    def check_and_record(self, key: bytes, timestamp: float) -> bool:
        """Atomically test-and-set ``key`` for a cookie stamped
        ``timestamp``; returns True if this is a replay."""
        if timestamp >= self._next:
            self.enter(int(timestamp // self.window))
        current = self._current
        if key in current or key in self._previous:
            return True
        current.add(key)
        return False

    @property
    def size(self) -> int:
        """Number of keys currently remembered (both generations)."""
        return len(self._current) + len(self._previous)


@dataclass
class MatchStats:
    """Outcome counters kept by a :class:`CookieMatcher`."""

    accepted: int = 0
    unknown_id: int = 0
    bad_signature: int = 0
    stale_timestamp: int = 0
    replayed: int = 0
    revoked: int = 0
    expired: int = 0

    @property
    def rejected(self) -> int:
        return (
            self.unknown_id
            + self.bad_signature
            + self.stale_timestamp
            + self.replayed
            + self.revoked
            + self.expired
        )

    @property
    def total(self) -> int:
        return self.accepted + self.rejected

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


#: Verdict codes: code *i* is the *i*-th :class:`MatchStats` field, so 0
#: is the only accept and every other code names its reject reason.
MATCH_OUTCOMES: tuple[str, ...] = tuple(
    field.name for field in fields(MatchStats)
)
(
    _ACCEPTED,
    _UNKNOWN_ID,
    _BAD_SIGNATURE,
    _STALE_TIMESTAMP,
    _REPLAYED,
    _REVOKED,
    _EXPIRED,
) = range(len(MATCH_OUTCOMES))

#: One verdict record of :meth:`CookieMatcher.match_wire`: outcome code
#: (1) + descriptor id (8, zero unless accepted).
VERDICT_RECORD = struct.Struct("!BQ")

#: Reject code -> the typed error :meth:`CookieMatcher.verify` raises.
_REJECTIONS = {
    _UNKNOWN_ID: (
        UnknownDescriptor,
        lambda cookie, now: f"no descriptor {cookie.cookie_id:#x}",
    ),
    _REVOKED: (
        DescriptorRevoked,
        lambda cookie, now: f"descriptor {cookie.cookie_id:#x} revoked",
    ),
    _EXPIRED: (
        DescriptorExpired,
        lambda cookie, now: f"descriptor {cookie.cookie_id:#x} expired",
    ),
    _BAD_SIGNATURE: (
        InvalidSignature,
        lambda cookie, now: f"bad digest for {cookie.cookie_id:#x}",
    ),
    _STALE_TIMESTAMP: (
        StaleTimestamp,
        lambda cookie, now: f"timestamp {cookie.timestamp} stale at {now}",
    ),
    _REPLAYED: (
        ReplayDetected,
        lambda cookie, now: f"uuid {cookie.uuid.hex()} already seen",
    ),
}


class CookieMatcher:
    """Verifies cookies against a descriptor store.

    :meth:`verify` raises a typed :class:`~repro.core.errors.CookieError`
    on each failure mode; :meth:`match` is the data-path form that returns
    the descriptor or ``None`` and only counts — matching the paper's "if
    it fails to match, it behaves as if the cookie was not there".
    """

    def __init__(
        self,
        store: DescriptorStore,
        nct: float = NETWORK_COHERENCY_TIME,
        replay_cache: ReplayCache | None = None,
    ) -> None:
        if nct <= 0:
            raise ValueError("network coherency time must be positive")
        self.store = store
        self.nct = nct
        # The cache window is 2×NCT, not NCT: honest cookies read at one
        # instant span 2×NCT of timestamps.  An NCT-wide cache's floor can
        # pass a cookie from a client NCT behind once it has checked one
        # from a client NCT ahead, and reject it as stale (PROTOCOL §11).
        self.replay_cache = replay_cache or ReplayCache(window=2 * nct)
        self.stats = MatchStats()
        self._signers = SignerCache()

    #: Telemetry declaration: :class:`MatchStats`' fields and the replay
    #: cache's rotation counts are counters, its occupancy is a level.
    COUNTERS = ("stats", "replay_cache.rotations")
    GAUGES = ("replay_cache.size",)

    def register_telemetry(self, registry, prefix: str = "matcher") -> None:
        """Export :class:`MatchStats` and the replay cache's size/rotation
        levels into a :class:`~repro.telemetry.MetricsRegistry`.  N shard
        matchers registered under one prefix sum into pool totals."""
        registry.register(self, prefix, self.COUNTERS, self.GAUGES)

    def _decide(
        self, cookie: Cookie, now: float
    ) -> tuple[CookieDescriptor | None, int]:
        """The scalar checks, counted but never raised: the descriptor
        and ``_ACCEPTED``, or ``None`` and the reject code.

        The reference ladder.  Judged on the cookie's 48 bytes
        (:func:`~repro.core.cookie.verify_operands`), which is what
        :meth:`match_batch` and :meth:`match_wire` judge too.
        """
        stats = self.stats
        cookie_id, timestamp, signature, signed = verify_operands(cookie)
        descriptor = self.store.get(cookie_id)
        if descriptor is None:
            stats.unknown_id += 1
            return None, _UNKNOWN_ID
        if descriptor.revoked:
            stats.revoked += 1
            return None, _REVOKED
        if descriptor.attributes.is_expired(now):
            stats.expired += 1
            return None, _EXPIRED
        if not _hmac.compare_digest(
            sign_message(descriptor.key, signed), signature
        ):
            stats.bad_signature += 1
            return None, _BAD_SIGNATURE
        cache = self.replay_cache
        if abs(timestamp - now) > self.nct or timestamp < cache.floor:
            stats.stale_timestamp += 1
            return None, _STALE_TIMESTAMP
        if cache.check_and_record(signed[:REPLAY_KEY_BYTES], timestamp):
            stats.replayed += 1
            return None, _REPLAYED
        stats.accepted += 1
        return descriptor, _ACCEPTED

    def verify(self, cookie: Cookie, now: float) -> CookieDescriptor:
        """Full verification; returns the descriptor or raises."""
        descriptor, code = self._decide(cookie, now)
        if descriptor is None:
            error, describe = _REJECTIONS[code]
            raise error(describe(cookie, now))
        return descriptor

    def match(self, cookie: Cookie, now: float) -> CookieDescriptor | None:
        """Data-path verification: descriptor on success, None on failure."""
        return self._decide(cookie, now)[0]

    # ------------------------------------------------------------------
    # Batched data paths
    # ------------------------------------------------------------------
    def _resolve(self, cookie_id: int, now: float) -> tuple:
        """Per-batch memo entry for one cookie id: ``(descriptor, code,
        inner, outer)`` — the usable descriptor with its pre-keyed MAC
        states *if they are already cached*, or ``None`` with the reject
        code.  Sound within a batch because ``now`` is fixed and
        descriptor revocation/expiry cannot change between two cookies
        of the same batch (single-threaded data path, one timestamp).

        States are not built here: two SHA-256 states cost more than the
        one-shot MAC they replace, and a batch of more hot descriptors
        than ``SignerCache.max_keys`` would build and evict a pair per
        cookie.  :meth:`_with_states` builds them when an id repeats in a batch.
        """
        descriptor = self.store.get(cookie_id)
        if descriptor is None:
            return None, _UNKNOWN_ID, None, None
        if descriptor.revoked:
            return None, _REVOKED, None, None
        if descriptor.attributes.is_expired(now):
            return None, _EXPIRED, None, None
        return (descriptor, _ACCEPTED, *self._signers.peek(descriptor.key))

    def _with_states(self, memo: tuple) -> tuple:
        """``memo`` with its descriptor's MAC states, built and cached:
        the id came up a second time in one batch, so they pay."""
        descriptor = memo[0]
        return (descriptor, _ACCEPTED, *self._signers.states(descriptor.key))

    def _count(self, counts: list[int]) -> None:
        """Add one batch's per-code tallies to :attr:`stats`."""
        stats = self.stats
        for outcome, count in zip(MATCH_OUTCOMES, counts):
            if count:
                setattr(stats, outcome, getattr(stats, outcome) + count)

    def match_batch(
        self,
        cookies: Sequence[Cookie],
        now: float,
        reasons: list[str] | None = None,
    ) -> list[CookieDescriptor | None]:
        """Verify a batch of cookies observed at one instant.

        Result i equals what ``match(cookies[i], now)`` would have
        returned in a sequential left-to-right pass — including replay
        interactions *within* the batch (the first occurrence of a uuid
        wins, later ones are replays) and identical :class:`MatchStats`
        and replay-cache mutations.  The speedup comes from amortizing
        per-cookie costs across the batch:

        - descriptor lookup + revoked/expired checks are memoized per
          cookie id (a batch from one flow burst repeats few ids);
        - a descriptor whose two pre-absorbed HMAC states are cached
          (:class:`~repro.core.cookie.SignerCache`), or whose id repeats
          in the batch, signs with two ``copy()/update()/digest()``;
          a one-shot descriptor gets the one-shot MAC and builds nothing;
        - no cookie is decoded or re-packed: its fields, MAC message
          and replay key are read out of its bytes
          (:func:`~repro.core.cookie.verify_operands`).

        This is the *object* path; :meth:`match_wire` is the same loop,
        with the same predicates on the same operands, over a frame of
        wire cookies.

        ``reasons``, if given, receives one :class:`MatchStats` field
        name per cookie (``"accepted"``, ``"replayed"``, ...).
        """
        nct = self.nct
        compare = _hmac.compare_digest
        cache = self.replay_cache
        check_and_record = cache.check_and_record
        resolve = self._resolve
        with_states = self._with_states
        decided: dict[int, tuple] = {}
        counts = [0] * len(MATCH_OUTCOMES)
        results: list[CookieDescriptor | None] = []
        append = results.append
        note = reasons.append if reasons is not None else None
        for cookie in cookies:
            cookie_id, timestamp, signature, signed = verify_operands(cookie)
            memo = decided.get(cookie_id)
            if memo is None:
                memo = decided[cookie_id] = resolve(cookie_id, now)
            elif memo[2] is None and memo[0] is not None:
                memo = decided[cookie_id] = with_states(memo)
            descriptor, code, inner, outer = memo
            if descriptor is not None:
                mac = (
                    sign_message(descriptor.key, signed)
                    if inner is None
                    else keyed_mac(inner, outer, signed)
                )
                if not compare(mac, signature):
                    descriptor, code = None, _BAD_SIGNATURE
                # Same predicate as the scalar path (not a precomputed
                # lo/hi window) so results are bit-identical for any float;
                # the floor may have moved since the last cookie.
                elif abs(timestamp - now) > nct or timestamp < cache.floor:
                    descriptor, code = None, _STALE_TIMESTAMP
                elif check_and_record(signed[:REPLAY_KEY_BYTES], timestamp):
                    descriptor, code = None, _REPLAYED
            counts[code] += 1
            append(descriptor)
            if note is not None:
                note(MATCH_OUTCOMES[code])
        self._count(counts)
        return results

    def match_wire(
        self, body: bytes, now: float, out: bytearray, offset: int = 0
    ) -> int:
        """Verify a frame of wire cookies in place.

        ``body`` is n × 48 bytes exactly as the cookies sat on a binary
        carrier; one :data:`VERDICT_RECORD` per cookie is packed into
        ``out`` from ``offset`` on as it is decided, and the offset past
        the last record is returned.  Observationally this is
        ``match_batch(decode_batch(frame), now)`` — same verdicts, same
        :class:`MatchStats`, same replay-cache contents — without ever
        building a :class:`Cookie`: the fields come from one
        ``iter_unpack`` pass, the MAC message is ``body[o:o+32]``, the
        replay key ``body[o:o+24]``, and the freshness operand is
        ``ts_micros / 1e6`` — :func:`~repro.core.cookie.verify_operands`
        for cookies that sit in a frame.
        """
        if len(body) % COOKIE_WIRE_BYTES:
            raise MalformedCookie(
                f"{len(body)} bytes is not a whole number of "
                f"{COOKIE_WIRE_BYTES}-byte cookies"
            )
        nct = self.nct
        compare = _hmac.compare_digest
        cache = self.replay_cache
        check_and_record = cache.check_and_record
        resolve = self._resolve
        with_states = self._with_states
        pack_into = VERDICT_RECORD.pack_into
        record_bytes = VERDICT_RECORD.size
        decided: dict[int, tuple] = {}
        counts = [0] * len(MATCH_OUTCOMES)
        start = 0
        for cookie_id, ts_micros, signature in WIRE_VERIFY_FIELDS.iter_unpack(body):
            memo = decided.get(cookie_id)
            if memo is None:
                memo = decided[cookie_id] = resolve(cookie_id, now)
            elif memo[2] is None and memo[0] is not None:
                memo = decided[cookie_id] = with_states(memo)
            descriptor, code, inner, outer = memo
            if descriptor is not None:
                signed = body[start : start + SIGNED_BYTES]
                mac = (
                    sign_message(descriptor.key, signed)
                    if inner is None
                    else keyed_mac(inner, outer, signed)
                )
                timestamp = ts_micros / TIMESTAMP_SCALE
                if not compare(mac, signature):
                    code = _BAD_SIGNATURE
                elif abs(timestamp - now) > nct or timestamp < cache.floor:
                    code = _STALE_TIMESTAMP
                elif check_and_record(
                    body[start : start + REPLAY_KEY_BYTES], timestamp
                ):
                    code = _REPLAYED
            counts[code] += 1
            pack_into(out, offset, code, 0 if code else cookie_id)
            start += COOKIE_WIRE_BYTES
            offset += record_bytes
        self._count(counts)
        return offset
