"""Differential tests: the batched verification path against the scalar one.

Every property here has the same shape: build two identical verifiers
over one descriptor store, drive one with ``match`` per cookie and the
other with ``match_batch`` over the same sequence, and demand *complete*
observable equivalence — verdicts (by position), :class:`MatchStats`,
replay-cache internals (generation sets, rotation counters), and
telemetry snapshots.  Hypothesis supplies adversarial batches: replayed
uuids, timestamps straddling the 5 s NCT boundary, unknown descriptor
ids, malformed signatures, revoked and expired descriptors, all mixed —
and every cookie in one of its *births* (:data:`BIRTHS`): built from its
fields, or parsed off a binary or a text carrier and never decoded.
"""

import hmac
import math
import struct

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.attributes import CookieAttributes
from repro.core.cookie import (
    SIGNATURE_BYTES,
    UUID_BYTES,
    Cookie,
    SignerCache,
    sign_cookie_fields,
)
from repro.core.descriptor import CookieDescriptor
from repro.core.distributed import (
    NaiveVerifierPool,
    ShardedVerifierPool,
    rendezvous_shard,
)
from repro.core.matcher import (
    NETWORK_COHERENCY_TIME,
    VERDICT_RECORD,
    CookieMatcher,
)
from repro.core.parallel import (
    ProcessShardExecutor,
    batch_reply,
    decode_verdicts,
    encode_batch,
)
from repro.core.store import DescriptorStore
from repro.telemetry import MetricsRegistry

NOW = 1_000.0
NCT = NETWORK_COHERENCY_TIME
N_ACTIVE = 4

#: Failure-mode mix the batch strategy draws from.  Small uuid-tag ranges
#: make within-batch replays common rather than rare.
KINDS = ("valid", "valid", "bad_sig", "stale", "unknown", "revoked", "expired")

#: How a cookie came to be.  It holds the same 48 bytes either way and
#: the verifier judges those, so a birth cannot change a verdict.
BIRTHS = ("constructed", "from_bytes", "from_text")


class _Env:
    """One descriptor store with usable, revoked, and expired entries."""

    def __init__(self):
        self.store = DescriptorStore()
        self.active = [
            self.store.add(CookieDescriptor.create(service_data=f"svc-{i}"))
            for i in range(N_ACTIVE)
        ]
        self.revoked = self.store.add(
            CookieDescriptor.create(service_data="revoked")
        )
        self.revoked.revoke()
        self.expired = self.store.add(
            CookieDescriptor.create(
                service_data="expired",
                attributes=CookieAttributes(expires_at=NOW - 60.0),
            )
        )

    def unknown_id(self, seed: int) -> int:
        cookie_id = 1 + seed
        while self.store.get(cookie_id) is not None:
            cookie_id += 1
        return cookie_id


def _uuid(tag: int) -> bytes:
    return tag.to_bytes(UUID_BYTES, "big")


def _signed(descriptor, uuid: bytes, timestamp: float) -> Cookie:
    return Cookie(
        cookie_id=descriptor.cookie_id,
        uuid=uuid,
        timestamp=timestamp,
        signature=sign_cookie_fields(
            descriptor.key, descriptor.cookie_id, uuid, timestamp
        ),
    )


def _born(cookie: Cookie, birth: str) -> Cookie:
    """``cookie`` (freshly constructed) as the given birth delivers it."""
    if birth == "from_bytes":
        return Cookie.from_bytes(cookie.to_bytes())
    if birth == "from_text":
        return Cookie.from_text(cookie.to_text())
    return cookie


def _materialize(env: _Env, specs) -> list[Cookie]:
    cookies = []
    for kind, desc_index, tag, offset, skew, birth in specs:
        uuid = _uuid(tag)
        if kind == "unknown":
            cookies.append(
                _born(
                    Cookie(
                        cookie_id=env.unknown_id(tag),
                        uuid=uuid,
                        timestamp=NOW,
                        signature=b"\x00" * SIGNATURE_BYTES,
                    ),
                    birth,
                )
            )
            continue
        if kind == "revoked":
            descriptor = env.revoked
        elif kind == "expired":
            descriptor = env.expired
        else:
            descriptor = env.active[desc_index]
        timestamp = NOW + offset
        if kind == "stale":
            timestamp = NOW + math.copysign(NCT + skew, offset)
        cookie = _signed(descriptor, uuid, timestamp)
        if kind == "bad_sig":
            flipped = bytes([cookie.signature[0] ^ 0xFF])
            cookie = Cookie(
                cookie_id=cookie.cookie_id,
                uuid=uuid,
                timestamp=timestamp,
                signature=flipped + cookie.signature[1:],
            )
        cookies.append(_born(cookie, birth))
    return cookies


@st.composite
def batch_specs(draw, max_size=32):
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(KINDS),
                st.integers(0, N_ACTIVE - 1),
                st.integers(0, 11),
                st.floats(-4.5, 4.5, allow_nan=False),
                st.floats(0.001, 30.0, allow_nan=False),
                st.sampled_from(BIRTHS),
            ),
            max_size=max_size,
        )
    )


def _cache_state(cache):
    """Full observable state of a replay cache."""
    return (
        set(cache._current),
        set(cache._previous),
        cache._generation_start,
        cache.rotations,
        cache.idle_resets,
    )


def _differential(specs, chunk: int | None = None):
    env = _Env()
    # A list per path: neither sees what the other did to a cookie.
    scalar_cookies = _materialize(env, specs)
    cookies = _materialize(env, specs)
    scalar = CookieMatcher(env.store)
    batched = CookieMatcher(env.store)
    scalar_verdicts = [scalar.match(cookie, NOW) for cookie in scalar_cookies]
    if chunk:
        batched_verdicts = []
        for start in range(0, len(cookies), chunk):
            batched_verdicts.extend(
                batched.match_batch(cookies[start : start + chunk], NOW)
            )
    else:
        batched_verdicts = batched.match_batch(cookies, NOW)
    return scalar, batched, scalar_verdicts, batched_verdicts


@pytest.mark.contract
class TestMatcherDifferential:
    @settings(max_examples=60, deadline=None)
    @given(specs=batch_specs())
    def test_verdicts_equal_scalar(self, specs):
        _, _, scalar_verdicts, batched_verdicts = _differential(specs)
        # Descriptors come from one shared store, so identity comparison
        # is exact: same object accepted, or None in both paths.
        assert batched_verdicts == scalar_verdicts

    @settings(max_examples=60, deadline=None)
    @given(specs=batch_specs())
    def test_stats_equal_scalar(self, specs):
        scalar, batched, _, _ = _differential(specs)
        assert batched.stats.as_dict() == scalar.stats.as_dict()
        assert batched.stats.rejected == scalar.stats.rejected
        assert batched.stats.total == len(specs)

    @settings(max_examples=60, deadline=None)
    @given(specs=batch_specs())
    def test_replay_cache_state_equal_scalar(self, specs):
        scalar, batched, _, _ = _differential(specs)
        assert _cache_state(batched.replay_cache) == _cache_state(
            scalar.replay_cache
        )

    @settings(max_examples=40, deadline=None)
    @given(specs=batch_specs())
    def test_telemetry_snapshots_equal_scalar(self, specs):
        scalar, batched, _, _ = _differential(specs)
        scalar_registry, batched_registry = MetricsRegistry(), MetricsRegistry()
        scalar.register_telemetry(scalar_registry)
        batched.register_telemetry(batched_registry)
        scalar_snapshot = scalar_registry.snapshot()
        batched_snapshot = batched_registry.snapshot()
        assert batched_snapshot.counters == scalar_snapshot.counters
        assert batched_snapshot.gauges == scalar_snapshot.gauges

    @settings(max_examples=40, deadline=None)
    @given(specs=batch_specs(), shards=st.integers(1, 5))
    def test_sharded_replay_cache_equal_scalar(self, specs, shards):
        """The sharded deployment's replay state — one cache per pool
        shard — ends up the same whether cookies arrive one at a time or
        as a batch."""
        env = _Env()
        scalar = ShardedVerifierPool(env.store, shards=shards)
        batched = ShardedVerifierPool(env.store, shards=shards)
        scalar_verdicts = [
            scalar.match(c, NOW) for c in _materialize(env, specs)
        ]
        assert batched.match_batch(_materialize(env, specs), NOW) == (
            scalar_verdicts
        )
        assert [_cache_state(m.replay_cache) for m in batched.shards] == [
            _cache_state(m.replay_cache) for m in scalar.shards
        ]

    @settings(max_examples=40, deadline=None)
    @given(specs=batch_specs(), chunk=st.integers(1, 9))
    def test_chunked_batches_equal_scalar(self, specs, chunk):
        """Splitting one stream into arbitrary rx-burst sizes changes
        nothing: each chunk is a left-to-right pass at the same instant."""
        scalar, batched, scalar_verdicts, batched_verdicts = _differential(
            specs, chunk=chunk
        )
        assert batched_verdicts == scalar_verdicts
        assert batched.stats.as_dict() == scalar.stats.as_dict()

    @settings(max_examples=30, deadline=None)
    @given(specs=batch_specs(max_size=1))
    def test_singleton_batch_equals_match(self, specs):
        _, _, scalar_verdicts, batched_verdicts = _differential(specs)
        assert batched_verdicts == scalar_verdicts

    def test_empty_batch(self):
        env = _Env()
        matcher = CookieMatcher(env.store)
        assert matcher.match_batch([], NOW) == []
        assert matcher.stats.total == 0

    def test_duplicate_uuid_in_batch_first_wins(self):
        env = _Env()
        cookie = _signed(env.active[0], _uuid(7), NOW)
        matcher = CookieMatcher(env.store)
        verdicts = matcher.match_batch([cookie, cookie, cookie], NOW)
        assert verdicts == [env.active[0], None, None]
        assert matcher.stats.accepted == 1
        assert matcher.stats.replayed == 2

    def test_replay_detected_across_batches(self):
        env = _Env()
        cookie = _signed(env.active[0], _uuid(3), NOW)
        matcher = CookieMatcher(env.store)
        assert matcher.match_batch([cookie], NOW) == [env.active[0]]
        assert matcher.match_batch([cookie], NOW + 1.0) == [None]
        assert matcher.stats.replayed == 1

    def test_nct_boundary_bit_exact(self):
        """Timestamps exactly at ±NCT are accepted, and so is the float
        one ulp beyond: a cookie carries whole microseconds, so that
        float is stamped *on* the edge.  The first timestamp a cookie
        can be stale with is one microsecond out — for every birth, and
        whoever verifies it: the scalar ladder, the object batch, a pool
        worker's in-place path, or the in-process matcher a crashed
        shard falls back to."""
        env = _Env()
        descriptor = env.active[0]
        timestamps = [
            NOW + NCT,
            NOW - NCT,
            math.nextafter(NOW + NCT, math.inf),
            math.nextafter(NOW - NCT, -math.inf),
            NOW + NCT + 1e-6,
            NOW - NCT - 1e-6,
        ]
        expected = [descriptor] * 4 + [None] * 2

        def cookies():
            return [
                _born(_signed(descriptor, _uuid(10 + i), ts), birth)
                for i, ts in enumerate(timestamps)
            ]

        def worker(matcher):
            frame = b"B" + struct.pack("!d", NOW) + encode_batch(cookies())
            return [
                env.store.get(cookie_id) if code == 0 else None
                for code, cookie_id in decode_verdicts(
                    batch_reply(matcher, frame)
                )
            ]

        for birth in BIRTHS:
            scalar, batched, wire = (CookieMatcher(env.store) for _ in range(3))
            assert [scalar.match(c, NOW) for c in cookies()] == expected, birth
            assert batched.match_batch(cookies(), NOW) == expected, birth
            assert worker(wire) == expected, birth
            with ProcessShardExecutor(
                env.store, workers=2, transport="in-process"
            ) as fallback:
                assert fallback.shard_transports() == ["in-process"] * 2
                assert fallback.match_batch(cookies(), NOW) == expected, birth
            assert (
                batched.stats.as_dict()
                == wire.stats.as_dict()
                == scalar.stats.as_dict()
                == fallback.collect_match_stats().as_dict()
            ), birth

    def test_failed_checks_do_not_record_uuid(self):
        """A bad-signature or stale cookie must not poison its uuid: a
        later well-formed cookie with the same uuid is still accepted —
        in both paths, even within one batch."""
        env = _Env()
        descriptor = env.active[0]
        uuid = _uuid(5)
        good = _signed(descriptor, uuid, NOW)
        bad_sig = Cookie(
            cookie_id=good.cookie_id,
            uuid=uuid,
            timestamp=good.timestamp,
            signature=bytes([good.signature[0] ^ 1]) + good.signature[1:],
        )
        stale = _signed(descriptor, uuid, NOW + NCT + 1.0)
        batch = [bad_sig, stale, good]
        scalar = CookieMatcher(env.store)
        batched = CookieMatcher(env.store)
        scalar_verdicts = [scalar.match(c, NOW) for c in batch]
        batched_verdicts = batched.match_batch(batch, NOW)
        assert batched_verdicts == scalar_verdicts == [None, None, descriptor]
        assert batched.stats.as_dict() == scalar.stats.as_dict()

    def test_unknown_revoked_expired_memoized_counts(self):
        """The per-batch descriptor memo must still count every cookie."""
        env = _Env()
        batch = (
            _materialize(
                env, [("unknown", 0, i, 0.0, 1.0, BIRTHS[i]) for i in range(3)]
            )
            + _materialize(
                env, [("revoked", 0, i, 0.0, 1.0, BIRTHS[i % 3]) for i in range(4)]
            )
            + _materialize(
                env, [("expired", 0, i, 0.0, 1.0, "constructed") for i in range(5)]
            )
        )
        matcher = CookieMatcher(env.store)
        assert matcher.match_batch(batch, NOW) == [None] * 12
        assert matcher.stats.unknown_id == 3
        assert matcher.stats.revoked == 4
        assert matcher.stats.expired == 5


class TestSignerCache:
    def test_one_shot_descriptors_build_no_states(self):
        """More distinct descriptors in a batch than the cache holds:
        each cookie gets the one-shot MAC, nothing is built or evicted,
        and verdicts equal scalar.  States are for an id that repeats."""
        store = DescriptorStore()
        descriptors = [
            store.add(CookieDescriptor.create()) for _ in range(8192)
        ]
        cookies = [
            _signed(descriptor, _uuid(i), NOW)
            for i, descriptor in enumerate(descriptors)
        ]
        scalar, batched, wire = (CookieMatcher(store) for _ in range(3))
        assert len(descriptors) > batched._signers.max_keys
        verdicts = batched.match_batch(cookies, NOW)
        assert verdicts == [scalar.match(c, NOW) for c in cookies] == descriptors
        out = bytearray(VERDICT_RECORD.size * len(cookies))
        wire.match_wire(b"".join(c.to_bytes() for c in cookies), NOW, out)
        assert [code for code, _ in VERDICT_RECORD.iter_unpack(out)] == (
            [0] * len(cookies)
        )
        assert wire.stats.as_dict() == batched.stats.as_dict()
        assert len(batched._signers) == len(wire._signers) == 0

        again = [_signed(descriptors[0], _uuid(9000 + i), NOW) for i in range(3)]
        assert batched.match_batch(again, NOW) == [descriptors[0]] * 3
        assert len(batched._signers) == 1
        # Cached now: the next batch's first cookie already finds them.
        assert batched._signers.peek(descriptors[0].key) != (None, None)

    @settings(max_examples=60, deadline=None)
    @given(
        # 1-200 bytes crosses SHA-256's 64-byte block: longer keys are
        # hashed before padding (RFC 2104).
        key=st.binary(min_size=1, max_size=200),
        cookie_id=st.integers(0, 2**64 - 1),
        tag=st.integers(0, 2**32 - 1),
        timestamp=st.floats(
            0.0, 2**31, allow_nan=False, allow_infinity=False
        ),
    )
    def test_digest_matches_sign_cookie_fields(
        self, key, cookie_id, tag, timestamp
    ):
        cache = SignerCache()
        uuid = _uuid(tag)
        expected = sign_cookie_fields(key, cookie_id, uuid, timestamp)
        # The hand-rolled MAC is the stdlib's HMAC-SHA256, truncated.
        message = (
            cookie_id.to_bytes(8, "big")
            + uuid
            + round(timestamp * 1_000_000).to_bytes(8, "big")
        )
        assert expected == hmac.digest(key, message, "sha256")[:SIGNATURE_BYTES]
        assert cache.sign(key, cookie_id, uuid, timestamp) == expected
        # Second call serves from the pre-absorbed states: same digest.
        assert cache.sign(key, cookie_id, uuid, timestamp) == expected

    @settings(max_examples=30, deadline=None)
    @given(
        keys=st.lists(st.binary(min_size=1, max_size=200), min_size=1, max_size=12),
        max_keys=st.integers(1, 3),
    )
    def test_eviction_preserves_correctness(self, keys, max_keys):
        cache = SignerCache(max_keys=max_keys)
        for key in keys + keys:
            assert cache.sign(key, 1, _uuid(1), NOW) == sign_cookie_fields(
                key, 1, _uuid(1), NOW
            )
            assert len(cache) <= max_keys


class TestShardedReplayCache:
    """Replay state in a sharded deployment is one :class:`ReplayCache`
    per :class:`ShardedVerifierPool` shard, reached by descriptor
    affinity — nothing is shared and there is no facade over them."""

    @staticmethod
    def _pool(shards):
        env = _Env()
        return env, ShardedVerifierPool(env.store, shards=shards)

    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.integers(0, N_ACTIVE - 1),
                st.integers(0, 20),
                st.floats(0.0, 8.0, allow_nan=False),
            ),
            max_size=40,
        ),
        shards=st.integers(1, 6),
    )
    def test_matches_standalone_caches_per_shard(self, ops, shards):
        """A pool is observationally N standalone matchers: route the
        same cookies by hand and compare every answer and every cache's
        internals, per shard."""
        env, pool = self._pool(shards)
        standalone = [CookieMatcher(env.store) for _ in range(shards)]
        now = NOW
        for desc_index, tag, advance in ops:
            now += advance
            cookie = _signed(env.active[desc_index], _uuid(tag), now)
            index = pool.shard_for(cookie)
            assert pool.match(cookie, now) == standalone[index].match(
                cookie, now
            )
        for shard, alone in zip(pool.shards, standalone):
            assert _cache_state(shard.replay_cache) == _cache_state(
                alone.replay_cache
            )
            assert shard.stats.as_dict() == alone.stats.as_dict()

    @settings(max_examples=60, deadline=None)
    @given(cookie_id=st.integers(0, 2**64 - 1), shards=st.integers(1, 8))
    def test_shard_for_stable_and_in_range(self, cookie_id, shards):
        _, pool = self._pool(shards)
        cookie = Cookie(cookie_id, _uuid(1), NOW, b"\x00" * SIGNATURE_BYTES)
        index = pool.shard_for(cookie)
        assert 0 <= index < shards
        assert pool.shard_for(cookie) == index
        assert index == rendezvous_shard(cookie_id, shards)

    def test_single_shard_equals_unsharded(self):
        env, pool = self._pool(1)
        plain = CookieMatcher(env.store)
        sequence = [(1, 0.0), (2, 3.0), (1, 6.0), (1, 9.0), (3, 30.0), (3, 30.5)]
        for tag, elapsed in sequence:
            cookie = _signed(env.active[tag % N_ACTIVE], _uuid(tag), NOW + elapsed)
            assert pool.match(cookie, NOW + elapsed) == plain.match(
                cookie, NOW + elapsed
            )
        assert _cache_state(pool.shards[0].replay_cache) == _cache_state(
            plain.replay_cache
        )

    def test_replay_across_shard_rotation_regression(self):
        """A cookie spent before its shard's cache rotates must still be
        caught afterwards — rotation moves its key to the shard's
        previous generation, not out of memory.  The cookie is stamped
        NCT ahead, so it is still fresh a whole cache window (2 x NCT)
        after it was first spent."""
        env, pool = self._pool(4)
        descriptor = env.active[0]
        skewed = _signed(descriptor, _uuid(42), NOW + NCT)
        cache = pool.shards[pool.shard_for(skewed)].replay_cache
        # Pin the generation start, then spend the cookie at its end.
        assert pool.match(_signed(descriptor, _uuid(1), NOW), NOW) is descriptor
        rotations = cache.rotations
        assert pool.match(skewed, NOW + 2 * NCT - 0.5) is descriptor
        # Rotation is lazy: other traffic on the same shard drives it.
        later = NOW + 2 * NCT
        assert pool.match(_signed(descriptor, _uuid(2), later), later) is descriptor
        assert cache.rotations == rotations + 1
        assert pool.match(skewed, later) is None
        assert pool.shards[pool.shard_for(skewed)].stats.replayed == 1

    def test_rotation_is_per_shard(self):
        """Traffic that only touches one shard must not rotate others."""
        env, pool = self._pool(4)
        descriptor = env.active[0]
        for tag, now in enumerate((NOW, NOW + 2 * NCT + 1.0)):
            assert pool.match(_signed(descriptor, _uuid(tag), now), now)
        busy = pool.shard_for_descriptor(descriptor)
        assert [bool(m.replay_cache.rotations) for m in pool.shards] == [
            index == busy for index in range(4)
        ]

    def test_rejects_zero_shards(self):
        try:
            ShardedVerifierPool(DescriptorStore(), shards=0)
        except ValueError:
            pass
        else:  # pragma: no cover - defensive
            raise AssertionError("expected ValueError for zero shards")


class TestVerifierPoolBatch:
    @settings(max_examples=40, deadline=None)
    @given(specs=batch_specs(), shards=st.integers(1, 5))
    def test_sharded_pool_batch_equals_scalar(self, specs, shards):
        env = _Env()
        cookies = _materialize(env, specs)
        scalar_pool = ShardedVerifierPool(env.store, shards=shards)
        batched_pool = ShardedVerifierPool(env.store, shards=shards)
        scalar_verdicts = [scalar_pool.match(c, NOW) for c in cookies]
        batched_verdicts = batched_pool.match_batch(cookies, NOW)
        assert batched_verdicts == scalar_verdicts
        assert (batched_pool.stats.accepted, batched_pool.stats.rejected) == (
            scalar_pool.stats.accepted,
            scalar_pool.stats.rejected,
        )
        # Per-shard matcher stats agree too: affinity routed the same
        # cookies to the same shards in both modes.
        for scalar_shard, batched_shard in zip(
            scalar_pool.shards, batched_pool.shards
        ):
            assert (
                batched_shard.stats.as_dict() == scalar_shard.stats.as_dict()
            )

    @settings(max_examples=30, deadline=None)
    @given(specs=batch_specs(max_size=16), shards=st.integers(2, 4))
    def test_naive_pool_batch_equals_scalar_loop(self, specs, shards):
        """The base-class default must match a per-cookie loop exactly,
        including the round-robin cursor's progression."""
        env = _Env()
        cookies = _materialize(env, specs)
        loop_pool = NaiveVerifierPool(env.store, shards=shards)
        batch_pool = NaiveVerifierPool(env.store, shards=shards)
        loop_verdicts = [loop_pool.match(c, NOW) for c in cookies]
        batch_verdicts = batch_pool.match_batch(cookies, NOW)
        assert batch_verdicts == loop_verdicts
        assert batch_pool._cursor == loop_pool._cursor

    def test_sharded_pool_memo_matches_shard_for(self):
        env = _Env()
        pool = ShardedVerifierPool(env.store, shards=3)
        cookies = [
            _signed(descriptor, _uuid(i), NOW)
            for i, descriptor in enumerate(env.active)
        ]
        pool.match_batch(cookies, NOW)
        for cookie in cookies:
            assert pool._shard_memo[cookie.cookie_id] == pool.shard_for(cookie)

    def test_sharded_pool_no_double_spend_in_batch(self):
        """One cookie presented many times in one batch is granted once,
        regardless of batch boundaries."""
        env = _Env()
        pool = ShardedVerifierPool(env.store, shards=4)
        cookie = _signed(env.active[1], _uuid(9), NOW)
        verdicts = pool.match_batch([cookie] * 6, NOW)
        assert verdicts[0] is env.active[1]
        assert verdicts[1:] == [None] * 5
        assert pool.match_batch([cookie], NOW) == [None]
        assert pool.stats.accepted == 1

    def test_pool_empty_batch(self):
        env = _Env()
        pool = ShardedVerifierPool(env.store, shards=2)
        assert pool.match_batch([], NOW) == []
        assert pool.stats.accepted == pool.stats.rejected == 0
