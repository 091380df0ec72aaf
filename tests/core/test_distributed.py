"""Distributed uniqueness verification tests (§4.6 scale-out)."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import CookieDescriptor, CookieGenerator, DescriptorStore
from repro.core.cookie import SIGNATURE_BYTES, Cookie
from repro.core.distributed import (
    NaiveVerifierPool,
    ShardedVerifierPool,
    rendezvous_shard,
)

from .cookie_stream import NCT, NOW, _Env, _materialize, _signed, _uuid, batch_specs


def _env(shards=4, descriptors=20):
    store = DescriptorStore()
    descs = [
        store.add(CookieDescriptor.create(service_data="Boost"))
        for _ in range(descriptors)
    ]
    return store, descs


class TestShardedPool:
    def test_accepts_valid_cookie(self):
        store, descs = _env()
        pool = ShardedVerifierPool(store, shards=4)
        cookie = CookieGenerator(descs[0], clock=lambda: 0.0).generate()
        assert pool.match(cookie, now=0.0) is not None

    def test_descriptor_affinity(self):
        """Every cookie of one descriptor lands on the same shard."""
        store, descs = _env()
        pool = ShardedVerifierPool(store, shards=8)
        generator = CookieGenerator(descs[0], clock=lambda: 0.0)
        shards = {pool.shard_for(generator.generate()) for _ in range(50)}
        assert len(shards) == 1
        assert shards.pop() == rendezvous_shard(descs[0].cookie_id, len(pool.shards))

    def test_double_spend_impossible(self):
        """Replaying anywhere in the pool is rejected: affinity makes the
        local replay cache globally sound."""
        store, descs = _env()
        pool = ShardedVerifierPool(store, shards=8)
        cookie = CookieGenerator(descs[0], clock=lambda: 0.0).generate()
        grants = sum(
            1 for _ in range(20) if pool.match(cookie, now=0.0) is not None
        )
        assert grants == 1
        assert pool.stats.accepted == 1
        assert pool.stats.rejected == 19

    def test_load_spreads_across_descriptors(self):
        """Different descriptors spread over shards (rendezvous balance)."""
        store, descs = _env(shards=4, descriptors=200)
        pool = ShardedVerifierPool(store, shards=4)
        used = {rendezvous_shard(d.cookie_id, len(pool.shards)) for d in descs}
        assert used == {0, 1, 2, 3}

    def test_assignment_stability_on_scale_out(self):
        """Rendezvous property: adding a shard moves only ~1/(n+1) of
        descriptors."""
        store, descs = _env(shards=1, descriptors=300)
        before = ShardedVerifierPool(store, shards=4)
        after = ShardedVerifierPool(store, shards=5)
        moved = sum(
            1
            for d in descs
            if rendezvous_shard(d.cookie_id, len(before.shards))
            != rendezvous_shard(d.cookie_id, len(after.shards))
        )
        assert moved / len(descs) < 0.35  # ~0.20 expected, bound loosely

    def test_validation(self):
        store, _descs = _env()
        with pytest.raises(ValueError):
            ShardedVerifierPool(store, shards=0)


class TestNaivePool:
    def test_double_spend_demonstrated(self):
        """Round-robin dispatch grants the SAME cookie once per shard —
        the digital-cash double-spend the paper warns about."""
        store, descs = _env()
        shards = 4
        pool = NaiveVerifierPool(store, shards=shards)
        cookie = CookieGenerator(descs[0], clock=lambda: 0.0).generate()
        grants = sum(
            1 for _ in range(shards * 3) if pool.match(cookie, now=0.0) is not None
        )
        assert grants == shards  # spent once per independent cache

    def test_single_shard_is_safe(self):
        """With one box the naive pool degenerates to the safe case."""
        store, descs = _env()
        pool = NaiveVerifierPool(store, shards=1)
        cookie = CookieGenerator(descs[0], clock=lambda: 0.0).generate()
        grants = sum(1 for _ in range(5) if pool.match(cookie, now=0.0))
        assert grants == 1


class TestShardedReplayCache:
    """Replay state in a sharded deployment is one :class:`ReplayCache`
    per :class:`ShardedVerifierPool` shard, reached by descriptor
    affinity — nothing is shared and there is no facade over them."""

    @staticmethod
    def _pool(shards):
        env = _Env()
        return env, ShardedVerifierPool(env.store, shards=shards)

    @settings(max_examples=60, deadline=None)
    @given(cookie_id=st.integers(0, 2**64 - 1), shards=st.integers(1, 8))
    def test_shard_for_stable_and_in_range(self, cookie_id, shards):
        _, pool = self._pool(shards)
        cookie = Cookie(cookie_id, _uuid(1), NOW, b"\x00" * SIGNATURE_BYTES)
        index = pool.shard_for(cookie)
        assert 0 <= index < shards
        assert pool.shard_for(cookie) == index
        assert index == rendezvous_shard(cookie_id, shards)

    def test_rotation_is_per_shard(self):
        """Traffic that only touches one shard must not rotate others."""
        env, pool = self._pool(4)
        descriptor = env.active[0]
        for tag, now in enumerate((NOW, NOW + 2 * NCT + 1.0)):
            assert pool.match(_signed(descriptor, _uuid(tag), now), now)
        busy = rendezvous_shard(descriptor.cookie_id, len(pool.shards))
        assert [bool(m.replay_cache.rotations) for m in pool.shards] == [
            index == busy for index in range(4)
        ]


class TestVerifierPoolBatch:
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
