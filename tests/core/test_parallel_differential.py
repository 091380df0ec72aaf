"""Differential tests: the multi-process executor against the in-process
pool and the scalar matcher.

One adversarial cookie (:mod:`.cookie_stream`)
stream (replays, NCT-straddling timestamps, forged signatures, unknown /
revoked / expired descriptors) is driven through three verifiers built
over equivalent stores, and the :class:`ProcessShardExecutor` must be
observationally identical to the in-process
:class:`ShardedVerifierPool` — verdicts by position (the *same*
descriptor objects, resolved from the dispatcher's store),
:class:`PoolStats`, merged per-shard :class:`MatchStats`, and telemetry
snapshots.  On top of the healthy-path equivalence, the failure model of
PROTOCOL.md §10 is pinned directly: a killed worker restarts cold
without deadlocking a dispatch, ``shard_restarts`` counts it, the
restarted shard's replay window provably starts empty, and descriptor
deltas reach every worker.
"""

import math
import os
import signal
import struct

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.cookie import SIGNATURE_BYTES, Cookie
from repro.core.distributed import ShardedVerifierPool
from repro.core.matcher import CookieMatcher
from repro.core.parallel import (
    VERDICT_ACCEPTED,
    VERDICT_CODES,
    VERDICT_REASONS,
    ProcessShardExecutor,
    batch_reply,
    decode_batch,
    decode_verdicts,
    encode_batch,
    encode_verdicts,
)
from repro.telemetry import MetricsRegistry

from .cookie_stream import (
    BIRTHS,
    NCT,
    NOW,
    _cache_state,
    _born,
    _Env,
    _materialize,
    _signed,
    _uuid,
    batch_specs,
)
from .test_parallel_codec import _verdict_frame, _worker_frame

WORKERS = 2
#: Each example forks WORKERS processes; keep the example budget modest.
EXAMPLES = 12


def _shard_stats(pool: ShardedVerifierPool) -> dict:
    merged: dict = {}
    for shard in pool.shards:
        for key, value in shard.stats.as_dict().items():
            merged[key] = merged.get(key, 0) + value
    return merged


class TestExecutorDifferential:
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(specs=batch_specs())
    def test_batch_verdicts_equal_in_process_and_scalar(self, specs):
        env = _Env()
        cookies = _materialize(env, specs)
        scalar = CookieMatcher(env.store)
        pool = ShardedVerifierPool(env.store, shards=WORKERS)
        scalar_verdicts = [scalar.match(c, NOW) for c in cookies]
        pool_verdicts = pool.match_batch(cookies, NOW)
        with ProcessShardExecutor(env.store, workers=WORKERS) as executor:
            executor_verdicts = executor.match_batch(cookies, NOW)
        # Accepted verdicts resolve against the dispatcher's own store,
        # so equality here is object identity with the scalar path.
        assert executor_verdicts == pool_verdicts == scalar_verdicts

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(specs=batch_specs())
    def test_pool_stats_and_match_stats_equal_in_process(self, specs):
        env = _Env()
        cookies = _materialize(env, specs)
        pool = ShardedVerifierPool(env.store, shards=WORKERS)
        pool.match_batch(cookies, NOW)
        with ProcessShardExecutor(env.store, workers=WORKERS) as executor:
            executor.match_batch(cookies, NOW)
            assert (
                executor.stats.accepted,
                executor.stats.rejected,
                executor.stats.shard_restarts,
            ) == (pool.stats.accepted, pool.stats.rejected, 0)
            # The dispatcher's per-shard tallies equal the in-process
            # pool's per-shard matcher stats, shard by shard and merged:
            # affinity routed the same cookies to the same shard indices.
            assert executor.match_stats == [s.stats for s in pool.shards]
            merged = executor.collect_match_stats()
            assert merged.as_dict() == _shard_stats(pool)
            # Every cookie dispatched was counted by exactly one matcher.
            assert merged.total == (
                executor.stats.accepted
                + executor.stats.rejected
                - executor.stats.unavailable_verdicts
            )

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(specs=batch_specs())
    def test_merged_telemetry_equal_in_process(self, specs):
        env = _Env()
        cookies = _materialize(env, specs)
        pool = ShardedVerifierPool(env.store, shards=WORKERS)
        pool.match_batch(cookies, NOW)
        pool_registry = MetricsRegistry()
        pool.register_telemetry(pool_registry, prefix="pool")
        with ProcessShardExecutor(env.store, workers=WORKERS) as executor:
            executor.match_batch(cookies, NOW)
            executor_registry = MetricsRegistry()
            executor.register_telemetry(executor_registry, prefix="pool")
            executor_snapshot = executor_registry.snapshot()
        pool_snapshot = pool_registry.snapshot()
        assert executor_snapshot.counters == pool_snapshot.counters
        assert executor_snapshot.gauges == pool_snapshot.gauges

    @settings(max_examples=8, deadline=None)
    @given(specs=batch_specs(max_size=12))
    def test_scalar_match_equals_in_process(self, specs):
        """The executor's ``match`` (a batch of one over the same wire)
        agrees with the in-process pool cookie by cookie — including
        replay rejections that depend on all earlier calls."""
        env = _Env()
        cookies = _materialize(env, specs)
        pool = ShardedVerifierPool(env.store, shards=WORKERS)
        with ProcessShardExecutor(env.store, workers=WORKERS) as executor:
            for cookie in cookies:
                assert executor.match(cookie, NOW) == pool.match(cookie, NOW)
            assert executor.shard_count == pool.shard_count
            for cookie in cookies:
                assert executor.shard_for(cookie) == pool.shard_for(cookie)

    def test_nct_boundary_bit_exact(self):
        """Timestamps exactly at ±NCT are accepted, and so is the float
        one ulp beyond: a cookie carries whole microseconds, so that
        float is stamped *on* the edge.  The first timestamp a cookie
        can be stale with is one microsecond out — for every birth, and
        whoever verifies it: a pool worker's in-place path, or the
        in-process matcher a crashed shard falls back to."""
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
            frame = _worker_frame(encode_batch(cookies()))
            return [
                env.store.get(cookie_id) if code == 0 else None
                for code, cookie_id in decode_verdicts(
                    _verdict_frame(batch_reply(matcher, frame))
                )
            ]

        for birth in BIRTHS:
            wire = CookieMatcher(env.store)
            assert worker(wire) == expected, birth
            with ProcessShardExecutor(
                env.store, workers=2, transport="in-process"
            ) as fallback:
                assert fallback.shard_transports() == ["in-process"] * 2
                assert fallback.match_batch(cookies(), NOW) == expected, birth
            assert (
                wire.stats.as_dict() == fallback.collect_match_stats().as_dict()
            ), birth

    def test_a_clock_stepped_back_is_judged_at_the_latest_instant(self):
        """Ids 1 and 2 land on different shards of two; only the first
        shard reads t=200, but the pool judges the second shard's cookie
        at 200 too, as the in-process pool does: stale."""
        from repro.core import CookieDescriptor, CookieGenerator, DescriptorStore

        store = DescriptorStore()
        first, second = (
            store.add(CookieDescriptor.create(service_data="svc", cookie_id=i))
            for i in (1, 2)
        )
        late = CookieGenerator(first, clock=lambda: 200.0).generate()
        early = CookieGenerator(second, clock=lambda: 104.0).generate()
        pool = ShardedVerifierPool(store, 2)
        with ProcessShardExecutor(store, workers=2) as executor:
            for verifier in (pool, executor):
                assert verifier.shard_for(late) != verifier.shard_for(early)
                assert verifier.match_batch([late], 200.0) == [first]
                assert verifier.match_batch([early], 101.0) == [None]
            assert executor.collect_match_stats().stale_timestamp == 1

    def test_empty_batch(self):
        env = _Env()
        with ProcessShardExecutor(env.store, workers=WORKERS) as executor:
            assert executor.match_batch([], NOW) == []
            assert executor.stats.accepted == executor.stats.rejected == 0


#: What one wire cookie is, relative to its batch's ``now``: a freshness
#: offset inside the window, exactly on either NCT edge, or one wire
#: tick (1 µs) beyond it.
_WIRE_KINDS = (
    "valid",
    "valid",
    "edge",
    "bad_sig",
    "stale",
    "unknown",
    "revoked",
    "expired",
)
_MICRO = 1e-6

_WIRE_BATCHES = st.lists(
    st.tuples(
        # Seconds since the previous batch: 0 keeps the generation, the
        # middle values rotate it (window 2xNCT = 10 s), 31 jumps past
        # both generations.  The two odd-µs steps put ``now`` where
        # ``ts_micros / 1e6`` and ``ts_micros * 1e-6`` land on different
        # sides of the NCT edge: the wire path must judge the very float
        # a decoded cookie carries.
        st.sampled_from(
            [0.0, 0.000023, 0.5, 2.0, 3.141593, 4.5, 6.0, 10.0, 11.0, 31.0]
        ),
        st.lists(
            st.tuples(
                st.sampled_from(_WIRE_KINDS),
                st.integers(0, 3),  # descriptor
                # uuid tag: a small range, so replays are common both
                # inside a batch and across batches
                st.integers(0, 7),
                st.floats(-4.5, 4.5, allow_nan=False),
                st.sampled_from([-1, 1]),
                st.booleans(),
            ),
            max_size=24,
        ),
    ),
    min_size=2,
    max_size=5,
)


def _wire_cookie(env: _Env, now: float, spec) -> Cookie:
    kind, index, tag, offset, side, beyond = spec
    uuid = _uuid(tag)
    if kind == "unknown":
        return Cookie(
            cookie_id=env.unknown_id(tag),
            uuid=uuid,
            timestamp=now,
            signature=b"\x00" * SIGNATURE_BYTES,
        )
    descriptor = {"revoked": env.revoked, "expired": env.expired}.get(
        kind, env.active[index]
    )
    timestamp = now + offset
    if kind == "edge":
        timestamp = now + side * (NCT + (_MICRO if beyond else 0.0))
    elif kind == "stale":
        timestamp = now + side * (NCT + 1.0 + abs(offset))
    cookie = _signed(descriptor, uuid, timestamp)
    if kind == "bad_sig":
        cookie = Cookie(
            cookie_id=cookie.cookie_id,
            uuid=uuid,
            timestamp=timestamp,
            signature=bytes([cookie.signature[0] ^ 0xFF]) + cookie.signature[1:],
        )
    return cookie


@pytest.mark.contract
class TestWireDifferential:
    """The worker's in-place path against the reference codec + object
    path: ``batch_reply(frame)`` (header parse, ``match_wire``, verdict
    records packed as decided) must equal ``encode_verdicts`` over
    ``match_batch(decode_batch(frame), reasons=...)`` byte for byte, and
    leave the same :class:`MatchStats` and replay-cache state — over
    several batches at advancing ``now``, so cross-batch replays meet
    rotated and skipped generations."""

    @settings(max_examples=100, deadline=None)
    @given(batches=_WIRE_BATCHES)
    def test_match_wire_equals_object_path(self, batches):
        env = _Env()
        wire = CookieMatcher(env.store)
        objects = CookieMatcher(env.store)
        now = NOW
        for step, specs in batches:
            now += step
            blob = encode_batch([_wire_cookie(env, now, spec) for spec in specs])
            reply = batch_reply(wire, _worker_frame(blob, now))

            cookies = decode_batch(blob)
            reasons: list[str] = []
            objects.match_batch(cookies, now, reasons=reasons)
            expected = encode_verdicts(
                [
                    (
                        VERDICT_CODES[reason],
                        cookie.cookie_id if reason == "accepted" else 0,
                    )
                    for reason, cookie in zip(reasons, cookies)
                ]
            )
            generation = struct.pack("!q", objects.replay_cache.generation)
            assert reply == generation + expected
            assert wire.stats.as_dict() == objects.stats.as_dict()
            assert _cache_state(wire.replay_cache) == _cache_state(
                objects.replay_cache
            )

    def test_every_outcome_and_both_edges_in_one_run(self):
        """The deterministic floor under the property: one run that
        provably reaches all seven codes, accepts exactly-NCT on both
        sides, rejects one wire tick beyond, and catches a replay both
        inside a batch and across a rotation."""
        env = _Env()
        wire = CookieMatcher(env.store)
        first = [
            ("valid", 0, 1, 0.0, 1, False),
            ("valid", 0, 1, 1.0, 1, False),  # in-batch replay
            ("edge", 1, 2, 0.0, 1, False),
            ("edge", 1, 3, 0.0, -1, False),
            ("edge", 1, 4, 0.0, 1, True),
            ("edge", 1, 5, 0.0, -1, True),
            ("bad_sig", 2, 6, 0.0, 1, False),
            ("unknown", 0, 7, 0.0, 1, False),
            ("revoked", 0, 0, 0.0, 1, False),
            ("expired", 0, 0, 0.0, 1, False),
        ]
        second = [("valid", 0, 1, 0.0, 1, False)]  # cross-batch replay
        codes = []
        for now, specs in ((NOW, first), (NOW + 6.0, second)):
            blob = encode_batch([_wire_cookie(env, now, spec) for spec in specs])
            reply = batch_reply(wire, _worker_frame(blob, now))
            codes.append([reply[12 + 9 * i] for i in range(len(specs))])
        names = [[VERDICT_REASONS[code] for code in batch] for batch in codes]
        assert names == [
            [
                "accepted",
                "replayed",
                "accepted",
                "accepted",
                "stale_timestamp",
                "stale_timestamp",
                "bad_signature",
                "unknown_id",
                "revoked",
                "expired",
            ],
            ["replayed"],
        ]
        assert codes[0][0] == VERDICT_ACCEPTED
        assert wire.stats.total == 11


class TestWorkerFailureModel:
    def test_truncated_batch_frame_exits_the_worker_cleanly(self):
        """PROTOCOL.md §10: a worker that receives a malformed frame
        *exits* (fail closed) — the documented ``MalformedCookie`` exit,
        status 0, not an uncaught ``struct.error`` traceback — and the
        next dispatch restarts the shard."""
        env = _Env()
        descriptor = env.active[0]
        with ProcessShardExecutor(
            env.store, workers=1, reply_timeout=10.0
        ) as executor:
            worker = executor.worker_process(0)
            executor._conns[0].send_bytes(b"B\x00\x00")
            worker.join(timeout=10.0)
            assert not worker.is_alive()
            assert worker.exitcode == 0
            cookie = _signed(descriptor, _uuid(1), NOW)
            assert executor.match(cookie, NOW) is descriptor
            assert executor.stats.shard_restarts == 1


    def test_kill_worker_mid_run_restarts_and_completes(self):
        """The acceptance scenario: SIGKILL a worker between dispatches;
        the next batch touching its shard must complete (no deadlock),
        restart the shard, count it, and still verify every cookie."""
        env = _Env()
        descriptor = env.active[0]
        with ProcessShardExecutor(
            env.store, workers=WORKERS, reply_timeout=10.0
        ) as executor:
            warmup = _signed(descriptor, _uuid(1), NOW)
            assert executor.match(warmup, NOW) is descriptor
            victim = executor.shard_for(warmup)
            os.kill(executor.worker_process(victim).pid, signal.SIGKILL)
            executor.worker_process(victim).join(timeout=5.0)

            batch = [
                _signed(env.active[i % len(env.active)], _uuid(100 + i), NOW)
                for i in range(32)
            ]
            verdicts = executor.match_batch(batch, NOW)
            assert all(v is not None for v in verdicts)
            assert executor.stats.shard_restarts == 1
            assert executor.stats.accepted == 1 + len(batch)
            # The pool keeps working after recovery.
            assert executor.match(
                _signed(descriptor, _uuid(999), NOW), NOW
            ) is descriptor

    def test_replayed_uuid_across_worker_restart(self):
        """The documented trade-off, pinned from both sides: before a
        restart the shard rejects a replay; after a restart the cold
        cache accepts the same uuid once more (PROTOCOL.md §10's
        replay-window gap), then rejects it again."""
        env = _Env()
        descriptor = env.active[0]
        cookie = _signed(descriptor, _uuid(7), NOW)
        with ProcessShardExecutor(env.store, workers=WORKERS) as executor:
            assert executor.match(cookie, NOW) is descriptor
            assert executor.match(cookie, NOW + 1.0) is None  # replayed
            executor.restart_shard(executor.shard_for(cookie))
            assert executor.stats.shard_restarts == 1
            # Cold cache: the uuid's record died with the old worker.
            assert executor.match(cookie, NOW + 2.0) is descriptor
            assert executor.match(cookie, NOW + 3.0) is None

    @pytest.mark.contract
    def test_match_stats_exact_across_sigkill(self):
        """Match counters are counted where verdicts are decoded, so a
        worker SIGKILLed with *no* stats poll since its verdicts takes
        nothing with it — and reading them neither notices nor restarts
        the dead worker; the next dispatch does."""
        env = _Env()
        descriptor = env.active[0]
        with ProcessShardExecutor(env.store, workers=WORKERS) as executor:
            first = [_signed(descriptor, _uuid(10 + i), NOW) for i in range(5)]
            assert executor.match_batch(first, NOW) == [descriptor] * 5
            victim = executor.shard_for(first[0])
            os.kill(executor.worker_process(victim).pid, signal.SIGKILL)
            executor.worker_process(victim).join(timeout=5.0)
            assert executor.collect_match_stats().accepted == 5
            assert executor.stats.shard_restarts == 0
            second = [_signed(descriptor, _uuid(20 + i), NOW) for i in range(3)]
            assert executor.match_batch(second, NOW) == [descriptor] * 3
            assert executor.stats.shard_restarts == 1
            assert executor.collect_match_stats().accepted == 8
            assert executor.match_stats[victim].accepted == 8

    def test_restart_counter_in_telemetry(self):
        env = _Env()
        with ProcessShardExecutor(env.store, workers=WORKERS) as executor:
            registry = MetricsRegistry()
            executor.register_telemetry(registry, prefix="pool")
            executor.restart_shard(0)
            snapshot = registry.snapshot()
            assert snapshot.counters["pool.shard_restarts"] == 1
            assert snapshot.gauges["pool.shards"] == WORKERS

    def test_close_is_idempotent(self):
        env = _Env()
        executor = ProcessShardExecutor(env.store, workers=WORKERS)
        executor.close()
        executor.close()
        for index in range(WORKERS):
            assert not executor.worker_process(index).is_alive()


class TestDescriptorDeltas:
    def test_add_descriptor_reaches_every_worker(self):
        from repro.core.descriptor import CookieDescriptor

        env = _Env()
        with ProcessShardExecutor(env.store, workers=3) as executor:
            added = [
                executor.add(
                    CookieDescriptor.create(service_data=f"late-{i}")
                )
                for i in range(8)
            ]
            # 8 fresh ids across 3 shards: every worker verifies its own.
            for i, descriptor in enumerate(added):
                cookie = _signed(descriptor, _uuid(50 + i), NOW)
                assert executor.match(cookie, NOW) is descriptor

    def test_revocation_takes_effect_pool_wide(self):
        env = _Env()
        descriptor = env.active[2]
        with ProcessShardExecutor(env.store, workers=WORKERS) as executor:
            before = _signed(descriptor, _uuid(60), NOW)
            assert executor.match(before, NOW) is descriptor
            assert executor.revoke(descriptor.cookie_id)
            after = _signed(descriptor, _uuid(61), NOW)
            assert executor.match(after, NOW) is None
            assert executor.collect_match_stats().revoked == 1

    def test_remove_descriptor_pool_wide(self):
        env = _Env()
        descriptor = env.active[3]
        with ProcessShardExecutor(env.store, workers=WORKERS) as executor:
            removed = executor.remove(descriptor.cookie_id)
            assert removed is descriptor
            cookie = _signed(descriptor, _uuid(70), NOW)
            assert executor.match(cookie, NOW) is None
            assert executor.collect_match_stats().unknown_id == 1

    @staticmethod
    def _worker_verdict(pool, descriptor, tag):
        """(result, reason, the one worker's own tally) for a fresh cookie."""
        reasons: list[str] = []
        (result,) = pool.match_batch(
            [_signed(descriptor, _uuid(tag), NOW)], NOW, reasons
        )
        return result, reasons[0], pool.match_stats[0].as_dict()[reasons[0]]

    @pytest.mark.contract
    def test_attached_pool_follows_the_cookie_server(self):
        """The executor is attached where its store would be: a grant
        made after spawn verifies, and once the server revokes it the
        *worker* refuses the next cookie."""
        from repro.core.server import CookieServer, ServiceOffering
        from repro.core.store import DescriptorStore

        server = CookieServer(clock=lambda: NOW)
        server.offer(ServiceOffering(name="Boost"))
        with ProcessShardExecutor(DescriptorStore(), workers=1) as pool:
            server.attach_enforcement_store(pool)
            descriptor = server.acquire("alice", "Boost")
            assert len(pool) == 1 and descriptor.cookie_id in pool
            assert self._worker_verdict(pool, descriptor, 1) == (
                descriptor, "accepted", 1,
            )
            assert server.revoke(descriptor.cookie_id)
            assert self._worker_verdict(pool, descriptor, 2) == (
                None, "revoked", 1,
            )

    @pytest.mark.contract
    def test_attached_pool_follows_a_replica_and_its_partition(self):
        """Behind ``VerifierReplica(store=pool)`` the workers are as
        current — and, partitioned, as stale — as the replica (§14.3)."""
        from repro.core.cp import ShardedControlPlane, VerifierReplica
        from repro.core.server import ServiceOffering
        from repro.core.store import DescriptorStore

        with ShardedControlPlane(clock=lambda: NOW, shards=1) as controlplane, \
                ProcessShardExecutor(DescriptorStore(), workers=1) as pool:
            controlplane.offer(ServiceOffering(name="Boost"))
            replica = controlplane.register_replica(
                VerifierReplica("mb0", store=pool)
            )
            descriptor = controlplane.acquire("alice", "Boost")
            controlplane.sync_replicas()
            held = pool.get(descriptor.cookie_id)
            assert held == descriptor and held is not descriptor
            assert self._worker_verdict(pool, descriptor, 1) == (
                held, "accepted", 1,
            )
            replica.partition()
            assert controlplane.revoke(descriptor.cookie_id)
            # Cut off, the workers keep honouring what the shard revoked.
            assert self._worker_verdict(pool, descriptor, 2) == (
                held, "accepted", 2,
            )
            replica.heal()
            controlplane.sync_replicas()
            assert self._worker_verdict(pool, descriptor, 3) == (
                None, "revoked", 1,
            )
            assert list(pool) == [held] and held.revoked

    @settings(max_examples=6, deadline=None)
    @given(specs=batch_specs(max_size=10), shards=st.integers(1, 3))
    def test_delta_then_batch_equals_in_process(self, specs, shards):
        """A store mutated through the executor mid-stream stays
        equivalent to an in-process pool over an identically mutated
        store."""
        from repro.core.descriptor import CookieDescriptor

        pool_env = _Env()
        executor_env = _Env()
        cookies_pool = _materialize(pool_env, specs)
        cookies_executor = _materialize(executor_env, specs)
        pool = ShardedVerifierPool(pool_env.store, shards=shards)
        with ProcessShardExecutor(
            executor_env.store, workers=shards
        ) as executor:
            pool_verdicts = pool.match_batch(cookies_pool, NOW)
            executor_verdicts = executor.match_batch(cookies_executor, NOW)
            assert [v is not None for v in executor_verdicts] == [
                v is not None for v in pool_verdicts
            ]
            executor.revoke(executor_env.active[0].cookie_id)
            pool_env.active[0].revoke()
            probe_pool = _signed(pool_env.active[0], _uuid(90), NOW)
            probe_executor = _signed(executor_env.active[0], _uuid(90), NOW)
            assert pool.match(probe_pool, NOW) is None
            assert executor.match(probe_executor, NOW) is None
            late = CookieDescriptor.create(service_data="late")
            executor.add(late)
            assert executor.match(
                _signed(late, _uuid(91), NOW), NOW
            ) is late
