"""The two rungs of :class:`ProcessShardExecutor` (PROTOCOL.md §12):
shm rings, then in-process.

Covers what the differential and resilience suites (which run on the
rings) do not pin directly: the deterministic SIGKILL *between* a
request's ring write and its response read, an oversize dispatch going
out in slices, the in-process degrade mode behind :meth:`auto` (one
core, no shared memory), what a failed ``Process.start`` — at spawn or
at a respawn — and a closed executor leave behind in ``/dev/shm``, and
the retire-on-reap of the polled replay-cache counters.
"""

import glob
import multiprocessing.process
import os
import signal

import pytest

from repro.core.descriptor import CookieDescriptor
from repro.core.generator import CookieGenerator
from repro.core.parallel import ProcessShardExecutor
from repro.core.resilience import RetryPolicy
from repro.core.shm_ring import RingUnavailable, ShmRing
from repro.core.store import DescriptorStore
from repro.telemetry import MetricsRegistry

NOW = 100.0


def _env(descriptors=8):
    store = DescriptorStore()
    generators = [
        CookieGenerator(
            store.add(CookieDescriptor.create(service_data=f"svc{i}")),
            clock=lambda: NOW,
        )
        for i in range(descriptors)
    ]
    return store, generators


def _batch(generators, n):
    return [generators[i % len(generators)].generate() for i in range(n)]


def _segments():
    return set(glob.glob("/dev/shm/nnn-ring-*"))


def _fast_pool(store, workers=1, max_restarts=2, **kw):
    kw.setdefault("reply_timeout", 10.0)
    return ProcessShardExecutor(
        store,
        workers=workers,
        max_restarts=max_restarts,
        restart_backoff=RetryPolicy(
            max_attempts=max_restarts + 1, base_delay=0.01,
            max_delay=0.05, jitter=0.0,
        ),
        **kw,
    )


class TestKillMidRingTransaction:
    def test_sigkill_between_ring_write_and_response_read(self):
        """The satellite drill, fully deterministic: the worker is
        SIGSTOPped so it provably never reads the request, the request
        is published into the ring, and only then is the worker
        SIGKILLed.  The dispatcher must take the existing dead-shard
        path — EOF where the doorbell should be, restart, re-dispatch
        once on the replacement's fresh ring — and return a full verdict
        array, never hang."""
        store, generators = _env()
        with _fast_pool(store, workers=1) as pool:
            assert pool.shard_transports() == ["shm"]
            victim = pool.worker_pids()[0]
            os.kill(victim, signal.SIGSTOP)

            published = []
            original = pool._send_sub_batch

            def send_then_kill(shard, frame):
                sent = original(shard, frame)
                published.append(sent)
                if len(published) == 1:  # one-shot: spare the replacement
                    os.kill(victim, signal.SIGKILL)
                    pool.worker_process(shard).join(timeout=5.0)
                return sent

            pool._send_sub_batch = send_then_kill
            try:
                batch = _batch(generators, 16)
                reasons: list[str] = []
                verdicts = pool.match_batch(batch, NOW, reasons=reasons)
            finally:
                pool._send_sub_batch = original
            # The request really did go out on the ring before the kill,
            # and the re-dispatch on the replacement's ring.
            assert published == [True, True]
            assert pool.shm_stats.ring_dispatches == 2
            # ...and the sub-batch still completed via restart+redispatch.
            assert all(v is not None for v in verdicts)
            assert reasons == ["accepted"] * len(batch)
            assert pool.stats.shard_restarts == 1
            assert pool.stats.unavailable_verdicts == 0
            # Counted once, from the reply that was decoded.
            assert pool.collect_match_stats().accepted == len(batch)
            # The replacement worker got fresh rings and keeps serving.
            assert pool.shard_transports() == ["shm"]
            again = pool.match_batch(_batch(generators, 8), NOW)
            assert all(v is not None for v in again)

    def test_sigkill_while_awaiting_ring_response(self):
        """Same window, other side: the worker dies while the
        dispatcher waits for its doorbell.  EOF on the pipe ends the
        wait instead of the full reply timeout."""
        store, generators = _env()
        with _fast_pool(store, workers=1, reply_timeout=30.0) as pool:
            victim = pool.worker_pids()[0]
            os.kill(victim, signal.SIGSTOP)
            original = pool._collect_sub_batch
            collected = []

            def kill_then_collect(shard):
                collected.append(shard)
                if len(collected) == 1:  # one-shot: spare the replacement
                    os.kill(victim, signal.SIGKILL)
                    pool.worker_process(shard).join(timeout=5.0)
                return original(shard)

            pool._collect_sub_batch = kill_then_collect
            try:
                import time

                start = time.monotonic()
                verdicts = pool.match_batch(_batch(generators, 8), NOW)
                elapsed = time.monotonic() - start
            finally:
                pool._collect_sub_batch = original
            assert all(v is not None for v in verdicts)
            assert pool.stats.shard_restarts == 1
            # Well under the 30s reply timeout: EOF ended the wait.
            assert elapsed < 15.0
            # The re-dispatch travelled the replacement's fresh ring.
            assert collected == [0, 0]
            assert pool.shm_stats.ring_dispatches == 2


class TestTransportLadder:
    def test_ring_setup_failure_serves_in_process(self, monkeypatch):
        """Rings cannot be made: a worker has no wire, so the executor
        refuses to start and :meth:`auto` serves in-process."""
        import repro.core.parallel as parallel

        def refuse(**_kwargs):
            raise RingUnavailable("no shared memory for the test")

        monkeypatch.setattr(ShmRing, "create", refuse)
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 8)
        store, generators = _env()
        with pytest.raises(RingUnavailable):
            ProcessShardExecutor(store, workers=2)
        with ProcessShardExecutor.auto(store, workers=2) as pool:
            assert pool.degraded is True
            assert pool.transport == "in-process"
            assert pool.worker_pids() == [None, None]
            verdicts = pool.match_batch(_batch(generators, 16), NOW)
            assert all(v is not None for v in verdicts)

    def test_only_two_transports(self):
        store, _generators = _env()
        for transport in ("auto", "process", "SHM"):
            with pytest.raises(ValueError, match="transport"):
                ProcessShardExecutor(store, workers=1, transport=transport)

    def test_oversize_dispatch_goes_out_in_slices(self, monkeypatch):
        """A dispatch of more cookies than one ring slot holds goes out
        as consecutive slices — same verdicts, reasons and per-shard
        tallies as one unsliced dispatch, replays across a slice
        boundary included."""
        import repro.core.parallel as parallel

        store, generators = _env()
        batch = _batch(generators, 12)
        # Cookies 12..18 replay cookies 0..6, always from another slice.
        stream = batch + batch[:7]
        expected_reasons: list[str] = []
        with ProcessShardExecutor(
            store, workers=2, transport="in-process"
        ) as reference:
            expected = reference.match_batch(
                stream, NOW, reasons=expected_reasons
            )
        monkeypatch.setattr(parallel, "_FRAME_COOKIES", 5)
        with _fast_pool(store, workers=2) as pool:
            reasons: list[str] = []
            verdicts = pool.match_batch(stream, NOW, reasons=reasons)
            assert verdicts == expected
            assert reasons == expected_reasons
            assert reasons == ["accepted"] * 12 + ["replayed"] * 7
            assert pool.match_stats == reference.match_stats
            assert pool.stats.shard_restarts == 0
            assert pool.shm_stats.ring_dispatches == sum(
                len({pool.shard_for(c) for c in stream[i : i + 5]})
                for i in range(0, len(stream), 5)
            )


class TestDegradeMode:
    def test_auto_degrades_below_two_cores(self, monkeypatch):
        import repro.core.parallel as parallel

        store, generators = _env()
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 1)
        with ProcessShardExecutor.auto(store, workers=4) as pool:
            assert pool.degraded is True
            assert pool.transport == "in-process"
            assert pool.worker_pids() == [None] * 4
            verdicts = pool.match_batch(_batch(generators, 32), NOW)
            assert all(v is not None for v in verdicts)

    def test_auto_spawns_workers_with_enough_cores(self, monkeypatch):
        import repro.core.parallel as parallel

        store, _generators = _env()
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 8)
        with ProcessShardExecutor.auto(store, workers=2) as pool:
            assert pool.degraded is False
            assert all(pid is not None for pid in pool.worker_pids())

    def test_degrade_mode_is_a_configuration_not_a_failure(self):
        """Degrade-mode shards are in-process by design: no fallback
        counters, no fallback shards, empty ladder telemetry."""
        store, generators = _env()
        registry = MetricsRegistry()
        with ProcessShardExecutor(
            store, workers=2, transport="in-process"
        ) as pool:
            pool.register_telemetry(registry)
            pool.register_transport_telemetry(registry)
            batch = _batch(generators, 16)
            verdicts = pool.match_batch(batch + [batch[0]], NOW)
            assert [v is not None for v in verdicts] == [True] * 16 + [False]
            assert pool.stats.fallbacks == 0
            assert pool.fallback_shards == []
            snapshot = registry.snapshot()
            assert snapshot.counters["pool.fallbacks"] == 0
            assert snapshot.gauges["pool.fallback_shards"] == 0
            assert snapshot.gauges["pool.shm.degraded"] == 1
            assert snapshot.counters["pool.accepted"] == 16

    def test_degrade_mode_matches_in_process_pool_verdicts(self):
        from repro.core.distributed import ShardedVerifierPool

        pool_store, pool_generators = _env()
        degraded_store, degraded_generators = _env()
        pool_batch = _batch(pool_generators, 24)
        degraded_batch = _batch(degraded_generators, 24)
        pool = ShardedVerifierPool(pool_store, shards=2)
        expected = pool.match_batch(pool_batch + pool_batch[:4], NOW)
        with ProcessShardExecutor(
            degraded_store, workers=2, transport="in-process"
        ) as degraded:
            got = degraded.match_batch(
                degraded_batch + degraded_batch[:4], NOW
            )
        assert [v is not None for v in got] == [
            v is not None for v in expected
        ]


class TestNothingLeftBehind:
    @pytest.mark.contract
    def test_failed_process_start_releases_rings_and_pipes(self, monkeypatch):
        """``Process.start`` raising (EAGAIN) is the case ``auto()``
        catches to degrade in-process; the shard's two ring segments and
        its pipe ends, created before the failed start, must not be
        orphaned by it."""
        import repro.core.parallel as parallel

        def refuse(self):
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        store, generators = _env()
        before = _segments()
        with ProcessShardExecutor.auto(store, workers=2) as pool:
            assert pool.degraded is True
            assert _segments() == before
            verdicts = pool.match_batch(_batch(generators, 8), NOW)
            assert all(v is not None for v in verdicts)
        assert _segments() == before

    @pytest.mark.contract
    def test_closed_executor_stays_closed(self):
        """After ``close()`` a dispatch or a delta raises instead of
        "restarting" shard 0 into a worker and two segments nobody will
        release; stats and telemetry answer from what the dispatcher
        holds, without touching a worker."""
        store, generators = _env()
        registry = MetricsRegistry()
        before = _segments()
        pool = _fast_pool(store, workers=1)
        pool.register_telemetry(registry)
        pool.match_batch(_batch(generators, 8), NOW)
        pids = pool.worker_pids()
        pool.close()
        assert _segments() == before
        with pytest.raises(RuntimeError, match="executor is closed"):
            pool.match_batch(_batch(generators, 1), NOW)
        with pytest.raises(RuntimeError, match="executor is closed"):
            pool.revoke(generators[0].descriptor.cookie_id)
        assert not generators[0].descriptor.revoked
        assert pool.collect_match_stats().accepted == 8
        assert registry.snapshot().counters["pool.matcher.accepted"] == 8
        pool.close()
        assert pool.worker_pids() == pids
        assert not pool.worker_process(0).is_alive()
        assert pool.stats.shard_restarts == 0
        assert _segments() == before

    @pytest.mark.contract
    @pytest.mark.parametrize("entry", ["dispatch", "revoke", "snapshot"])
    def test_respawn_that_cannot_start_falls_back(self, monkeypatch, entry):
        """PROTOCOL §11: no call raises because a worker died, also when
        its replacement cannot start.  ``Process.start`` raising (EAGAIN)
        at the respawn — reached from a dispatch, a delta or a telemetry
        snapshot — retires the shard to the in-process fallback matcher;
        the replacement's rings and pipe end, made before the failed
        start, are released."""

        def refuse(self):
            raise OSError(11, "Resource temporarily unavailable")

        store, generators = _env()
        # Signed up front: a generator will not sign a revoked descriptor.
        later = [generators[0].generate(), generators[1].generate()]
        registry = MetricsRegistry()
        before = _segments()
        with _fast_pool(store, workers=1) as pool:
            pool.register_telemetry(registry)
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            pool.worker_process(0).join(timeout=5.0)
            monkeypatch.setattr(
                multiprocessing.process.BaseProcess, "start", refuse
            )
            if entry == "dispatch":
                reasons: list[str] = []
                pool.match_batch(_batch(generators, 8), NOW, reasons=reasons)
                assert reasons == ["accepted"] * 8
            elif entry == "revoke":
                assert pool.revoke(generators[0].descriptor.cookie_id)
            else:
                assert registry.snapshot().counters["pool.fallbacks"] == 1
            assert pool.fallback_shards == [0]
            assert pool.stats.fallbacks == 1
            assert pool.stats.shard_restarts == 0
            assert pool.worker_pids() == [None]
            assert _segments() == before
            # The fallback matcher serves, revocation included.
            reasons = []
            pool.match_batch(later, NOW, reasons=reasons)
            first = "revoked" if entry == "revoke" else "accepted"
            assert reasons == [first, "accepted"]
        assert _segments() == before


class TestPolledCacheCounters:
    def test_rotations_monotonic_across_restart(self):
        """The replay-cache counters are the one thing still polled: a
        snapshot that finds the worker dead restarts it there and then,
        and the dead incarnation's last-polled rotations are retired
        exactly once — merged telemetry never runs backwards."""
        store, generators = _env()
        registry = MetricsRegistry()
        rotations = "pool.matcher.replay_cache.rotations"
        with _fast_pool(store, workers=2) as pool:
            pool.register_telemetry(registry)
            batch = _batch(generators, 16)
            pool.match_batch(batch, NOW)
            # The cookies are stamped NOW=100, which moves a cache out of
            # generation 0, so the victim has a rotation to lose.
            victim = pool.shard_for(batch[0])
            polled = registry.snapshot().counters[rotations]
            assert polled >= 1
            os.kill(pool.worker_pids()[victim], signal.SIGKILL)
            pool.worker_process(victim).join(timeout=5.0)
            tripped = registry.snapshot()
            assert pool.stats.shard_restarts == 1
            assert tripped.counters[rotations] == polled
            # The match counters never depended on the poll.
            assert tripped.counters["pool.matcher.accepted"] == 16
            # Retired once, not once per snapshot.
            assert registry.snapshot().counters[rotations] == polled
