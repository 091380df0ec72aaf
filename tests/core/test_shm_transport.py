"""The shm transport ladder of :class:`ProcessShardExecutor`
(PROTOCOL.md §12): shm → pipe → in-process.

Covers what the differential and resilience suites (which now run on
the shm transport by default) do not pin directly: the deterministic
SIGKILL *between* a request's ring write and its response read, the
per-shard pipe fallbacks (ring setup failure, oversize frames), the
single-core in-process degrade mode behind :meth:`auto`, what a failed
``Process.start`` and a closed executor leave behind in ``/dev/shm``,
and the retire-on-reap of the polled replay-cache counters.
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
        path — liveness-abort the ring wait, restart, re-dispatch once
        on the replacement's fresh ring — and return a full verdict
        array, never hang."""
        store, generators = _env()
        with _fast_pool(store, workers=1) as pool:
            assert pool.shard_transports() == ["shm"]
            victim = pool.worker_pids()[0]
            os.kill(victim, signal.SIGSTOP)

            published = []
            original = pool._send_sub_batch

            def send_then_kill(shard, frame):
                channel = original(shard, frame)
                published.append(channel)
                if len(published) == 1:  # one-shot: spare the replacement
                    os.kill(victim, signal.SIGKILL)
                    pool.worker_process(shard).join(timeout=5.0)
                return channel

            pool._send_sub_batch = send_then_kill
            try:
                batch = _batch(generators, 16)
                reasons: list[str] = []
                verdicts = pool.match_batch(batch, NOW, reasons=reasons)
            finally:
                pool._send_sub_batch = original
            # The request really did go out on the ring before the kill,
            # and the re-dispatch on the replacement's ring, not the pipe.
            assert published == ["ring", "ring"]
            assert pool.shm_stats.ring_dispatches == 2
            assert pool.shm_stats.pipe_dispatches == 0
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
        dispatcher is already blocked in the response-ring pop.  The
        liveness hook aborts the wait instead of burning the full
        reply timeout."""
        store, generators = _env()
        with _fast_pool(store, workers=1, reply_timeout=30.0) as pool:
            victim = pool.worker_pids()[0]
            os.kill(victim, signal.SIGSTOP)
            original = pool._collect_sub_batch
            collected = []

            def kill_then_collect(shard, channel):
                collected.append(channel)
                if len(collected) == 1:  # one-shot: spare the replacement
                    os.kill(victim, signal.SIGKILL)
                    pool.worker_process(shard).join(timeout=5.0)
                return original(shard, channel)

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
            # Well under the 30s reply timeout: the abort hook fired.
            assert elapsed < 15.0
            # The re-dispatch travelled the replacement's fresh ring.
            assert collected == ["ring", "ring"]
            assert pool.shm_stats.ring_dispatches == 2
            assert pool.shm_stats.pipe_dispatches == 0


class TestTransportLadder:
    def test_forced_pipe_transport_still_verifies(self):
        store, generators = _env()
        with _fast_pool(store, workers=2, transport="pipe") as pool:
            assert pool.transport == "pipe"
            assert pool.shard_transports() == ["pipe", "pipe"]
            verdicts = pool.match_batch(_batch(generators, 32), NOW)
            assert all(v is not None for v in verdicts)
            assert pool.shm_stats.ring_dispatches == 0
            assert pool.shm_stats.pipe_dispatches > 0

    def test_ring_setup_failure_degrades_shard_to_pipe(self, monkeypatch):
        """Rung two of the ladder: shared memory unavailable at spawn —
        the shard silently runs on the pipe transport instead."""
        def refuse(**_kwargs):
            raise RingUnavailable("no shared memory for the test")

        monkeypatch.setattr(ShmRing, "create", refuse)
        store, generators = _env()
        with _fast_pool(store, workers=2) as pool:
            assert pool.transport == "pipe"
            assert pool.shm_stats.ring_setup_failures == 2
            verdicts = pool.match_batch(_batch(generators, 16), NOW)
            assert all(v is not None for v in verdicts)

    def test_oversize_frame_falls_back_to_pipe_per_dispatch(self, monkeypatch):
        """A frame too large for a ring slot travels the pipe for that
        dispatch only — never fragmented, never an error — and small
        frames keep using the ring."""
        import repro.core.parallel as parallel

        monkeypatch.setattr(parallel, "DEFAULT_SLOT_BYTES", 256)
        store, generators = _env()
        with _fast_pool(store, workers=1) as pool:
            assert pool.shard_transports() == ["shm"]
            small = pool.match_batch(_batch(generators, 4), NOW)  # 205 B
            big = pool.match_batch(_batch(generators, 64), NOW)  # ~3 KB
            assert all(v is not None for v in small + big)
            assert pool.shm_stats.ring_dispatches == 1
            assert pool.shm_stats.oversize_pipe_fallbacks == 1
            assert pool.shm_stats.pipe_dispatches == 1
            # Still an shm shard: the fallback was per-dispatch.
            assert pool.shard_transports() == ["shm"]


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
            # A cache's first check at NOW=100 rotates out of the epoch-0
            # generation, so the victim has a rotation to lose.
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
