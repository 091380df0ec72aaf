"""ProcessShardExecutor under worker death: the full recovery ladder.

Rungs, in order: restart the dead worker with backoff; a shard that
dies *again* during the same dispatch fails its sub-batch closed
(``verifier_unavailable`` — a dispatcher-level reason, never a wire
code); a shard that exhausts ``max_restarts`` is permanently served by
an in-process fallback matcher.  Dispatch never raises and never
returns a short verdict array, no matter when workers die.
"""

import os
import signal

import pytest

from repro.core.descriptor import CookieDescriptor
from repro.core.generator import CookieGenerator
from repro.core.parallel import (
    VERDICT_REASONS,
    VERDICT_UNAVAILABLE,
    ProcessShardExecutor,
    decode_verdicts,
    encode_verdicts,
)
from repro.core.resilience import RetryPolicy
from repro.core.store import DescriptorStore
from repro.telemetry import MetricsRegistry

NOW = 100.0


def _env(descriptors=16):
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


def _fast_pool(store, workers=2, max_restarts=2, **kw):
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


class TestKillRecovery:
    def test_three_sigkills_walk_the_whole_ladder(self):
        """Kill a worker before three separate dispatches: two bounded
        restarts, then permanent fallback — with a full, correct verdict
        array from every dispatch."""
        store, generators = _env()
        sleeps = []
        with _fast_pool(store, sleep=sleeps.append) as pool:
            for round_index in range(6):
                if round_index < 3:
                    victim_pid = pool.worker_pids()[0]
                    if victim_pid is not None:
                        os.kill(victim_pid, signal.SIGKILL)
                batch = _batch(generators, 32)
                reasons: list[str] = []
                verdicts = pool.match_batch(batch, NOW, reasons=reasons)
                assert len(verdicts) == len(batch)
                assert len(reasons) == len(batch)
                # Every cookie is fresh and unique: all accepted even on
                # the dispatch where the shard was mid-recovery.
                assert all(v is not None for v in verdicts)
                assert set(reasons) == {"accepted"}
            assert pool.stats.shard_restarts == 2
            assert pool.stats.fallbacks == 1
            assert pool.fallback_shards == [0]
            # Backoff actually slept between restarts (injected sleep).
            assert len(sleeps) == 2
            assert all(s > 0 for s in sleeps)
            assert pool.health() == [True, True]
            # Three incarnations and a fallback matcher later, every
            # verdict handed out is still counted exactly once.
            assert pool.collect_match_stats().total == (
                pool.stats.accepted
                + pool.stats.rejected
                - pool.stats.unavailable_verdicts
            ) == 6 * 32

    def test_kill_between_dispatches_restarts_with_cold_cache(self):
        """A replay spanning a worker crash is re-granted (documented
        §10 cold-cache limitation) but dispatch itself never fails."""
        store, generators = _env(descriptors=4)
        with _fast_pool(store, workers=1) as pool:
            batch = _batch(generators, 8)
            first = pool.match_batch(batch, NOW)
            assert all(v is not None for v in first)
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            again = pool.match_batch(batch, NOW)
            assert len(again) == len(batch)
            assert pool.stats.shard_restarts == 1

    def test_fallback_served_batches_match_in_process_semantics(self):
        """Once every shard is in fallback, verdicts (including replay
        rejection) keep flowing from the dispatcher process."""
        store, generators = _env(descriptors=4)
        with _fast_pool(store, workers=1, max_restarts=0) as pool:
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            batch = _batch(generators, 6)
            reasons: list[str] = []
            verdicts = pool.match_batch(
                batch + [batch[0]], NOW, reasons=reasons
            )
            assert pool.fallback_shards == [0]
            assert [v is not None for v in verdicts] == [True] * 6 + [False]
            assert reasons == ["accepted"] * 6 + ["replayed"]


class TestFailClosed:
    def test_second_death_during_redispatch_fails_closed(self, monkeypatch):
        """Satellite: a shard that dies again during the post-restart
        re-dispatch yields ``verifier_unavailable`` for its sub-batch —
        not an exception, not a short array.  Both deaths are real: each
        incarnation is stopped before its sub-batch is published (so it
        provably never answers) and SIGKILLed right after."""
        store, generators = _env()
        with _fast_pool(store, workers=1, max_restarts=5) as pool:
            batch = _batch(generators, 12)
            original = pool._send_sub_batch

            def send_to_the_doomed(shard, frame):
                os.kill(pool.worker_pids()[shard], signal.SIGSTOP)
                channel = original(shard, frame)
                os.kill(pool.worker_pids()[shard], signal.SIGKILL)
                pool.worker_process(shard).join(timeout=5.0)
                return channel

            monkeypatch.setattr(pool, "_send_sub_batch", send_to_the_doomed)
            reasons: list[str] = []
            verdicts = pool.match_batch(batch, NOW, reasons=reasons)
            assert verdicts == [None] * len(batch)
            assert reasons == [VERDICT_UNAVAILABLE] * len(batch)
            assert pool.stats.unavailable_verdicts == len(batch)
            # One restart per death; nothing verified, nothing counted.
            assert pool.stats.shard_restarts == 2
            assert pool.collect_match_stats().total == 0
            monkeypatch.undo()
            assert all(v is not None for v in pool.match_batch(batch, NOW))

    @pytest.mark.parametrize(
        "garble",
        [
            lambda reply: reply[:-1],
            # Past the reply's 8-byte replay generation, one record less.
            lambda reply: reply[:8]
            + encode_verdicts(decode_verdicts(reply[8:])[:-1]),
        ],
        ids=["truncated", "one-verdict-short"],
    )
    def test_garbled_reply_costs_the_worker_a_restart(self, garble):
        """A reply that does not decode, or decodes to the wrong number
        of verdicts, comes from a worker we no longer trust: it is
        replaced like a dead one and the sub-batch re-dispatched; only
        the reply that was believed is counted."""
        store, generators = _env()
        with _fast_pool(store, workers=1) as pool:
            batch = _batch(generators, 12)
            original = pool._collect_sub_batch
            replies = []

            def collect_garbled_once(shard):
                replies.append(original(shard))
                return garble(replies[0]) if len(replies) == 1 else replies[-1]

            pool._collect_sub_batch = collect_garbled_once
            verdicts = pool.match_batch(batch, NOW)
            assert all(v is not None for v in verdicts)
            assert pool.stats.shard_restarts == 1
            assert pool.collect_match_stats().accepted == 12
            assert pool.collect_match_stats().total == 12

    def test_unavailable_is_not_a_wire_code(self):
        assert VERDICT_UNAVAILABLE not in VERDICT_REASONS


class TestHealthAndTelemetry:
    def test_probe_and_ensure_healthy(self):
        store, generators = _env()
        with _fast_pool(store, workers=2) as pool:
            assert pool.health() == [True, True]
            os.kill(pool.worker_pids()[1], signal.SIGKILL)
            # Probing never mutates; ensure_healthy repairs.
            assert pool.probe_shard(1) is False
            assert pool.ensure_healthy() == [True, True]
            assert pool.stats.shard_restarts == 1

    def test_fallback_counters_reach_telemetry(self):
        store, generators = _env()
        registry = MetricsRegistry()
        with _fast_pool(store, workers=1, max_restarts=0) as pool:
            pool.register_telemetry(registry)
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            pool.match_batch(_batch(generators, 8), NOW)
            snapshot = registry.snapshot()
            assert snapshot.counters["pool.fallbacks"] == 1
            assert snapshot.gauges["pool.fallback_shards"] == 1
            assert snapshot.counters["pool.shard_restarts"] == 0

    def test_worker_pids_reports_fallback_as_none(self):
        store, generators = _env()
        with _fast_pool(store, workers=1, max_restarts=0) as pool:
            assert pool.worker_pids()[0] is not None
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            pool.match_batch(_batch(generators, 4), NOW)
            assert pool.worker_pids() == [None]
