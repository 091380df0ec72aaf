"""Both ends of :class:`ProcessShardExecutor` wait in the kernel
(PROTOCOL.md §12's doorbell rule).

A ring frame is announced by a one-byte doorbell on the shard's pipe,
and each side blocks on that pipe until the other rings.  Pinned here:
an idle worker burns no CPU and a dispatch costs the dispatcher a
handful of voluntary context switches, not a sleep loop's worth; and a
doorbell that lies (nothing in the ring) or never comes (a stopped
worker) is a dead shard — restarted, the sub-batch re-dispatched, every
cookie answered.
"""

import os
import resource
import signal
import time

import pytest

import repro.core.parallel as parallel

from .test_shm_transport import NOW, _batch, _env, _fast_pool

BATCH = 2_048
DISPATCHES = 12


def _cpu_seconds(pid: int) -> float:
    """utime + stime of ``pid`` from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


@pytest.mark.contract
@pytest.mark.skipif(
    not os.path.exists("/proc/self/stat"), reason="needs Linux /proc"
)
def test_an_idle_pool_costs_nothing():
    """After a dispatch the worker sleeps in ``recv`` until the next
    doorbell: < 20 ms of CPU over a 2 s idle window (a 1 ms poll loop
    burns ~60).  And the dispatcher waits for each reply blocked on the
    pipe: ≤ 4 voluntary context switches per 2048-cookie dispatch (a
    sleep-quantum loop takes ~40)."""
    store, generators = _env()
    batches = [_batch(generators, BATCH) for _ in range(DISPATCHES)]
    with _fast_pool(store) as pool:
        assert pool.shard_transports() == ["shm"]
        assert all(v is not None for v in pool.match_batch(batches[0], NOW))
        worker = pool.worker_pids()[0]
        before = _cpu_seconds(worker)
        time.sleep(2.0)
        assert _cpu_seconds(worker) - before < 0.020

        switches = resource.getrusage(resource.RUSAGE_SELF).ru_nvcsw
        for batch in batches[1:] + [_batch(generators, BATCH)]:
            pool.match_batch(batch, NOW)
        switches = resource.getrusage(resource.RUSAGE_SELF).ru_nvcsw - switches
        assert switches <= 4 * DISPATCHES
        assert pool.stats.accepted == (DISPATCHES + 1) * BATCH


class TestBrokenDoorbell:
    @pytest.mark.contract
    def test_doorbell_on_an_empty_ring_restarts_the_shard(self, monkeypatch):
        """A doorbell with nothing behind it is a malformed frame: the
        worker exits, the dispatcher reads EOF, and the sub-batch goes
        out once more on the replacement's fresh ring."""
        store, generators = _env()
        with _fast_pool(store) as pool:
            original = pool._send_sub_batch
            sent = []

            def ring_an_empty_ring(shard, frame):
                sent.append(shard)
                if len(sent) == 1:  # one-shot: spare the replacement
                    pool._conns[shard].send_bytes(parallel._OP_RING)
                    return "ring"
                return original(shard, frame)

            monkeypatch.setattr(pool, "_send_sub_batch", ring_an_empty_ring)
            batch = _batch(generators, 64)
            reasons: list[str] = []
            verdicts = pool.match_batch(batch, NOW, reasons=reasons)
            assert all(v is not None for v in verdicts)
            assert reasons == ["accepted"] * len(batch)
            assert pool.stats.shard_restarts == 1
            assert pool.stats.unavailable_verdicts == 0
            assert pool.shm_stats.ring_dispatches == 1
            assert pool.collect_match_stats().accepted == len(batch)

    @pytest.mark.contract
    def test_reply_doorbell_that_never_comes_restarts_the_shard(self):
        """A stopped worker never rings back: the dispatcher gives up
        after ``reply_timeout``, replaces the worker (SIGKILL reaches a
        stopped process) and re-dispatches — a full verdict array, no
        cookie left unavailable."""
        store, generators = _env()
        with _fast_pool(store, reply_timeout=0.5) as pool:
            os.kill(pool.worker_pids()[0], signal.SIGSTOP)
            batch = _batch(generators, 64)
            reasons: list[str] = []
            verdicts = pool.match_batch(batch, NOW, reasons=reasons)
            assert all(v is not None for v in verdicts)
            assert reasons == ["accepted"] * len(batch)
            assert pool.stats.shard_restarts == 1
            assert pool.stats.unavailable_verdicts == 0
            assert pool.shm_stats.ring_dispatches == 2
            assert pool.shard_transports() == ["shm"]
