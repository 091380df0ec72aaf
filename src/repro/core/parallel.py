"""Multi-core verification data plane (§5's linear core scaling).

The paper's middlebox reaches 20.4 Gb/s on 4 cores because each core
owns the descriptors whose cookies it verifies (§4.6): replay caches
stay locally sound, so cores never share state on the hot path.  This
module reproduces that on CPython, where threads cannot help a
CPU-bound verifier: each shard of the rendezvous dispatch runs in its
own **worker process** with a private :class:`~repro.core.matcher.
CookieMatcher`, replica :class:`~repro.core.store.DescriptorStore`, and
replay cache.

Three layers:

- a **batch wire codec** — :func:`encode_batch` / :func:`decode_batch`
  frame a cookie vector as one ``bytes`` blob built on the existing
  48-byte :meth:`Cookie.to_bytes` form, and :func:`encode_verdicts` /
  :func:`decode_verdicts` pack the reply as ``(reason code, descriptor
  id)`` records.  No ``Cookie`` or descriptor **object** ever crosses
  the process boundary, and nothing is pickled on the hot path.  A
  worker does not even rebuild the objects on its side:
  :func:`batch_reply` verifies the cookies where they lie in the frame
  (:meth:`CookieMatcher.match_wire`), so ``decode_batch`` and
  ``encode_verdicts`` are the reference form of the frames, not code
  the hot path runs.
- **one wire** (PROTOCOL.md §12) — batch frames travel over per-shard
  :class:`~repro.core.shm_ring.ShmRing` pairs: a dispatch is one bounded
  memcpy into shared memory per shard, announced by a one-byte doorbell
  on the shard's pipe, and each side waits for the other's doorbell
  blocked in the kernel.  The pipe carries doorbells and control ops
  (descriptor deltas, replay-cache stats, probes, shutdown), never a
  batch.  The other rung is the **in-process degrade mode**: on boxes
  where worker processes cannot win (``os.cpu_count() < 2``) or cannot
  start, :meth:`ProcessShardExecutor.auto` serves every shard from
  in-process matchers so the abstraction never costs 2x on a CI box.
- a :class:`ProcessShardExecutor` — the multi-process drop-in for
  :class:`~repro.core.distributed.ShardedVerifierPool`: same
  ``match`` / ``match_batch`` / ``shard_for`` / telemetry surface, same
  descriptor-affine rendezvous dispatch, identical verdict semantics
  (per-shard ordering, replay/NCT rules of PROTOCOL.md §9-§10).

Failure model (PROTOCOL.md §10-§11; the ladder is spelled out on
:class:`ProcessShardExecutor`): a crashed worker is detected at the next
dispatch (broken pipe / EOF / reply timeout on its pipe, where every
doorbell arrives) and replaced with
a **cold replay cache** — the same fail-closed trade-off an NFV pool
makes when it replaces a dead instance: the pool keeps verifying (no
deadlock, no dropped dispatch) at the cost of one shard's replay window
starting empty.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import struct
import time
from dataclasses import astuple, dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .cookie import COOKIE_WIRE_BYTES, Cookie
from .cp.deltalog import DeltaRecord, apply_record
from .descriptor import CookieDescriptor
from .distributed import PoolStats, rendezvous_shard
from .errors import MalformedCookie
from .matcher import (
    MATCH_OUTCOMES,
    NETWORK_COHERENCY_TIME,
    VERDICT_RECORD,
    CookieMatcher,
    MatchStats,
)
from .resilience import RetryPolicy
from .shm_ring import DEFAULT_SLOT_BYTES, RingUnavailable, ShmRing
from .store import DescriptorStore

if TYPE_CHECKING:  # pragma: no cover - hints only
    from ..telemetry import MetricsRegistry

__all__ = [
    "batch_reply",
    "encode_batch",
    "decode_batch",
    "encode_verdicts",
    "decode_verdicts",
    "VERDICT_ACCEPTED",
    "VERDICT_CODES",
    "VERDICT_REASONS",
    "VERDICT_UNAVAILABLE",
    "ShmTransportStats",
    "ProcessShardExecutor",
]

# ----------------------------------------------------------------------
# Batch wire codec
# ----------------------------------------------------------------------

_COUNT = struct.Struct("!I")

#: Verdict reason codes, one per :class:`MatchStats` outcome (the
#: matcher's own numbering).  Code 0 is the only accept; everything else
#: names the reject reason, so a verdict array is also a per-cookie
#: error report.
VERDICT_REASONS: tuple[str, ...] = MATCH_OUTCOMES
VERDICT_CODES: dict[str, int] = {
    reason: code for code, reason in enumerate(VERDICT_REASONS)
}
VERDICT_ACCEPTED = VERDICT_CODES["accepted"]
_CODES = bytes(range(len(VERDICT_REASONS)))

#: Dispatcher-level reason for cookies whose shard died twice within one
#: dispatch: the sub-batch fails closed with this marker.  Deliberately
#: **not** a wire code — workers can never report it (a worker that can
#: reply is by definition available), so :data:`VERDICT_REASONS` stays a
#: bijection with :class:`MatchStats` outcomes.
VERDICT_UNAVAILABLE = "verifier_unavailable"


def encode_batch(cookies: Sequence[Cookie]) -> bytes:
    """Frame a cookie vector: ``!I`` count + count × 48-byte cookies.

    Built on :meth:`Cookie.to_bytes`, so a frame is exactly what the
    cookies would occupy on a binary carrier — and cookies that arrived
    off a wire round-trip bit-identically.
    """
    return _COUNT.pack(len(cookies)) + b"".join(
        cookie.to_bytes() for cookie in cookies
    )


def decode_batch(blob: bytes) -> list[Cookie]:
    """Inverse of :func:`encode_batch`; raises :class:`MalformedCookie`
    on a truncated frame, a count/length mismatch, or trailing bytes."""
    if len(blob) < _COUNT.size:
        raise MalformedCookie(
            f"batch frame too short for header: {len(blob)} bytes"
        )
    (count,) = _COUNT.unpack_from(blob)
    body = len(blob) - _COUNT.size
    if body != count * COOKIE_WIRE_BYTES:
        raise MalformedCookie(
            f"batch frame announces {count} cookies "
            f"({count * COOKIE_WIRE_BYTES} bytes) but carries {body}"
        )
    from_bytes = Cookie.from_bytes
    return [
        from_bytes(
            blob[
                _COUNT.size
                + index * COOKIE_WIRE_BYTES : _COUNT.size
                + (index + 1) * COOKIE_WIRE_BYTES
            ]
        )
        for index in range(count)
    ]


def encode_verdicts(verdicts: Sequence[tuple[int, int]]) -> bytes:
    """Pack ``(reason code, descriptor id)`` records into one blob."""
    out = bytearray(_COUNT.size + len(verdicts) * VERDICT_RECORD.size)
    _COUNT.pack_into(out, 0, len(verdicts))
    pack_into = VERDICT_RECORD.pack_into
    offset = _COUNT.size
    reason_count = len(VERDICT_REASONS)
    for code, descriptor_id in verdicts:
        if not 0 <= code < reason_count:
            raise MalformedCookie(f"verdict code {code} out of range")
        pack_into(out, offset, code, descriptor_id)
        offset += VERDICT_RECORD.size
    return bytes(out)


def decode_verdicts(blob: bytes) -> list[tuple[int, int]]:
    """Inverse of :func:`encode_verdicts`; raises
    :class:`MalformedCookie` on truncation, length mismatch, or an
    unknown reason code."""
    if len(blob) < _COUNT.size:
        raise MalformedCookie(
            f"verdict frame too short for header: {len(blob)} bytes"
        )
    (count,) = _COUNT.unpack_from(blob)
    body = len(blob) - _COUNT.size
    if body != count * VERDICT_RECORD.size:
        raise MalformedCookie(
            f"verdict frame announces {count} verdicts "
            f"({count * VERDICT_RECORD.size} bytes) but carries {body}"
        )
    # The code column, checked in one C-level pass: what is left once
    # every known code is deleted is unknown.
    unknown = blob[_COUNT.size :: VERDICT_RECORD.size].translate(None, _CODES)
    if unknown:
        raise MalformedCookie(f"unknown verdict code {unknown[0]}")
    return list(VERDICT_RECORD.iter_unpack(memoryview(blob)[_COUNT.size :]))


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------

# One-byte opcodes; every frame starts with one.
_OP_BATCH = b"B"  # ring only: + !dq now, generation + batch -> reply in ring
_OP_DELTA = b"D"  # + JSON list of delta records  -> b"\x01" ack
_OP_STATS = b"S"  #                               -> JSON replay-cache stats
_OP_QUIT = b"Q"   #                               -> b"\x01" ack, exit
#: The doorbell, both ways: "a frame waits in your ring".  A worker
#: answers the batch frame in its request ring with a verdict frame in
#: its response ring, then rings back.
_OP_RING = b"R"

#: A batch frame's header: opcode, ``now``, replay generation, count.
_BATCH_HEADER = struct.Struct("!cdqI")
#: A batch reply starts with the shard's replay generation after judging;
#: the verdict frame (its count first) follows.
_GENERATION = struct.Struct("!q")
_REPLY_HEADER = struct.Struct("!qI")


def batch_reply(matcher: CookieMatcher, frame: bytes) -> bytes:
    """A worker's answer to one batch frame, verified in place.

    ``frame`` is what came off the request ring — opcode, ``!d`` now,
    ``!q`` generation, ``!I`` count, count × 48 cookie bytes, nothing
    after — and the reply is the generation the cache ends in, then the
    verdict frame of :func:`encode_verdicts`.  The cookie bytes go
    to :meth:`CookieMatcher.match_wire` as they are and the verdict
    records are packed into the reply as they are decided: no ``Cookie``
    is built, nothing is re-packed, no reason string exists
    (:func:`decode_batch` / :func:`encode_verdicts` remain the reference
    codec this must agree with).  Raises :class:`MalformedCookie` for
    any frame that is short, mis-counted or over-long.
    """
    if len(frame) < _BATCH_HEADER.size:
        raise MalformedCookie(
            f"batch frame too short for header: {len(frame)} bytes"
        )
    _op, now, generation, count = _BATCH_HEADER.unpack_from(frame)
    body = frame[_BATCH_HEADER.size :]
    if len(body) != count * COOKIE_WIRE_BYTES:
        raise MalformedCookie(
            f"batch frame announces {count} cookies "
            f"({count * COOKIE_WIRE_BYTES} bytes) but carries {len(body)}"
        )
    cache = matcher.replay_cache
    cache.enter(generation)
    reply = bytearray(_REPLY_HEADER.size + count * VERDICT_RECORD.size)
    matcher.match_wire(body, now, reply, _REPLY_HEADER.size)
    _REPLY_HEADER.pack_into(reply, 0, cache.generation, count)
    return bytes(reply)


def _shard_main(
    conn,
    nct: float,
    seed_json: str,
    rings: tuple[ShmRing, ShmRing] | tuple[str, str],
) -> None:
    """Verifier shard loop: one matcher over a replica store.

    The replica is seeded from JSON at start (control plane — the hot
    path never serializes descriptors) and updated by delta frames,
    lists of :class:`DeltaRecord` documents applied as any replica does.
    The worker blocks on its pipe for everything.  A doorbell there
    means a batch frame waits in the request ring (``rings`` is the
    inherited pair under fork, their names under spawn); its verdict
    frame goes to the response ring, announced by a doorbell back.
    Control ops travel the pipe itself and are answered there.
    Any malformed frame terminates the worker: the dispatcher treats
    that as a crash and restarts the shard — failing closed beats
    verifying against a state we no longer trust.
    """
    store = DescriptorStore()
    for data in json.loads(seed_json):
        store.add(CookieDescriptor.from_json(data))
    matcher = CookieMatcher(store, nct=nct)

    if isinstance(rings[0], str):
        try:
            req_ring = ShmRing.attach(rings[0])
            resp_ring = ShmRing.attach(rings[1])
        except RingUnavailable:
            # Doorbells nobody can answer: die loudly and let the
            # recovery ladder decide.
            conn.close()
            raise
    else:
        # fork: inherited mappings; the dispatcher owns their lifetime.
        req_ring, resp_ring = rings
        req_ring.disown()
        resp_ring.disown()

    try:
        while True:
            try:
                frame = conn.recv_bytes()
            except (EOFError, OSError):
                break
            op = frame[:1]
            if op == _OP_RING:
                frame = req_ring.try_pop()
                if frame is None:
                    raise MalformedCookie("doorbell rang on an empty ring")
                if not resp_ring.try_push(batch_reply(matcher, frame)):
                    break  # the dispatcher left replies unread; restart
                conn.send_bytes(_OP_RING)
            elif op == _OP_DELTA:
                try:
                    for delta in json.loads(frame[1:].decode("utf-8")):
                        apply_record(store, DeltaRecord.from_json(delta))
                except (KeyError, TypeError, ValueError) as exc:
                    raise MalformedCookie(f"bad delta frame: {exc}") from exc
                conn.send_bytes(b"\x01")
            elif op == _OP_STATS:
                conn.send_bytes(
                    json.dumps(_replay_cache_stats(matcher)).encode("utf-8")
                )
            elif op == _OP_QUIT:
                conn.send_bytes(b"\x01")
                break
            else:
                raise MalformedCookie(f"unknown opcode {op!r}")
    except MalformedCookie:
        pass  # exit; the dispatcher restarts the shard fail-closed
    finally:
        conn.close()
        req_ring.close()
        resp_ring.close()


_NO_CACHE_STATS = {"rotations": 0, "size": 0}


def _replay_cache_stats(matcher: CookieMatcher) -> dict[str, int]:
    """What only the process that owns a replay cache knows."""
    cache = matcher.replay_cache
    return {
        "rotations": cache.rotations,
        "size": cache.size,
    }


@dataclass
class ShmTransportStats:
    """Counters for the shared-memory transport (PROTOCOL.md §12)."""

    #: Sub-batches that travelled request-ring → response-ring.
    ring_dispatches: int = 0
    #: Frame bytes written to request rings / read from response rings.
    bytes_out: int = 0
    bytes_in: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


_TRANSPORTS = ("shm", "in-process")

#: The most cookies one batch frame carries: a frame fills at most one
#: request-ring slot.  A larger dispatch goes out in consecutive slices.
_FRAME_COOKIES = (DEFAULT_SLOT_BYTES - _BATCH_HEADER.size) // COOKIE_WIRE_BYTES

#: Below this many CPUs :meth:`ProcessShardExecutor.auto` serves in-process.
_MIN_WORKER_CORES = 2


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------


class ProcessShardExecutor:
    """N verifier shards, each in its own process, behind the rendezvous
    dispatcher — the multi-process form of :class:`ShardedVerifierPool`.

    Semantics match the in-process pool exactly on healthy runs: the
    same cookie stream yields identical verdicts, identical per-shard
    :class:`MatchStats`, identical merged telemetry (the differential
    suite in ``tests/core/test_parallel_differential.py`` pins this).
    The speedup comes from real parallelism with cheap IPC: batch
    frames cross per-shard shared-memory rings (one bounded memcpy and
    one sequence-word store per direction, plus a one-byte doorbell on
    the pipe — no kernel copy of the frame, no spinning), and the
    dispatch is pipelined — shard N's frame is encoded
    and published while shard N-1's worker is already verifying, then
    replies are collected in publish order.

    ``transport`` is ``"shm"`` (worker processes fed over rings) or
    ``"in-process"`` (degrade mode: no worker processes at all — every
    shard is served by an in-process matcher over the dispatcher's
    store, for single-core boxes where process IPC can only lose; use
    :meth:`auto` to pick this automatically).

    Descriptors: the executor snapshots ``store`` into each worker at
    spawn and from then on is written like it: :meth:`add` and
    :meth:`revoke` apply to ``store`` and push the change to every
    worker before returning (so revocation takes effect pool-wide);
    reads go to ``store``.  Mutating ``store`` behind the
    executor's back leaves worker replicas stale — attach the executor
    where you would attach its store (``attach_enforcement_store(pool)``,
    ``VerifierReplica(store=pool)``, ``replay(pool, records)``).

    Crash handling is a ladder (PROTOCOL.md §11): a dead worker is
    detected at the next dispatch, delta, :meth:`ensure_healthy` or
    telemetry snapshot and restarted cold with backoff and fresh rings
    (``restart_backoff``, counted in ``stats.shard_restarts``); the
    in-flight sub-batch is re-dispatched once, on the replacement's
    rings.  A shard that dies *again* during the re-dispatch fails
    its sub-batch closed — every cookie answers ``None`` with the
    dispatcher-level reason :data:`VERDICT_UNAVAILABLE` — rather than
    raising.  A shard that burns through ``max_restarts``, or whose
    replacement cannot start, is permanently served by an **in-process
    fallback matcher** over the dispatcher's own store
    (``stats.fallbacks``): slower, but a dispatch never raises because
    a worker died.

    Match counters are kept here, not in the workers: every verdict
    frame carries one :class:`MatchStats` outcome code per cookie, and
    the dispatcher tallies them per shard as it decodes the frame, so
    :meth:`collect_match_stats` never touches a worker and is exact
    across a SIGKILL.  Only the replay-cache numbers live in the worker
    and are polled (:meth:`collect_worker_stats`).

    Use as a context manager, or call :meth:`close`.  A closed executor
    stays closed: dispatch and descriptor deltas raise, stats answer
    from what the dispatcher already holds.
    """

    def __init__(
        self,
        store: DescriptorStore,
        workers: int,
        nct: float = NETWORK_COHERENCY_TIME,
        *,
        reply_timeout: float = 30.0,
        max_restarts: int = 3,
        restart_backoff: RetryPolicy | None = None,
        sleep: Callable[[float], None] | None = time.sleep,
        transport: str = "shm",
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        if reply_timeout <= 0:
            raise ValueError("reply timeout must be positive")
        if max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        if transport not in _TRANSPORTS:
            raise ValueError(
                f"transport must be one of {_TRANSPORTS}, got {transport!r}"
            )
        self.store = store
        self.nct = nct
        self.reply_timeout = reply_timeout
        self.max_restarts = max_restarts
        self.restart_backoff = restart_backoff or RetryPolicy(
            max_attempts=max_restarts + 1,
            base_delay=0.05,
            max_delay=1.0,
        )
        self._sleep = sleep
        self.stats = PoolStats()
        #: One floor for every shard, as ShardedVerifierPool keeps: batch
        #: frames carry it to the workers and their replies carry it back.
        self.generation = 0
        self.shm_stats = ShmTransportStats()
        self._degraded = transport == "in-process"
        # fork is milliseconds; spawn is the portable fallback.
        methods = multiprocessing.get_all_start_methods()
        self._start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(self._start_method)
        self._worker_count = workers
        self._conns: list = [None] * workers
        self._procs: list = [None] * workers
        self._rings: list[tuple[ShmRing, ShmRing] | None] = [None] * workers
        #: One tally per shard (what shard i's matcher counts in the
        #: in-process pool), filled from the code column of each verdict
        #: frame decoded and by the shard's in-process matcher, if any.
        self.match_stats = [MatchStats() for _ in range(workers)]
        # Replay-cache numbers as each live worker last reported them;
        # a reaped worker's last poll moves into the retired counters,
        # so merged rotations stay monotonic.
        self._last_polled = [dict(_NO_CACHE_STATS) for _ in range(workers)]
        self._retired_cache_stats = {"rotations": 0}
        self._restart_counts = [0] * workers
        self._fallback_matchers: dict[int, CookieMatcher] = {}
        self._shard_memo: dict[int, int] = {}
        self._closed = False
        if self._degraded:
            for index in range(workers):
                self._serve_in_process(index)
        else:
            try:
                for index in range(workers):
                    self._spawn(index)
            except BaseException:
                self.close()
                raise

    @classmethod
    def auto(
        cls,
        store: DescriptorStore,
        workers: int,
        nct: float = NETWORK_COHERENCY_TIME,
        **kwargs,
    ) -> "ProcessShardExecutor":
        """Build an executor on the best transport this box supports.

        The degrade ladder of PROTOCOL.md §12: on a box with fewer than
        two CPUs a worker process can only time-slice against the
        dispatcher, and on one without shared memory or room for another
        process no worker can run, so the multi-process abstraction is
        served **in-process** (no workers, no IPC, ≈1x the in-process
        pool).  Otherwise every shard gets a worker on a ring pair.
        """
        if (os.cpu_count() or 1) >= _MIN_WORKER_CORES:
            try:
                return cls(store, workers, nct, transport="shm", **kwargs)
            except (OSError, RingUnavailable):
                pass  # no worker can start on its rings: serve in-process
        return cls(store, workers, nct, transport="in-process", **kwargs)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @staticmethod
    def _make_rings() -> tuple[ShmRing, ShmRing]:
        """A fresh request/response ring pair; raises
        :class:`RingUnavailable` when shared memory cannot hold one."""
        request = ShmRing.create(slot_bytes=DEFAULT_SLOT_BYTES)
        try:
            # Verdict records are 9 B to the request's 48 B per cookie,
            # so a quarter-size response slot still fits any batch whose
            # request fit.
            response = ShmRing.create(
                slot_bytes=max(4096, DEFAULT_SLOT_BYTES // 4)
            )
        except RingUnavailable:
            request.close()
            raise
        return request, response

    def _spawn(self, index: int) -> None:
        seed = json.dumps([d.to_json() for d in self.store])
        # Recorded before anything else can raise (EAGAIN, EMFILE):
        # close() or the fallback then finds the ring segments and the
        # pipe end to release.
        rings = self._rings[index] = self._make_rings()
        parent_conn, child_conn = self._ctx.Pipe()
        self._conns[index] = parent_conn
        process = self._ctx.Process(
            target=_shard_main,
            args=(
                child_conn,
                self.nct,
                seed,
                rings
                if self._start_method == "fork"
                else (rings[0].name, rings[1].name),
            ),
            name=f"cookie-shard-{index}",
            daemon=True,
        )
        try:
            process.start()
        finally:
            child_conn.close()
        self._procs[index] = process

    def _reap(self, index: int) -> None:
        """Close and join whatever is left of a shard's worker."""
        conn, process = self._conns[index], self._procs[index]
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already gone
                pass
        if process is not None:
            if process.is_alive():
                # SIGKILL: a stopped or wedged worker ignores SIGTERM,
                # and a worker has nothing to clean up that SIGTERM runs.
                process.kill()
            process.join(timeout=5.0)
        rings, self._rings[index] = self._rings[index], None
        for ring in rings or ():
            ring.close()
        # Retire the counters the dead incarnation last reported; the
        # rotations it made since that poll are lost with it.
        last = self._last_polled[index]
        for counter in self._retired_cache_stats:
            self._retired_cache_stats[counter] += last[counter]
        self._last_polled[index] = dict(_NO_CACHE_STATS)

    def _restart(self, index: int) -> None:
        """One rung of the recovery ladder: restart the dead worker with
        backoff, or — once ``max_restarts`` is spent, or when the
        replacement cannot start — retire the shard to an in-process
        fallback matcher.  Idempotent for fallback shards."""
        self._require_open()
        if index in self._fallback_matchers:
            return
        if self._restart_counts[index] >= self.max_restarts:
            self._enter_fallback(index)
            return
        delay = self.restart_backoff.delay_at(self._restart_counts[index])
        if self._sleep is not None and delay > 0:
            self._sleep(delay)
        self._reap(index)
        try:
            self._spawn(index)
        except (OSError, RingUnavailable):
            # No replacement can start (EAGAIN, no shared memory): serve
            # the shard in-process rather than raise out of a dispatch.
            self._enter_fallback(index)
            return
        self._restart_counts[index] += 1
        self.stats.shard_restarts += 1

    def _serve_in_process(self, index: int) -> None:
        matcher = CookieMatcher(self.store, nct=self.nct)
        # The shard keeps one tally whoever verifies for it.
        matcher.stats = self.match_stats[index]
        self._fallback_matchers[index] = matcher

    def _enter_fallback(self, index: int) -> None:
        """Permanently serve this shard from an in-process matcher over
        the dispatcher's own store.  Verdict semantics are unchanged
        (same store, same NCT; the replay cache starts cold exactly as a
        restarted worker's would); only the parallelism is lost."""
        self._reap(index)
        self._conns[index] = None
        self._procs[index] = None
        self._serve_in_process(index)
        self.stats.fallbacks += 1

    def restart_shard(self, index: int) -> None:
        """Operator-initiated shard replacement (cold replay cache).
        Counts against ``max_restarts`` like any other restart."""
        self._restart(index)

    @property
    def degraded(self) -> bool:
        """True when this executor is the single-core degrade mode:
        every shard served in-process, no worker processes at all."""
        return self._degraded

    @property
    def transport(self) -> str:
        """The batch transport actually in use: ``"shm"`` while any
        worker serves, ``"in-process"`` in degrade mode or once every
        shard has crashed into fallback."""
        if len(self._fallback_matchers) == self._worker_count:
            return "in-process"
        return "shm"

    def shard_transports(self) -> list[str]:
        """Per-shard batch transport: ``"shm"``, or ``"in-process"``
        (degrade mode or crash fallback)."""
        return [
            "in-process" if index in self._fallback_matchers else "shm"
            for index in range(self._worker_count)
        ]

    @property
    def fallback_shards(self) -> list[int]:
        """Shards retired to the in-process fallback matcher by the
        crash ladder.  Empty in degrade mode: there, in-process service
        is the configuration, not a failure."""
        if self._degraded:
            return []
        return sorted(self._fallback_matchers)

    def worker_pids(self) -> list[int | None]:
        """Live worker PIDs by shard (None for fallback shards).

        Exposed for chaos drills and kill tests, which need a real OS
        handle to SIGKILL — not for routine operation."""
        return [
            process.pid if process is not None else None
            for process in self._procs
        ]

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def probe_shard(self, index: int) -> bool:
        """Liveness probe: one stats round-trip within the reply
        timeout.  Fallback shards are healthy by definition (in-process,
        nothing to probe).  Never raises and never mutates pool state —
        pair with :meth:`ensure_healthy` to act on a failed probe."""
        if index in self._fallback_matchers:
            return True
        try:
            json.loads(self._roundtrip(index, _OP_STATS))
            return True
        except (OSError, EOFError, ValueError):  # incl. timeout
            return False

    def health(self) -> list[bool]:
        """Probe every shard; element i is shard i's liveness."""
        return [
            self.probe_shard(index) for index in range(self._worker_count)
        ]

    def ensure_healthy(self) -> list[bool]:
        """Probe every shard and climb the recovery ladder for any that
        fails (restart with backoff, or fallback once restarts are
        spent).  Returns post-recovery health — all True unless a
        restarted worker died again immediately."""
        for index in range(self._worker_count):
            if not self.probe_shard(index):
                self._restart(index)
        return self.health()

    def worker_process(self, index: int):
        """The shard's :class:`multiprocessing.Process` (tests, ops)."""
        return self._procs[index]

    def _require_open(self) -> None:
        """A closed executor must not come back to life behind close()."""
        if self._closed:
            raise RuntimeError("executor is closed")

    def close(self) -> None:
        """Shut every worker down; idempotent and final."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            if conn is None:  # shard retired to fallback, or never spawned
                continue
            try:
                conn.send_bytes(_OP_QUIT)
                if conn.poll(1.0):
                    conn.recv_bytes()
            except (OSError, EOFError, BrokenPipeError):
                pass
        for index, process in enumerate(self._procs):
            if process is not None:
                # Let it exit on its own; the reap terminates a straggler.
                process.join(timeout=5.0)
            self._reap(index)

    def __enter__(self) -> "ProcessShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        return self._worker_count

    def _shard_index(self, cookie_id: int) -> int:
        memo = self._shard_memo
        shard_index = memo.get(cookie_id)
        if shard_index is None:
            shard_index = rendezvous_shard(cookie_id, self._worker_count)
            memo[cookie_id] = shard_index
        return shard_index

    def shard_for(self, cookie: Cookie) -> int:
        """Same memoized rendezvous assignment as the in-process pool."""
        return self._shard_index(cookie.cookie_id)

    def _roundtrip(self, index: int, frame: bytes) -> bytes:
        """One control op (delta, stats, probe): send the frame over the
        pipe and wait for the reply, bounded by the timeout; raises on a
        dead or unresponsive worker."""
        conn = self._conns[index]
        conn.send_bytes(frame)
        if not conn.poll(self.reply_timeout):
            raise TimeoutError(
                f"shard {index} gave no reply within {self.reply_timeout}s"
            )
        return conn.recv_bytes()

    def _send_sub_batch(self, shard: int, frame: bytes) -> bool:
        """Publish one sub-batch in the shard's request ring and ring
        its doorbell.

        Returns False if the shard is unreachable — the caller walks
        the recovery ladder.  Never waits: a dispatch has one frame in
        flight per shard, so a full request ring means the worker never
        took the last one.
        """
        if not self._rings[shard][0].try_push(frame):
            return False
        try:
            self._conns[shard].send_bytes(_OP_RING)
        except (OSError, ValueError):
            return False
        self.shm_stats.ring_dispatches += 1
        self.shm_stats.bytes_out += len(frame)
        return True

    def _collect_sub_batch(self, shard: int) -> bytes | None:
        """The verdict frame for :meth:`_send_sub_batch`'s sub-batch,
        popped from the response ring once the worker's doorbell arrives
        on the pipe; None on a dead (EOF), silent or confused worker."""
        try:
            conn = self._conns[shard]
            if not conn.poll(self.reply_timeout) or conn.recv_bytes() != _OP_RING:
                return None
        except (OSError, EOFError):
            return None
        reply = self._rings[shard][1].try_pop()
        if reply is not None:
            self.shm_stats.bytes_in += len(reply)
        return reply

    def match(self, cookie: Cookie, now: float) -> CookieDescriptor | None:
        """Scalar verification — a batch of one through the same wire."""
        return self.match_batch([cookie], now)[0]

    def _dispatch(
        self, frames: Iterable[tuple[int, bytes]], expected: dict[int, list]
    ) -> tuple[dict[int, list[tuple[int, int]]], list[int]]:
        """One attempt at a set of sub-batches: publish each ``(shard,
        frame)`` as it is produced, collect in publish order, decode and
        length-check against ``expected[shard]``.  Returns the verdicts
        by shard and the shards that failed: a worker whose reply is
        garbled is trusted no more than one that is dead or silent.
        Every verdict decoded is counted into the shard's tally, by the
        code the worker sent, and the generation it sent back is kept."""
        sent = {
            shard: self._send_sub_batch(shard, frame) for shard, frame in frames
        }
        verdicts: dict[int, list[tuple[int, int]]] = {}
        for shard, published in sent.items():
            reply = self._collect_sub_batch(shard) if published else None
            # No reply decodes like a garbled one: too short.
            frame = (reply or b"")[_GENERATION.size :]
            try:
                decoded = decode_verdicts(frame)
            except MalformedCookie:
                continue
            if len(decoded) != len(expected[shard]):
                continue
            verdicts[shard] = decoded
            self.generation = max(self.generation, *_GENERATION.unpack_from(reply))
            tally = self.match_stats[shard]
            codes = frame[_COUNT.size :: VERDICT_RECORD.size]
            for code, outcome in enumerate(VERDICT_REASONS):
                count = codes.count(code)
                if count:
                    setattr(tally, outcome, getattr(tally, outcome) + count)
        return verdicts, [shard for shard in sent if shard not in verdicts]

    def match_batch(
        self,
        cookies: Sequence[Cookie],
        now: float,
        reasons: list[str] | None = None,
    ) -> list[CookieDescriptor | None]:
        """Batched dispatch across worker processes.

        Cookies group per shard by memoized rendezvous assignment,
        preserving relative order within each shard's sub-batch (the
        only order replay detection can depend on — all cookies of a
        descriptor land on one shard).  Dispatch is pipelined: each
        shard's frame is encoded and published before the next shard's
        is encoded, so shard N's worker verifies while the dispatcher
        still serializes shard N+1 (double-buffering across shards);
        replies are then collected in publish order.

        Never raises for worker death: a shard that fails mid-dispatch
        walks the class docstring's ladder — restart and one
        re-dispatch, then the fallback matcher or ``None`` verdicts with
        the :data:`VERDICT_UNAVAILABLE` reason.  ``reasons``, if given,
        receives one reason string per cookie (:data:`VERDICT_REASONS`
        names, or ``verifier_unavailable``).
        """
        self._require_open()
        if len(cookies) > _FRAME_COOKIES:
            # No frame outgrows a ring slot.  Consecutive slices keep
            # every shard's order, so verdicts, reasons and tallies are
            # those of one dispatch.
            return [
                verdict
                for start in range(0, len(cookies), _FRAME_COOKIES)
                for verdict in self.match_batch(
                    cookies[start : start + _FRAME_COOKIES], now, reasons
                )
            ]
        if not cookies:
            return []
        generation = self.generation  # for every shard, as in-process
        per_shard: dict[int, Sequence[int]]
        if self._worker_count == 1:
            # Rendezvous over one shard is the identity.
            per_shard = {0: range(len(cookies))}
        else:
            shard_index_for = self._shard_index
            per_shard = {}
            for position, cookie in enumerate(cookies):
                per_shard.setdefault(
                    shard_index_for(cookie.cookie_id), []
                ).append(position)

        def encoded(shards: Iterable[int]) -> Iterator[tuple[int, bytes]]:
            # A generator, so that _dispatch publishes shard k's frame
            # before shard k+1's is encoded (the pipelining above).
            # Shards in fallback verify locally below.
            for shard in shards:
                if shard not in self._fallback_matchers:
                    positions = per_shard[shard]
                    yield shard, _BATCH_HEADER.pack(
                        _OP_BATCH, now, generation, len(positions)
                    ) + b"".join(
                        [cookies[position].to_bytes() for position in positions]
                    )

        # Two attempts.  A shard that fails the first is restarted and,
        # if that gave it a new worker, its sub-batch goes out once more;
        # one that fails again burns another rung (possibly tipping into
        # fallback) and is resolved below like any shard without verdicts.
        verdicts: dict[int, list[tuple[int, int]]] = {}
        attempt: Iterable[int] = per_shard
        for _ in range(2):
            decoded, failed = self._dispatch(encoded(attempt), per_shard)
            verdicts.update(decoded)
            if not failed:
                break
            for shard in failed:
                self._restart(shard)
            attempt = failed
        results: list[CookieDescriptor | None] = [None] * len(cookies)
        reason_arr: list[str] | None = (
            [VERDICT_UNAVAILABLE] * len(cookies)
            if reasons is not None
            else None
        )
        store_get = self.store.get
        for shard, positions in per_shard.items():
            shard_verdicts = verdicts.get(shard)
            if shard_verdicts is not None:
                # Resolve descriptor ids against the dispatcher's own
                # store — descriptor objects never cross the process
                # boundary.  An id it does not hold resolves to None:
                # fail closed, count as rejected.
                for position, (code, descriptor_id) in zip(
                    positions, shard_verdicts
                ):
                    if code == VERDICT_ACCEPTED:
                        results[position] = store_get(descriptor_id)
                if reason_arr is not None:
                    for position, (code, _id) in zip(positions, shard_verdicts):
                        reason_arr[position] = (
                            VERDICT_REASONS[code]
                            if code != VERDICT_ACCEPTED
                            or results[position] is not None
                            else "unknown_id"
                        )
            elif shard in self._fallback_matchers:
                # Fallback shard: verified here, over the shared store.
                sub_reasons: list[str] | None = (
                    [] if reason_arr is not None else None
                )
                matcher = self._fallback_matchers[shard]
                matcher.replay_cache.enter(generation)
                sub_results = matcher.match_batch(
                    [cookies[position] for position in positions],
                    now,
                    reasons=sub_reasons,
                )
                self.generation = max(
                    self.generation, matcher.replay_cache.generation
                )
                for offset, position in enumerate(positions):
                    results[position] = sub_results[offset]
                    if reason_arr is not None:
                        assert sub_reasons is not None
                        reason_arr[position] = sub_reasons[offset]
            else:
                # Failed twice and still has restarts left: fail closed.
                self.stats.unavailable_verdicts += len(positions)
        accepted = sum(1 for result in results if result is not None)
        self.stats.accepted += accepted
        self.stats.rejected += len(cookies) - accepted
        if reasons is not None:
            assert reason_arr is not None
            reasons.extend(reason_arr)
        return results

    # ------------------------------------------------------------------
    # Written and read like a descriptor store
    # ------------------------------------------------------------------
    def _push(
        self, op: str, cookie_id: int, descriptor: CookieDescriptor | None = None
    ) -> None:
        """One delta record to every worker, acked by each.  ``offset``
        and ``time`` are 0: nothing on this hop replays by offset, a
        worker that misses a frame is reseeded from the store."""
        record = DeltaRecord(0, op, cookie_id, 0.0, descriptor)
        frame = _OP_DELTA + json.dumps([record.to_json()]).encode("utf-8")
        for index in range(self._worker_count):
            if index in self._fallback_matchers:
                # Fallback matchers read the dispatcher's store directly;
                # there is no replica to update.
                continue
            try:
                reply = self._roundtrip(index, frame)
            except (OSError, EOFError, TimeoutError, BrokenPipeError):
                # The restart re-seeds from the already-updated store,
                # so the delta is applied either way.
                self._restart(index)
                continue
            if reply != b"\x01":  # pragma: no cover - defensive
                raise MalformedCookie(
                    f"shard {index} rejected descriptor delta"
                )

    def add(self, descriptor: CookieDescriptor) -> CookieDescriptor:
        """Insert/replace in the dispatcher store and every replica."""
        self._require_open()
        self.store.add(descriptor)
        self._push("add", descriptor.cookie_id, descriptor)
        return descriptor

    def revoke(self, cookie_id: int) -> bool:
        """Revoke pool-wide; False if the id is unknown locally."""
        self._require_open()
        known = self.store.revoke(cookie_id)
        self._push("revoke", cookie_id)
        return known

    def get(self, cookie_id: int) -> CookieDescriptor | None:
        return self.store.get(cookie_id)

    def __iter__(self) -> Iterator[CookieDescriptor]:
        return iter(self.store)

    def __len__(self) -> int:
        return len(self.store)

    def __contains__(self, cookie_id: int) -> bool:
        return cookie_id in self.store

    # ------------------------------------------------------------------
    # Stats and telemetry
    # ------------------------------------------------------------------
    def collect_match_stats(self) -> MatchStats:
        """:attr:`match_stats` merged across shards: one count for every
        verdict this executor has handed out, whatever became of the
        worker that produced it.  No worker is asked."""
        per_outcome = zip(*(astuple(tally) for tally in self.match_stats))
        return MatchStats(*map(sum, per_outcome))

    def collect_worker_stats(self) -> list[dict[str, int]]:
        """Every shard's replay-cache numbers (``rotations`` and
        ``size``), one dict per shard — the only stats
        a worker is polled for; in-process matchers are read live.

        A worker that fails to answer is restarted (counted in
        ``shard_restarts``) and reports **zeros** for the new
        incarnation — the reap has just moved its last poll into the
        retired counters, so merged views count it exactly once.  Never
        hangs the caller; on a closed executor no worker is asked.
        """
        if not self._closed:
            for index in range(self._worker_count):
                if index in self._fallback_matchers:
                    continue
                try:
                    self._last_polled[index] = json.loads(
                        self._roundtrip(index, _OP_STATS)
                    )
                except (OSError, EOFError, ValueError):  # incl. timeout
                    self._restart(index)
        return [
            _replay_cache_stats(self._fallback_matchers[index])
            if index in self._fallback_matchers
            else self._last_polled[index]
            for index in range(self._worker_count)
        ]

    def register_telemetry(
        self, registry: "MetricsRegistry", prefix: str = "pool"
    ) -> None:
        """Export the dispatcher's match tallies and, polled from the
        workers at snapshot time, their replay-cache numbers.

        Emits the same metric names as
        :meth:`ShardedVerifierPool.register_telemetry`, so dashboards
        and the differential suite see in-process and multi-process
        pools identically.  Transport internals (``pool.shm.*``) are a
        separate opt-in collector — :meth:`register_transport_telemetry`
        — precisely because the in-process pool has no counterpart for
        them.
        """
        registry.register(self, prefix, read=self._read_metrics)

    def _read_metrics(self):
        # Poll FIRST: a poll that trips a restart moves that worker's
        # last numbers into the retired counters (and bumps
        # ``shard_restarts``), which must be read after that move.
        caches = self.collect_worker_stats()
        retired = self._retired_cache_stats
        counters = {
            f"matcher.{outcome}": count
            for outcome, count in self.collect_match_stats().as_dict().items()
        }
        for counter in retired:
            counters[f"matcher.replay_cache.{counter}"] = (
                retired[counter] + sum(cache[counter] for cache in caches)
            )
        counters.update(vars(self.stats))
        gauges = {
            "matcher.replay_cache.size": sum(cache["size"] for cache in caches),
            "shards": self._worker_count,
            "fallback_shards": len(self.fallback_shards),
        }
        return counters, gauges

    def register_transport_telemetry(
        self, registry: "MetricsRegistry", prefix: str = "pool.shm"
    ) -> None:
        """Export the shared-memory transport counters (PROTOCOL.md
        §12): ring dispatches, ring bytes both ways, and gauges for the
        shards still on rings and the degrade flag."""
        registry.register(
            self,
            prefix,
            counters=("shm_stats",),
            gauges=("degraded",),
            read=self._read_transport_metrics,
        )

    def _read_transport_metrics(self):
        return {}, {"ring_shards": self.shard_transports().count("shm")}
