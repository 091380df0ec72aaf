"""The sharded control plane's front door (PROTOCOL.md §14).

:class:`ShardedControlPlane` replaces a single
:class:`~repro.core.server.CookieServer` with N
:class:`~.shard.ControlPlaneShard` partitions keyed by the data plane's
rendezvous hash — each of them that same ``CookieServer`` with a delta
log attached.  The dispatcher mints cookie ids, routes each op (a batch's
grants: each run of entries one shard owns) to its shard, and layers on
the distributed-systems duties the shards themselves stay ignorant of:

* **Replication** — verifier replicas register here; revocations are
  broadcast eagerly to every reachable replica and an anti-entropy
  :meth:`sync_replicas` tick converges the rest, with every
  revocation-to-enforcement lag sample observed into a histogram and
  checked against :attr:`staleness_bound`.
* **Catch-up** — a replica returning from a partition replays the delta
  log from its applied offset; if compaction truncated that window it
  gets snapshot-then-replay instead.
* **Load shedding** — an admission gate (:meth:`admit`/:meth:`release`)
  caps in-flight requests and consults the PR-4
  :class:`~repro.core.resilience.CircuitBreaker`; over-limit or
  breaker-open arrivals get a structured ``{"shed": true}`` error
  instead of unbounded queueing.

Shards live in this process.  They are a partitioning and replication
unit, not a speedup: the dispatcher visits them one at a time (§14.4).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from itertools import groupby
from typing import Any, Callable, Sequence

from ..descriptor import GRANT_DRAW_BYTES, CookieDescriptor
from ..distributed import rendezvous_shard
from ..errors import AcquisitionDenied
from ..policy import AccessPolicy, OpenAccessPolicy
from ..resilience import CircuitBreaker
from ..server import ServiceOffering, serve_json
from ...telemetry.metrics import Histogram
from .deltalog import LogTruncated
from .replica import ReplicaUnreachable, VerifierReplica
from .shard import ControlPlaneShard

__all__ = ["ControlPlaneStats", "ShardedControlPlane", "BROADCAST_LAG_BUCKETS"]

#: Broadcast-lag histogram buckets (seconds) — sub-millisecond resolution
#: at the bottom because an eager in-process broadcast completes in
#: microseconds, stretching to the multi-second partition-recovery tail.
BROADCAST_LAG_BUCKETS = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0
)


#: The op counters each shard (a ``CookieServer``) keeps; the plane's
#: are their sums, read off the shards.
SHARD_COUNTERS = ("acquired", "denied", "revoked", "removed")


def _summed(name: str) -> property:
    return property(lambda stats: sum(getattr(s, name) for s in stats.shards))


@dataclass
class ControlPlaneStats:
    """Dispatcher-level accounting, plus the shards' op counters summed."""

    shards: Sequence[Any] = field(default=(), repr=False, compare=False)
    acquired = _summed("acquired")
    denied = _summed("denied")
    revoked = _summed("revoked")
    removed = _summed("removed")
    renewed: int = 0
    shed_pending: int = 0
    shed_breaker: int = 0
    worker_failures: int = 0  # always 0; bench/acquisition_path.py's oracle reads it
    syncs: int = 0
    snapshot_catchups: int = 0

    def as_dict(self) -> dict[str, int]:
        flat = {name: getattr(self, name) for name in SHARD_COUNTERS}
        flat.update(self.__dict__)
        del flat["shards"]
        return flat


class ShardedControlPlane:
    """N rendezvous-hashed ``CookieServer`` shards behind that one API."""

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        shards: int = 1,
        mode: str = "in-process",  # only value; bench/ passes it by keyword
        policy: AccessPolicy | None = None,
        staleness_bound: float = 1.0,
        max_pending: int = 1024,
        breaker: CircuitBreaker | None = None,
        eager_broadcast: bool = True,
    ) -> None:
        if shards < 1:
            raise ValueError("shard count must be >= 1")
        if mode != "in-process":
            raise ValueError(
                f"unsupported mode {mode!r}: shards run in-process only "
                "(docs/PROTOCOL.md §14.4)"
            )
        if staleness_bound <= 0:
            raise ValueError("staleness bound must be positive")
        self.clock = clock
        self.shard_count = shards
        self.policy = policy if policy is not None else OpenAccessPolicy()
        self.staleness_bound = staleness_bound
        self.max_pending = max_pending
        self.eager_broadcast = eager_broadcast
        self.breaker = (
            breaker
            if breaker is not None
            else CircuitBreaker(failure_threshold=5, reset_timeout=5.0, clock=clock)
        )
        self.offerings: dict[str, ServiceOffering] = {}
        self.inflight = 0
        self._lag_histogram = Histogram(
            "cp.broadcast_lag_s", buckets=BROADCAST_LAG_BUCKETS
        )
        self._replicas: dict[str, VerifierReplica] = {}
        #: unconfirmed revocations: [shard, offset, revoke_time, {replica}]
        self._pending_revocations: list[list[Any]] = []
        self._shards = [
            ControlPlaneShard(i, clock, policy=self.policy) for i in range(shards)
        ]
        self.stats = ControlPlaneStats(self._shards)

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def offer(self, offering: ServiceOffering) -> ServiceOffering:
        """Advertise a service on every shard (any id can land anywhere)."""
        self.offerings[offering.name] = offering
        for shard in self._shards:
            shard.offer(offering)
        return offering

    def list_services(self) -> list[dict[str, Any]]:
        return [o.advertisement() for o in self.offerings.values()]

    def shard_of(self, cookie_id: int) -> int:
        if self.shard_count == 1:
            return 0  # rendezvous over one shard is the identity
        return rendezvous_shard(cookie_id, self.shard_count)

    # ------------------------------------------------------------------
    # Admission control (load shedding)
    # ------------------------------------------------------------------
    def admit(self) -> dict[str, Any] | None:
        """Admission gate for one request; ``None`` means admitted and
        the caller owes a :meth:`release`.  A dict is the structured
        shed response (§14.6) to return without doing any work."""
        if not self.breaker.allow():
            self.stats.shed_breaker += 1
            return {
                "ok": False,
                "shed": True,
                "error": "control plane shedding load: circuit breaker open",
            }
        if self.inflight >= self.max_pending:
            self.stats.shed_pending += 1
            return {
                "ok": False,
                "shed": True,
                "error": (
                    f"control plane shedding load: {self.inflight} requests "
                    f"pending (limit {self.max_pending})"
                ),
            }
        self.inflight += 1
        return None

    def release(self) -> None:
        self.inflight = max(0, self.inflight - 1)

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def _issue(
        self, requests: Sequence[Sequence[Any]]
    ) -> list[CookieDescriptor | Exception]:
        """A batch granted at one instant from one draw, ids minted before
        routing: each run of consecutive entries one shard owns, in order."""
        now = self.clock()
        draw = os.urandom(GRANT_DRAW_BYTES * len(requests))
        if self.shard_count == 1:
            return self._shards[0].grant_batch(requests, now, draw, {})
        results, blocks, start = [], {}, 0
        for owner, run in groupby(
            self.shard_of(int.from_bytes(draw[at : at + 8], "big"))
            for at in range(0, len(draw), GRANT_DRAW_BYTES)
        ):
            stop = start + len(list(run))
            span = draw[start * GRANT_DRAW_BYTES : stop * GRANT_DRAW_BYTES]
            results += self._shards[owner].grant_batch(
                requests[start:stop], now, span, blocks
            )
            start = stop
        return results

    def acquire_batch(
        self, requests: Sequence[Sequence[Any]]
    ) -> list[dict[str, Any]]:
        """Issue descriptors for ``(user, service[, credentials,
        preferences])`` entries, as one batch (:meth:`_issue`).

        Returns one ``{"ok": ..., "descriptor"/"error": ...}`` per
        request, in order — the wire shape, each descriptor rendered to
        JSON here, once; the dicts are the caller's.  An entry no grant
        can be made from fails alone: ``bad request`` in its slot,
        nothing stored, logged or counted for it (``denied`` counts
        policy refusals only, as on a single :meth:`acquire`).
        """
        results: list[dict[str, Any]] = []
        for granted in self._issue(requests):
            if granted.__class__ is CookieDescriptor:
                results.append({"ok": True, "descriptor": granted.to_json()})
            elif isinstance(granted, AcquisitionDenied):
                results.append({"ok": False, "error": str(granted)})
            else:
                results.append({"ok": False, "error": f"bad request: {granted}"})
        self.breaker.record_success()
        return results

    def acquire(
        self,
        user: str,
        service: str,
        credentials: dict[str, Any] | None = None,
        preferences: dict[str, Any] | None = None,
    ) -> CookieDescriptor:
        """A batch of one, as :meth:`CookieServer.acquire`.  The descriptor
        returned is a clone: its ``revoked`` flag is the caller's."""
        try:
            (granted,) = self._issue(((user, service, credentials, preferences),))
        finally:
            self.breaker.record_success()
        if isinstance(granted, Exception):
            raise granted
        return granted.clone()

    def revoke_batch(self, cookie_ids: Sequence[int]) -> list[bool]:
        """Revoke many descriptors, then broadcast to replicas at once."""
        now = self.clock()
        revoked: list[bool] = []
        #: shard -> offset of the last revoke record this call appended
        touched: dict[int, int] = {}
        for cookie_id in cookie_ids:
            shard_index = self.shard_of(cookie_id)
            shard = self._shards[shard_index]
            already = shard.revoked
            revoked.append(shard.revoke(cookie_id))
            # Repeat revokes answer True but log nothing: only a shard
            # that appended has anything to broadcast.
            if shard.revoked > already:
                touched[shard_index] = shard.log.next_offset - 1
        self.breaker.record_success()
        if touched and self._replicas:
            for shard_index, offset in touched.items():
                self._pending_revocations.append(
                    [shard_index, offset, now, set(self._replicas)]
                )
            if self.eager_broadcast:
                self.sync_replicas(shards=set(touched))
        return revoked

    def revoke(self, cookie_id: int, by: str = "network") -> bool:
        del by  # shards run unaudited
        return self.revoke_batch([cookie_id])[0]

    def renew(
        self,
        user: str,
        cookie_id: int,
        credentials: dict[str, Any] | None = None,
    ) -> CookieDescriptor:
        """Fresh descriptor (a clone, like :meth:`acquire`'s) for the old
        one's service, on whichever shard its new id routes to; the old
        one stays valid until expiry (matching :class:`CookieServer.renew`)."""
        old = self.lookup(cookie_id)
        if old is None:
            raise AcquisitionDenied(f"descriptor {cookie_id:#x} unknown")
        descriptor = self.acquire(
            user, str(old.service_data), credentials=credentials
        )
        self.stats.renewed += 1
        return descriptor

    def lookup(self, cookie_id: int) -> CookieDescriptor | None:
        return self._shards[self.shard_of(cookie_id)].lookup(cookie_id)

    # ------------------------------------------------------------------
    # Replication
    # ------------------------------------------------------------------
    def register_replica(self, replica: VerifierReplica) -> VerifierReplica:
        """Attach a verifier replica and bring it current immediately."""
        self._replicas[replica.name] = replica
        self.sync_replicas(replicas=[replica.name])
        return replica

    def unregister_replica(self, name: str) -> bool:
        existed = self._replicas.pop(name, None) is not None
        for pending in self._pending_revocations:
            pending[3].discard(name)
        self._pending_revocations = [
            p for p in self._pending_revocations if p[3]
        ]
        return existed

    def sync_replicas(
        self,
        shards: set[int] | None = None,
        replicas: list[str] | None = None,
    ) -> int:
        """One anti-entropy pass: push every reachable replica to the
        head of each (selected) shard's log; snapshot-then-replay when
        the replica's offset precedes the compaction horizon.  Returns
        the number of (replica, shard) syncs that made progress.

        Calling this at least once per :attr:`staleness_bound` is what
        *makes* the bound hold; :meth:`revoke_batch` additionally calls
        it eagerly so the common-case lag is one broadcast, not one
        anti-entropy period.
        """
        now = self.clock()
        progressed = 0
        names = replicas if replicas is not None else list(self._replicas)
        shard_indices = (
            sorted(shards) if shards is not None else range(self.shard_count)
        )
        for name in names:
            replica = self._replicas.get(name)
            if replica is None or replica.partitioned:
                continue
            for shard_index in shard_indices:
                shard = self._shards[shard_index]
                applied = replica.applied_offset(shard_index)
                if applied >= shard.log.next_offset:
                    continue
                try:
                    try:
                        records = shard.log.since(applied)
                    except LogTruncated:
                        snapshot = shard.snapshot()
                        replica.install_snapshot(
                            shard_index, snapshot, self.shard_count
                        )
                        self.stats.snapshot_catchups += 1
                        records = []
                    if records:
                        replica.apply_deltas(shard_index, records, now=now)
                except ReplicaUnreachable:
                    break
                progressed += 1
            self._settle_pending(replica, now)
        self.stats.syncs += 1
        return progressed

    def _settle_pending(self, replica: VerifierReplica, now: float) -> None:
        """Observe broadcast lag for revocations this replica now holds."""
        still_pending: list[list[Any]] = []
        for pending in self._pending_revocations:
            shard_index, offset, revoke_time, remaining = pending
            if (
                replica.name in remaining
                and replica.applied_offset(shard_index) > offset
            ):
                self._lag_histogram.observe(max(0.0, now - revoke_time))
                remaining.discard(replica.name)
            if remaining:
                still_pending.append(pending)
        self._pending_revocations = still_pending

    def compact_logs(self, aggressive: bool = False) -> int:
        """Compact each shard's log.

        Default horizon is the slowest replica's applied offset (safe:
        nobody needs the dropped prefix).  ``aggressive=True`` compacts
        to the head regardless — the partition drill uses it to force a
        returning replica down the snapshot-then-replay path.
        """
        dropped = 0
        for shard_index, shard in enumerate(self._shards):
            if aggressive:
                horizon = shard.log.next_offset
            elif self._replicas:
                horizon = min(
                    r.applied_offset(shard_index)
                    for r in self._replicas.values()
                )
            else:
                horizon = shard.log.next_offset
            dropped += shard.log.compact_to(horizon)
        return dropped

    # ------------------------------------------------------------------
    # JSON API: the CookieServer ladder, plus the §14 extensions
    # ------------------------------------------------------------------
    def handle_request(self, request: dict[str, Any]) -> dict[str, Any]:
        op = request.get("op")
        try:
            if op == "acquire_batch":
                # Shape is checked before the first grant; what only a
                # grant can find wrong with an entry fails in its slot.
                requests = [
                    (str(user), str(service), *rest)
                    for user, service, *rest in request["requests"]
                ]
                return {"ok": True, "results": self.acquire_batch(requests)}
            if op in ("snapshot", "deltas_since"):
                shard_index = int(request["shard"])
                if not 0 <= shard_index < self.shard_count:
                    return {"ok": False, "error": "unknown shard"}
                shard = self._shards[shard_index]
                if op == "snapshot":
                    return {"ok": True, "snapshot": shard.snapshot().to_json()}
                try:
                    records = shard.log.since(int(request["offset"]))
                except LogTruncated as exc:
                    return {"ok": False, "truncated": True, "error": str(exc)}
                return {
                    "ok": True,
                    "records": [r.to_json() for r in records],
                    "next_offset": shard.log.next_offset,
                }
            if op == "stats":
                return {"ok": True, "stats": self.describe()}
        except (KeyError, TypeError, ValueError) as exc:
            return {"ok": False, "error": f"bad request: {exc}"}
        return serve_json(self, request)

    # ------------------------------------------------------------------
    # Introspection / telemetry
    # ------------------------------------------------------------------
    def shard_stats(self) -> list[dict[str, int]]:
        return [shard.stats() for shard in self._shards]

    def max_broadcast_lag(self) -> float:
        """Largest settled revocation-to-enforcement lag seen so far."""
        data = self._lag_histogram.snapshot()
        if data.count == 0:
            return 0.0
        return data.quantile(1.0)

    def describe(self) -> dict[str, Any]:
        return {
            "shards": self.shard_count,
            "staleness_bound": self.staleness_bound,
            "max_pending": self.max_pending,
            "inflight": self.inflight,
            "breaker_state": self.breaker.state,
            "replicas": {
                name: replica.stats()
                for name, replica in self._replicas.items()
            },
            "pending_revocations": len(self._pending_revocations),
            "dispatcher": self.stats.as_dict(),
            "shard_stats": self.shard_stats(),
        }

    def register_telemetry(
        self, registry: Any, prefix: str = "cp"
    ) -> None:
        """Fold per-shard ops, log lengths, shed counts, and the
        broadcast-lag histogram into a PR-1 metrics registry."""
        registry.register(self, prefix, read=self._read_metrics)

    def _read_metrics(self):
        counters = self.stats.as_dict()
        del counters["worker_failures"]  # a bench-oracle field, not a metric
        gauges = {
            "shards": self.shard_count,
            "replicas": len(self._replicas),
            "inflight": self.inflight,
            "pending_revocations": len(self._pending_revocations),
        }
        for stats in self.shard_stats():
            shard = f"shard{stats['shard']}"
            counters[f"{shard}.acquired"] = stats["acquired"]
            gauges[f"{shard}.log_len"] = stats["log_len"]
            gauges[f"{shard}.descriptors"] = stats["descriptors"]
        histograms = {"broadcast_lag_s": self._lag_histogram.snapshot()}
        return counters, gauges, histograms

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Nothing to release; kept so callers can use ``with``."""

    def __enter__(self) -> "ShardedControlPlane":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
