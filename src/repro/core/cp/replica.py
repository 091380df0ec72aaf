"""Verifier replicas: data-path stores fed by the control-plane log.

A :class:`VerifierReplica` is what a middlebox or switch actually reads
(:class:`~repro.core.matcher.CookieMatcher` takes ``replica.store`` as
its descriptor table).  It tracks one applied offset per control-plane
shard and converges by replaying deltas; when its offset has fallen
behind a shard's compaction horizon — the normal aftermath of a
partition — it catches up by snapshot-then-replay instead
(PROTOCOL.md §14.5).

The ``partitioned`` switch models a network partition for drills: while
set, :meth:`apply_deltas` and :meth:`install_snapshot` raise
:class:`ReplicaUnreachable` and the replica's state freezes, exactly as
a cut-off verifier's would.
"""

from __future__ import annotations

from typing import Any

from ..store import DescriptorStore
from .deltalog import DeltaRecord, StoreSnapshot, replay

__all__ = ["ReplicaUnreachable", "VerifierReplica"]


class ReplicaUnreachable(Exception):
    """The replica is on the wrong side of a (simulated) partition."""


class VerifierReplica:
    """A descriptor store converging on the sharded control plane;
    ``store`` may be a verifier pool, whose shards are then as current,
    or as stale, as the replica."""

    def __init__(self, name: str = "replica", store: Any | None = None) -> None:
        self.name = name
        self.store = store if store is not None else DescriptorStore()
        #: next expected log offset, per shard index
        self.applied: dict[int, int] = {}
        self.partitioned = False
        # Convergence accounting (read by the service's telemetry).
        self.records_applied = 0
        self.records_skipped = 0
        self.snapshots_installed = 0
        # Revocation lag (apply time - revoke time): the worst sample and
        # how many were taken — bounded, however long the replica lives.
        self.revocation_lag_max = 0.0
        self.revocation_lag_samples = 0

    def _check_reachable(self) -> None:
        if self.partitioned:
            raise ReplicaUnreachable(f"replica {self.name!r} is partitioned")

    def partition(self) -> None:
        """Cut the replica off; state freezes until :meth:`heal`."""
        self.partitioned = True

    def heal(self) -> None:
        self.partitioned = False

    def applied_offset(self, shard: int) -> int:
        return self.applied.get(shard, 0)

    def apply_deltas(
        self,
        shard: int,
        records: list[DeltaRecord],
        now: float | None = None,
    ) -> int:
        """Replay a delta window from ``shard``; returns records applied.

        Idempotent against redelivery: records below the shard's applied
        offset are skipped (see :func:`~.deltalog.replay`).  ``now``
        timestamps revocation-lag samples — the §14.3 staleness metric is
        ``apply time − revoke time`` for every revoke record applied.
        """
        self._check_reachable()
        before = self.applied_offset(shard)
        fresh = [r for r in records if r.offset >= before]
        self.applied[shard] = replay(self.store, records, before)
        self.records_applied += len(fresh)
        self.records_skipped += len(records) - len(fresh)
        if now is not None:
            for record in fresh:
                if record.op == "revoke":
                    self.revocation_lag_samples += 1
                    self.revocation_lag_max = max(
                        self.revocation_lag_max, now - record.time
                    )
        return len(fresh)

    def install_snapshot(self, shard: int, snapshot: StoreSnapshot) -> int:
        """Adopt a full snapshot for ``shard`` (catch-up past truncation).

        The replica's store holds the union of all shards, so installing
        adds/overwrites everything the snapshot carries and leaves other
        shards' descriptors alone.  Nothing needs dropping: a shard's
        store only grows (a descriptor is revoked, never removed), so the
        snapshot holds every id this replica already has from ``shard``.
        """
        self._check_reachable()
        for descriptor in snapshot.materialize():
            self.store.add(descriptor)
        self.applied[shard] = snapshot.offset
        self.snapshots_installed += 1
        return len(snapshot.descriptors)

    def max_revocation_lag(self) -> float:
        return self.revocation_lag_max

    def stats(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "descriptors": len(self.store),
            "applied": dict(self.applied),
            "records_applied": self.records_applied,
            "records_skipped": self.records_skipped,
            "snapshots_installed": self.snapshots_installed,
            "partitioned": self.partitioned,
            "max_revocation_lag": self.max_revocation_lag(),
        }
