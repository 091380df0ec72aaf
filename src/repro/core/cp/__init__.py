"""Sharded control plane for the descriptor lifecycle (PROTOCOL.md §14).

The data plane scaled across PRs 2/3/5/6 (batched, sharded, multi-process
over shared-memory rings) while descriptor acquisition stayed a
single-threaded :class:`~repro.core.server.CookieServer` over a flat
store.  This package is the control-plane counterpart:

* :mod:`.deltalog` — the append-only per-shard delta log of ``add`` and
  ``revoke`` records, plus snapshots;
  ``snapshot + replay(log)`` reconstructs exact store state, and replay
  from a stale offset is idempotent (records below the applied offset are
  skipped), which is what makes replica catch-up after a partition safe.
* :mod:`.shard` — one :class:`ControlPlaneShard` owns the descriptors
  whose ids rendezvous-hash to it.  It *is* a
  :class:`~repro.core.server.CookieServer` — the one acquire / renew /
  revoke path and its op counters — with its delta log attached as one
  more enforcement store.  Shards are plain objects in
  the dispatcher's process — a partitioning and replication unit, not a
  speedup (§14.4).
* :mod:`.replica` — :class:`VerifierReplica`, a data-path descriptor
  store fed by snapshot + delta replay with per-shard applied offsets
  and a partition switch for drills.
* :mod:`.service` — :class:`ShardedControlPlane`, the front door: mints
  ids and routes each request to its shard by
  :func:`~repro.core.distributed.rendezvous_shard`, answers the
  ``CookieServer`` JSON ladder plus the §14 extensions, sheds bursts via
  the PR-4 :class:`~repro.core.resilience.CircuitBreaker` + a pending
  cap, broadcasts revocations to registered replicas under a measured
  staleness bound, and merges telemetry into the PR-1 registry.
* :mod:`.netserver` — :class:`AsyncControlPlaneServer`, the JSON-lines
  TCP front end with the connection/body caps shared with
  :class:`~repro.core.netserver.AsyncCookieServer`.
"""

from .deltalog import (
    DeltaLog,
    DeltaRecord,
    LogTruncated,
    StoreSnapshot,
    apply_record,
    replay,
)
from .replica import ReplicaUnreachable, VerifierReplica
from .service import ControlPlaneStats, ShardedControlPlane
from .shard import ControlPlaneShard
from .netserver import AsyncControlPlaneServer

__all__ = [
    "DeltaLog",
    "DeltaRecord",
    "LogTruncated",
    "StoreSnapshot",
    "apply_record",
    "replay",
    "ControlPlaneShard",
    "VerifierReplica",
    "ReplicaUnreachable",
    "ShardedControlPlane",
    "ControlPlaneStats",
    "AsyncControlPlaneServer",
]
