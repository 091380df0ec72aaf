"""The whole exported metric surface, pinned in one place.

Every component that exports telemetry is built once, registered under
its default prefix, and the sorted ``(kind, name)`` list of the merged
snapshot is compared to a literal recorded at the commit before the
declaration refactor (PR 23).  A metric renamed, dropped, added or moved
between ``counters`` and ``gauges`` fails here — no worker process, no
traffic, well under a second.  This retires the piecemeal "is this name
present" asserts that used to ride in ``test_wiring.py``.
"""

from repro.core import CookieMatcher, DescriptorStore
from repro.core.client import UserAgent
from repro.core.cp import ShardedControlPlane, VerifierReplica
from repro.core.distributed import ShardedVerifierPool
from repro.core.netserver import JsonLineServer
from repro.core.parallel import ProcessShardExecutor
from repro.core.resilience import ResilientChannel
from repro.core.sweep import run_sweep
from repro.core.switch import CookieSwitch
from repro.experiments.audit import (
    AuditCampaignReport,
    register_audit_telemetry,
)
from repro.netsim.events import EventLoop
from repro.netsim.faults import FaultInjector, FaultPlan
from repro.services.anylink import AnyLinkProxy
from repro.services.billing import BillingAccountant, BillingJournal
from repro.services.boost import BoostDaemon
from repro.services.zerorate import (
    CatalogSet,
    OperatorCatalog,
    ZeroRatingMiddlebox,
)
from repro.telemetry import MetricsRegistry

_MATCHER = [
    "accepted", "bad_signature", "expired", "replay_cache.rotations",
    "replayed", "revoked", "stale_timestamp", "unknown_id",
]
_SWITCH = [
    "acks_attached", "cookies_accepted", "cookies_found", "cookies_rejected",
    "flows_bound", "flows_evicted", "packets", "packets_served",
    "packets_sniffed", "verifier_failures",
]
_BOX = ["charged_bytes", "cookie_hits", "cookie_misses", "free_bytes",
        "packets_processed", "verifier_failures"]
_JOURNAL = [
    "append_failures", "bytes_appended", "corrupt_records", "fsyncs",
    "quarantined_bytes", "records_appended", "records_recovered",
    "segment_rotations", "segments_scanned", "torn_tail_bytes",
    "torn_tail_truncated",
]


def _under(prefix, names):
    return [f"{prefix}.{name}" for name in names]


EXPECTED_COUNTERS = sorted(
    _under("matcher", _MATCHER)
    + _under("switch", _SWITCH)
    + _under("middlebox", _BOX + ["flows_evicted_cap", "flows_evicted_idle",
                                  "flows_resolved", "subscribers_evicted"])
    + _under("anylink", _SWITCH)
    + _under("boost", ["boost_events", "degraded_activations_blocked",
                       "degraded_entered", "superseded_events"])
    + _under("boost.matcher", _MATCHER)
    + _under("boost.switch", _SWITCH)
    + _under("agent", ["cookies_inserted", "descriptors_acquired",
                       "descriptors_renewed", "grace_signings",
                       "insertions_failed", "renewals_failed"])
    + _under("retry", ["attempts", "exhausted", "failures", "rejected_open",
                       "retries", "successes"])
    + _under("breaker", ["closed_from_half_open", "opened", "rejections"])
    + _under("pool", ["accepted", "fallbacks", "rejected", "shard_restarts",
                      "unavailable_verdicts"])
    + _under("pool.matcher", _MATCHER)
    + _under("pool.shm", ["bytes_in", "bytes_out", "ring_dispatches"])
    + _under("cp", ["acquired", "denied", "renewed", "revoked",
                    "shard0.acquired", "shed_breaker", "shed_pending",
                    "snapshot_catchups", "syncs"])
    + _under("billing", ["bytes_accounted", "catalog_updates",
                         "charged_bytes", "flush_failures", "flushes",
                         "free_bytes", "packets_accounted"])
    + _under("billing.journal", _JOURNAL)
    + _under("faults", ["corruptions", "delays", "drops", "duplicates",
                        "packets", "reorders"])
    + _under("sweep", ["cells_completed", "cells_redispatched",
                       "cells_total", "sweeps", "worker_restarts"])
    + _under("audit", ["audits", "false_positives", "flagged_dimensions",
                       "personas_flagged", "personas_missed"])
    + _under("netserver", ["connections_handled", "connections_shed",
                           "oversize_requests"])
)

#: Names dropped since the recording, each with the reason it went.
REMOVED = {
    "cp.removed": "a descriptor is revoked, never removed: no store "
    "deletes one, so there is nothing to count",
    "pool.shm.backpressure_waits": "a dispatch never waits on a full "
    "ring: one frame in flight per shard, so a full ring is a dead shard",
    "pool.shm.pipe_dispatches": "no pipe rung",
    "pool.shm.oversize_pipe_fallbacks": "no pipe rung",
    "pool.shm.ring_setup_failures": "no pipe rung",
    "pool.shm.pipe_shards": "no pipe rung",
    **{
        f"{prefix}.replay_cache.idle_resets": "the replay cache is aged by "
        "the cookies' timestamps, which enter their generation in one "
        "step: there is no idle fast-forward to count"
        for prefix in ("matcher", "boost.matcher", "pool.matcher")
    },
    **{
        f"stateless.{name}": "the stateless rater is the middlebox fed "
        "packet-granularity grants, and counts under its prefix"
        for name in [*_BOX, "tracked_subscribers"]
    },
}

EXPECTED_GAUGES = sorted(
    ["matcher.replay_cache.size", "switch.tracked_flows",
     "middlebox.tracked_flows", "middlebox.tracked_subscribers",
     "anylink.active_shapers", "anylink.tracked_flows",
     "boost.boost_active", "boost.degraded",
     "boost.matcher.replay_cache.size", "boost.switch.tracked_flows",
     "breaker.state",
     "pool.fallback_shards", "pool.matcher.replay_cache.size", "pool.shards",
     "pool.shm.degraded", "pool.shm.ring_shards",
     "cp.inflight", "cp.pending_revocations", "cp.replicas", "cp.shards",
     "cp.shard0.descriptors", "cp.shard0.log_len",
     "billing.pending_bytes", "billing.pending_subscribers",
     "billing.journal.next_offset",
     # Levels, not counts: gauges since PR 23 (counters before it).
     "sweep.in_process", "sweep.workers",
     "audit.ok", "netserver.open_connections"]
    + [f"anylink.profile.{name}.flows"
       for name in ("2g", "3g", "dialup", "dsl")]
)


def test_metric_surface_is_pinned(tmp_path):
    clock = lambda: 0.0  # noqa: E731
    loop = EventLoop()
    store = DescriptorStore()
    registry = MetricsRegistry()

    matcher = CookieMatcher(store)
    matcher.register_telemetry(registry)
    CookieSwitch(matcher, clock=clock).register_telemetry(registry)
    ZeroRatingMiddlebox(matcher, clock=clock).register_telemetry(registry)
    AnyLinkProxy(loop, matcher).register_telemetry(registry)
    BoostDaemon(loop, store).register_telemetry(registry)
    UserAgent(
        "alice", clock, ResilientChannel(lambda request: {}, clock=clock)
    ).register_telemetry(registry)
    ShardedVerifierPool(store, shards=2).register_telemetry(registry)
    executor = ProcessShardExecutor(store, workers=2, transport="in-process")
    executor.register_telemetry(registry)
    executor.register_transport_telemetry(registry)
    controlplane = ShardedControlPlane(clock=clock, shards=1)
    controlplane.register_replica(VerifierReplica("surface"))
    controlplane.register_telemetry(registry)
    journal = BillingJournal(tmp_path, source="surface", fsync="never")
    accountant = BillingAccountant(
        CatalogSet([OperatorCatalog(operator="op")], default_operator="op"),
        journal,
    )
    accountant.register_telemetry(registry)
    journal.register_telemetry(registry)
    FaultInjector(FaultPlan()).register_telemetry(registry)
    run_sweep(lambda params, seed: 0, [], workers=0, telemetry=registry)
    register_audit_telemetry(registry, AuditCampaignReport(config={}))
    JsonLineServer().register_telemetry(registry)

    snapshot = registry.snapshot()
    executor.close()
    journal.close()

    assert sorted(snapshot.counters) == EXPECTED_COUNTERS
    assert sorted(snapshot.gauges) == EXPECTED_GAUGES
    assert sorted(snapshot.histograms) == ["cp.broadcast_lag_s"]
    assert not REMOVED.keys() & {*snapshot.counters, *snapshot.gauges}
