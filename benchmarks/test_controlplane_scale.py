"""Million-subscriber control-plane scale benchmark (PR 8).

Replays a seeded Zipf churn schedule (70/20/10 acquire/renew/revoke over
the Fig. 2 app skew) against :class:`repro.core.cp.ShardedControlPlane`
at 1/2/4 shards and against the single-threaded PR-0 ``CookieServer``,
measures open-loop p50/p99 acquisition latency, and drills
revocation-to-enforcement lag against live zero-rating middleboxes —
including a replica that returns from a partition after log compaction
(snapshot-then-replay catch-up).

``benchmarks/reports/controlplane_1m.json`` is written unconditionally
(CI publishes it to the step summary; it is a run output, not
tracked).  Shards are a partitioning and replication unit inside
one process, so no sharded-speedup floor is asserted (PROTOCOL.md §14.4);
the single-shard floor vs ``CookieServer``, the whole-schedule check and
the staleness-bound assertions hold on any core count.

``REPRO_CP_SUBSCRIBERS`` scales the population (CI's soak runs 50k; the
checked-in report is the full million).
"""

import json
import os
import pathlib

from repro.experiments.controlplane import (
    format_controlplane_report,
    run_controlplane,
)

SHARD_COUNTS = (1, 2, 4)
SUBSCRIBERS = int(os.environ.get("REPRO_CP_SUBSCRIBERS", 1_000_000))
#: Ungated: one shard of the full delta-logged, breaker-gated control
#: plane must stay within striking distance of the bare dict-backed
#: CookieServer — the lifecycle machinery cannot cost an order of
#: magnitude.
SINGLE_SHARD_VS_BASELINE_FLOOR = 0.40
CONTROLPLANE_JSON = (
    pathlib.Path(__file__).parent / "reports" / "controlplane_1m.json"
)


def test_controlplane_scale(benchmark, report):
    result = benchmark.pedantic(
        lambda: run_controlplane(
            subscribers=SUBSCRIBERS, shard_counts=SHARD_COUNTS
        ),
        rounds=1,
        iterations=1,
    )

    CONTROLPLANE_JSON.parent.mkdir(exist_ok=True)
    CONTROLPLANE_JSON.write_text(json.dumps(result, indent=2) + "\n")
    for line in format_controlplane_report(result).splitlines():
        report(line)

    configs = {c["shards"]: c for c in result["configs"]}
    one, four = configs[1], configs[4]
    revocation = result["revocation"]

    benchmark.extra_info["ops_per_s_1_shard"] = (
        one["closed_loop"]["ops_per_s"]
    )
    benchmark.extra_info["ops_per_s_4_shards"] = (
        four["closed_loop"]["ops_per_s"]
    )
    benchmark.extra_info["p99_ms_4_shards"] = four["open_loop"]["p99_ms"]
    benchmark.extra_info["speedup_4_vs_1"] = four.get("speedup_vs_1_shard")
    benchmark.extra_info["max_broadcast_lag_s"] = (
        revocation["max_broadcast_lag_s"]
    )
    benchmark.extra_info["cpu_count"] = result["cpu_count"]

    # Every config processed the whole schedule: nothing silently lost.
    for config in result["configs"]:
        closed = config["closed_loop"]
        assert closed["ops"] + closed["denied"] + closed["skipped"] == (
            result["workload"]["churn_events"]
        ), config
        open_loop = config["open_loop"]
        assert open_loop["completed"] + open_loop["shed"] == (
            open_loop["ops"]
        ), config
        assert open_loop["p99_ms"] >= open_loop["p50_ms"] > 0.0, config

    # Ungated single-shard floor vs the PR-0 server.
    assert one["speedup_vs_baseline"] >= SINGLE_SHARD_VS_BASELINE_FLOOR, (
        result["baseline"],
        one,
    )

    # Revocation-to-enforcement: live middleboxes flipped free->charged,
    # the partitioned replica caught up by snapshot-then-replay, and the
    # worst observed broadcast lag honored the advertised bound.
    assert revocation["enforced_before_revocation"], revocation
    assert revocation["enforced_after_revocation"], revocation
    assert revocation["partition_caught_up"], revocation
    assert revocation["snapshot_catchups"] >= 1, revocation
    assert revocation["within_bound"], revocation
    assert revocation["max_broadcast_lag_s"] <= (
        result["staleness_bound_s"]
    ), revocation
