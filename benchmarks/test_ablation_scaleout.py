"""Ablation — scaling out verification without enabling double-spending.

§4.6 leaves distributed uniqueness verification as future work but
sketches the fix: route all cookies of a descriptor through one box.
This benchmark quantifies both sides on the same workload:

- a descriptor-affine sharded pool grants each cookie exactly once while
  spreading load across shards;
- a naive load-balanced pool grants the same cookie once *per shard* —
  measurable double-spending.

``test_scaleout_multicore`` then measures the payoff of doing it with
real cores: the :class:`ProcessShardExecutor` (shared-memory ring
transport via ``auto``) at 1/2/4 workers against the in-process pool on
one verification-bound stream (the paper's §5 linear-scaling claim,
Fig. 4's regime).  It always writes
``benchmarks/reports/scaleout_multicore.json`` for the CI step summary
and asserts the ≥0.9x single-worker floor.
"""

import json
import pathlib

from repro.core import CookieDescriptor, CookieGenerator, DescriptorStore
from repro.core.distributed import NaiveVerifierPool, ShardedVerifierPool
from repro.experiments.scaleout import format_scaleout_report, run_scaleout

SHARDS = 4
DESCRIPTORS = 200
COOKIES = 1_000
REPLAYS_PER_COOKIE = 3


def _workload():
    store = DescriptorStore()
    descriptors = [
        store.add(CookieDescriptor.create(service_data="Boost"))
        for _ in range(DESCRIPTORS)
    ]
    generators = [CookieGenerator(d, clock=lambda: 0.0) for d in descriptors]
    cookies = [generators[i % DESCRIPTORS].generate() for i in range(COOKIES)]
    return store, cookies


def _grants(pool, cookies) -> int:
    grants = 0
    for cookie in cookies:
        for _ in range(1 + REPLAYS_PER_COOKIE):
            if pool.match(cookie, now=0.0) is not None:
                grants += 1
    return grants


def _presentations(cookies):
    """The same workload _grants drives, flattened into one sequence."""
    out = []
    for cookie in cookies:
        out.extend([cookie] * (1 + REPLAYS_PER_COOKIE))
    return out


def _grants_batched(pool, cookies, batch_size: int = 256) -> int:
    stream = _presentations(cookies)
    grants = 0
    for start in range(0, len(stream), batch_size):
        verdicts = pool.match_batch(stream[start : start + batch_size], now=0.0)
        grants += sum(1 for verdict in verdicts if verdict is not None)
    return grants


def test_ablation_scaleout_double_spend(benchmark, report):
    store, cookies = _workload()
    sharded = ShardedVerifierPool(store, shards=SHARDS)
    sharded_grants = benchmark.pedantic(
        lambda: _grants(ShardedVerifierPool(store, shards=SHARDS), cookies),
        rounds=1,
        iterations=1,
    )
    _grants(sharded, cookies)
    naive = NaiveVerifierPool(store, shards=SHARDS)
    naive_grants = _grants(naive, cookies)

    report(f"{COOKIES} cookies, each replayed {REPLAYS_PER_COOKIE}x, "
           f"{SHARDS} verifier shards")
    report(f"  descriptor-affine pool grants: {sharded_grants:,} "
           f"(exactly one per cookie)")
    report(f"  naive load-balanced grants:    {naive_grants:,} "
           f"({naive_grants / COOKIES:.2f} per cookie — double-spending)")

    benchmark.extra_info["sharded_grants"] = sharded_grants
    benchmark.extra_info["naive_grants"] = naive_grants

    assert sharded_grants == COOKIES
    # Round-robin over 4 shards with 4 presentations: every presentation
    # hits a fresh cache, so each cookie is granted SHARDS times.
    assert naive_grants == COOKIES * SHARDS


def test_ablation_scaleout_scalar_vs_batched(benchmark, report):
    """Batched dispatch must beat per-cookie dispatch while granting the
    exact same set.  Both paths now memoize the rendezvous hash (scalar
    ``match`` shares the batch path's ``_shard_memo``), so the remaining
    edge is per-shard ``match_batch`` amortization — HMAC context reuse
    and single-pass local binding — worth ~1.4x rather than the ~2x+ it
    measured when the scalar baseline still paid blake2b per call."""
    import time

    store, cookies = _workload()

    def best_of(fn, rounds=3):
        best = float("inf")
        grants = None
        for _ in range(rounds):
            pool = ShardedVerifierPool(store, shards=SHARDS)
            start = time.perf_counter()
            grants = fn(pool, cookies)
            best = min(best, time.perf_counter() - start)
        return grants, best

    scalar_grants, scalar_s = best_of(_grants)
    batched_grants, batched_s = benchmark.pedantic(
        lambda: best_of(_grants_batched), rounds=1, iterations=1
    )
    presentations = COOKIES * (1 + REPLAYS_PER_COOKIE)
    scalar_cps = presentations / scalar_s
    batched_cps = presentations / batched_s
    speedup = batched_cps / scalar_cps

    report(f"{presentations:,} cookie presentations over {SHARDS} shards")
    report(f"  scalar match():       {scalar_cps:,.0f} cookies/s")
    report(f"  batched match_batch(): {batched_cps:,.0f} cookies/s")
    report(f"  speedup: {speedup:.2f}x")
    benchmark.extra_info["scalar_cookies_per_s"] = round(scalar_cps)
    benchmark.extra_info["batched_cookies_per_s"] = round(batched_cps)
    benchmark.extra_info["speedup"] = round(speedup, 3)

    assert scalar_grants == batched_grants == COOKIES
    assert speedup >= 1.15, (scalar_cps, batched_cps)


MULTICORE_WORKER_COUNTS = (1, 2, 4)
#: 1 worker must never lose meaningfully to the in-process
#: pool.  On multi-core boxes the ring transport pipelines encode
#: against verification; on single-core boxes ``auto`` degrades to
#: in-process service — either way the 0.45x regression class of the
#: pipe transport cannot land again.
SINGLE_WORKER_FLOOR = 0.9
MULTICORE_JSON = pathlib.Path(__file__).parent / "reports" / "scaleout_multicore.json"


def test_scaleout_multicore(benchmark, report):
    """Fig. 4 scale-out: process shards vs the in-process pool.

    The JSON report is written unconditionally (CI publishes it to the
    step summary; the checked-in copy documents a reference run).  The
    ≥0.9x single-worker floor holds everywhere because the degrade
    ladder guarantees it by construction.
    """
    result = benchmark.pedantic(
        lambda: run_scaleout(worker_counts=MULTICORE_WORKER_COUNTS, rounds=2),
        rounds=1,
        iterations=1,
    )

    MULTICORE_JSON.parent.mkdir(exist_ok=True)
    MULTICORE_JSON.write_text(json.dumps(result, indent=2) + "\n")
    for line in format_scaleout_report(result).splitlines():
        report(line)

    configs = {
        c["workers"]: c
        for c in result["configs"]
        if c["mode"] == "multi-process"
    }
    total = result["workload"]["cookies"]
    # Every configuration grants every cookie exactly once: the stream is
    # all-valid and unique, and a fresh pool starts each round cold.
    for config in result["configs"]:
        assert config["grants"] == total, config
    one, four = configs[1], configs[4]
    benchmark.extra_info["cookies_per_s_4_workers"] = four["cookies_per_s"]
    benchmark.extra_info["speedup_vs_in_process"] = (
        four["speedup_vs_in_process"]
    )
    benchmark.extra_info["transport_4_workers"] = four["transport"]
    benchmark.extra_info["cpu_count"] = result["cpu_count"]

    # The report must say what it measured: a degrade-mode row can never
    # masquerade as a multi-core result.
    for config in configs.values():
        assert config["transport"] in {"shm", "in-process"}
        assert config["degraded"] == (config["transport"] == "in-process")

    assert one["speedup_vs_in_process"] >= SINGLE_WORKER_FLOOR, result


def test_ablation_scaleout_load_balance(benchmark, report):
    """Affinity must not defeat the point of scaling out: descriptors
    spread roughly evenly across shards."""
    store, cookies = _workload()

    def measure():
        pool = ShardedVerifierPool(store, shards=SHARDS)
        per_shard = [0] * SHARDS
        for cookie in cookies:
            per_shard[pool.shard_for(cookie)] += 1
        return per_shard

    per_shard = benchmark(measure)
    report(f"cookies per shard: {per_shard}")
    expected = COOKIES / SHARDS
    for load in per_shard:
        assert expected * 0.5 < load < expected * 1.6
