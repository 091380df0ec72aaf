"""``verify-pool``: cookies through ``ProcessShardExecutor.match_batch``,
IPC included.

The dispatcher (this process) plus the workers equals the core count:
``workers = max(1, min(nproc, 4) - 1)``, one worker on the 2-core
reference box.  A run that did not get real worker processes over
shared-memory rings is a *failed* run — it must never report in-process
numbers under a multi-process name.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass
from typing import Any

from repro.core.cookie import Cookie
from repro.core.generator import CookieGenerator
from repro.core.parallel import ProcessShardExecutor
from repro.core.seeding import derive_seed
from repro.core.store import DescriptorStore

from .common import T0, chunks
from .corpus import make_descriptor
from .tracing import Tracer
from .workload import RoundSample, RoundTimer, Verdict, Workload

POOL_DESCRIPTORS = 64
POOL_COOKIES = 12 * 2_048
POOL_BATCH = 2_048


def pool_workers() -> int:
    return max(1, min(os.cpu_count() or 1, 4) - 1)


def build_cookie_stream(
    seed: int, descriptors: int, cookies: int
) -> tuple[DescriptorStore, list[Cookie]]:
    """Unique valid cookies, round-robin over ``descriptors``: each pays
    the full HMAC + replay-cache path."""
    rng = random.Random(derive_seed(seed, "bench", "cookie-stream"))
    store = DescriptorStore()
    generators = [
        CookieGenerator(
            store.add(make_descriptor(rng)), clock=lambda: T0, rng=rng.randbytes
        )
        for _ in range(descriptors)
    ]
    return store, [
        generators[index % descriptors].generate() for index in range(cookies)
    ]


@dataclass
class PoolDevice:
    pool: ProcessShardExecutor
    grants: int = 0
    wrong: int = 0


class VerifyPool(Workload):
    name = "verify-pool"
    item = "cookie"
    rate_alias = "cookies_per_s"
    call = "one 2048-cookie match_batch dispatch"
    rss_includes_children = True

    def setup(self) -> None:
        cookies = max(POOL_BATCH * 2, int(POOL_COOKIES * self.scale))
        self.store, self.cookies = build_cookie_stream(
            self.seed, POOL_DESCRIPTORS, cookies
        )
        self.batches = [list(batch) for batch in chunks(self.cookies, POOL_BATCH)]
        # Digesting here also fills every cookie's memoized wire form, so
        # round 1 encodes what later rounds (and cookies parsed off a
        # wire) encode.
        digest = hashlib.sha256()
        for cookie in self.cookies:
            digest.update(cookie.to_bytes())
        self.digest = digest.hexdigest()
        self.workers = pool_workers()
        self.transport = "unknown"
        self.degraded = False

    def new_device(self, tracer: Tracer | None = None) -> PoolDevice:
        pool = ProcessShardExecutor.auto(self.store, workers=self.workers)
        self.transport = pool.transport
        self.degraded = pool.degraded
        return PoolDevice(pool=pool)

    def drive(self, device: PoolDevice, tracer: Tracer | None = None) -> RoundSample:
        match_batch = device.pool.match_batch
        if tracer is not None:
            match_batch = tracer.wrap("core.parallel.match_batch", match_batch)
        grants = wrong = 0
        with RoundTimer(tracer) as timer:
            for index, batch in enumerate(self.batches):
                if tracer is not None:
                    tracer.current_id = index
                verdicts = match_batch(batch, T0)
                # Consume the result inside the timed region: a grant is
                # a descriptor, and it must be the cookie's own.
                for cookie, verdict in zip(batch, verdicts):
                    if verdict is None:
                        continue
                    grants += 1
                    if verdict.cookie_id != cookie.cookie_id:
                        wrong += 1
                timer.lap()
        device.grants, device.wrong = grants, wrong
        return timer.sample(len(self.cookies))

    def check(self, device: PoolDevice, first_round: bool) -> Verdict:
        pool = device.pool
        verdict = Verdict(attempted=len(self.cookies))
        verdict.expect("grants", device.grants, len(self.cookies))
        verdict.expect("grants for the wrong descriptor", device.wrong, 0)
        stats = pool.collect_match_stats()
        verdict.expect("MatchStats.accepted", stats.accepted, len(self.cookies))
        verdict.expect("MatchStats.rejected", stats.rejected, 0)
        verdict.expect("shard_restarts", pool.stats.shard_restarts, 0)
        verdict.expect("fallbacks", pool.stats.fallbacks, 0)
        if pool.degraded or pool.transport != "shm":
            # Not the system this workload names: fail the whole round.
            verdict.failed = verdict.attempted
            verdict.notes.insert(
                0,
                f"pool is degraded={pool.degraded} transport={pool.transport!r}; "
                "verify-pool needs worker processes over shm rings",
            )
        return verdict

    def dispose(self, device: PoolDevice) -> None:
        device.pool.close()

    def counters(self, device: PoolDevice) -> dict[str, float]:
        return {
            "core.parallel.shard_restarts": device.pool.stats.shard_restarts,
            "core.parallel.fallbacks": device.pool.stats.fallbacks,
        }

    def describe(self) -> dict[str, Any]:
        return {
            "corpus_digest": self.digest,
            "cookies": len(self.cookies),
            "descriptors": POOL_DESCRIPTORS,
            "batch": POOL_BATCH,
            "workers": self.workers,
            "transport": self.transport,
            "degraded": self.degraded,
        }
