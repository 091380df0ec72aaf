"""Distributed uniqueness verification (§4.6's scale-out future work).

"The main challenge to scale out cookies in a distributed deployment
comes from verifying uniqueness as cookies from the same descriptor might
appear in different places (a problem known as double-spending in digital
cash schemes).  We can relax uniqueness verification in certain cases —
for example an ISP can ensure that all cookies from a specific descriptor
always go through the same middle-box where uniqueness can be locally
verified."

This module builds exactly that relaxation:

- :class:`ShardedVerifierPool` — N verifier shards behind a
  descriptor-affine dispatcher: every cookie of a descriptor lands on the
  same shard (rendezvous hashing), so local replay caches remain globally
  sound.
- :class:`NaiveVerifierPool` — the broken alternative (round-robin over
  shards with independent caches) used to *demonstrate* double-spending,
  quantified by the scale-out ablation benchmark.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

from .cookie import Cookie
from .descriptor import CookieDescriptor
from .matcher import NETWORK_COHERENCY_TIME, CookieMatcher
from .store import DescriptorStore

__all__ = [
    "ShardedVerifierPool",
    "NaiveVerifierPool",
    "PoolStats",
    "rendezvous_shard",
]


def rendezvous_shard(cookie_id: int, shard_count: int) -> int:
    """Highest-random-weight owner of ``cookie_id`` among ``shard_count``.

    A pure function of the descriptor id — no probe cookie, no per-call
    allocation — shared by the in-process pool, the process-shard
    executor, and provisioning code that steers a descriptor's flows to
    its box.  Rendezvous keeps (shards-1)/shards of assignments stable
    when a shard is added or removed.
    """
    key = cookie_id.to_bytes(8, "big")
    best_shard = 0
    best_weight = -1
    for index in range(shard_count):
        digest = hashlib.blake2b(
            key + index.to_bytes(4, "big"), digest_size=8
        ).digest()
        weight = int.from_bytes(digest, "big")
        if weight > best_weight:
            best_weight = weight
            best_shard = index
    return best_shard


@dataclass
class PoolStats:
    """Aggregate outcome counters across a pool."""

    accepted: int = 0
    rejected: int = 0
    #: Worker processes replaced after a crash (process executor only;
    #: always 0 for in-process pools).
    shard_restarts: int = 0
    #: Shards permanently handed to an in-process fallback matcher after
    #: exceeding ``max_restarts`` (process executor only).
    fallbacks: int = 0
    #: Cookies answered ``verifier_unavailable`` because their shard died
    #: twice within one dispatch (fail closed, process executor only).
    unavailable_verdicts: int = 0


class _VerifierPoolBase:
    """Common plumbing: N shards sharing one descriptor store.

    Sharing the store models the control plane pushing every descriptor
    to every box; only the *replay caches* are local per shard, which is
    where the double-spend question lives.
    """

    def __init__(
        self,
        store: DescriptorStore,
        shards: int,
        nct: float = NETWORK_COHERENCY_TIME,
    ) -> None:
        if shards < 1:
            raise ValueError("need at least one shard")
        self.store = store
        self.shards = [CookieMatcher(store, nct=nct) for _ in range(shards)]
        self.stats = PoolStats()
        #: The pool's replay generation: a shard's cache is moved up to
        #: it before the shard judges and it is read back after, so the
        #: pool keeps one floor whichever shard it picks.
        self.generation = 0

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def shard_for(self, cookie: Cookie) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def match(self, cookie: Cookie, now: float) -> CookieDescriptor | None:
        """Verify on whichever shard the dispatcher picks."""
        shard = self.shards[self.shard_for(cookie)]
        cache = shard.replay_cache
        cache.enter(self.generation)
        descriptor = shard.match(cookie, now)
        self.generation = cache.generation
        if descriptor is None:
            self.stats.rejected += 1
        else:
            self.stats.accepted += 1
        return descriptor

    def match_batch(
        self, cookies: Sequence[Cookie], now: float
    ) -> list[CookieDescriptor | None]:
        """Batched verification; the default dispatches one at a time.

        Subclasses with a stable dispatch function override this to
        group cookies per shard and use each shard's batched matcher.
        """
        return [self.match(cookie, now) for cookie in cookies]


class ShardedVerifierPool(_VerifierPoolBase):
    """Descriptor-affine dispatch: uniqueness stays locally verifiable.

    Rendezvous (highest-random-weight) hashing maps each descriptor id to
    one shard, so replaying a cookie anywhere in the pool always revisits
    the shard that saw it first.  Rendezvous keeps (shards-1)/shards of
    assignments stable when a shard is added or removed — relevant for an
    NFV pool that scales with load.
    """

    def __init__(
        self,
        store: DescriptorStore,
        shards: int,
        nct: float = NETWORK_COHERENCY_TIME,
    ) -> None:
        super().__init__(store, shards, nct=nct)
        # cookie_id -> shard index; valid for the pool's fixed shard
        # count (one entry per descriptor, bounded by the store).
        self._shard_memo: dict[int, int] = {}

    def _shard_index(self, cookie_id: int) -> int:
        """Memoized rendezvous assignment — the hash is a pure function
        of the id, so the memo never goes stale while the shard count is
        fixed, and both the scalar and batched dispatch consult it."""
        memo = self._shard_memo
        shard_index = memo.get(cookie_id)
        if shard_index is None:
            shard_index = rendezvous_shard(cookie_id, self.shard_count)
            memo[cookie_id] = shard_index
        return shard_index

    def shard_for(self, cookie: Cookie) -> int:
        return self._shard_index(cookie.cookie_id)

    def match_batch(
        self, cookies: Sequence[Cookie], now: float
    ) -> list[CookieDescriptor | None]:
        """Batched dispatch: group per shard, verify per-shard batches.

        Rendezvous hashing costs one blake2b per shard per *descriptor*,
        not per cookie: assignments are memoized by cookie id (they are
        a pure function of it, so the memo never goes stale while the
        shard count is fixed).  Cookies keep their relative order within
        each shard's sub-batch, which is the only order replay detection
        can depend on — all cookies of a descriptor land on one shard.
        Every shard enters the pool's generation as the batch came in
        (as a process executor's must); a floor a batch raises stays
        below ``now`` - NCT.  So grants are identical to
        a scalar left-to-right pass, and each
        shard's :class:`~repro.core.matcher.CookieMatcher` amortizes its
        own HMAC/descriptor work via ``match_batch``.
        """
        shard_index_for = self._shard_index
        generation = self.generation
        per_shard: dict[int, list[int]] = {}
        for position, cookie in enumerate(cookies):
            per_shard.setdefault(
                shard_index_for(cookie.cookie_id), []
            ).append(position)
        results: list[CookieDescriptor | None] = [None] * len(cookies)
        accepted = 0
        for shard_index, positions in per_shard.items():
            shard = self.shards[shard_index]
            cache = shard.replay_cache
            cache.enter(generation)
            verdicts = shard.match_batch(
                [cookies[position] for position in positions], now
            )
            self.generation = max(self.generation, cache.generation)
            for position, verdict in zip(positions, verdicts):
                results[position] = verdict
                if verdict is not None:
                    accepted += 1
        self.stats.accepted += accepted
        self.stats.rejected += len(cookies) - accepted
        return results

    def register_telemetry(self, registry, prefix: str = "pool") -> None:
        """Export the pool into a :class:`~repro.telemetry.MetricsRegistry`.

        Each shard's :class:`~repro.core.matcher.CookieMatcher` registers
        under the *shared* prefix ``{prefix}.matcher``, so the registry
        sums shard counters into pool totals; the pool itself adds the
        dispatcher's own :class:`PoolStats`.  Any verifier pool that
        emits the same metric names is interchangeable with this one
        under one dashboard.
        """
        registry.register(
            self,
            prefix,
            counters=("stats",),
            read=self._read_metrics,
            nested=[("matcher", shard) for shard in self.shards],
        )

    def _read_metrics(self):
        # ``fallbacks`` / ``fallback_shards`` are always zero in-process;
        # emitted so dashboards (and the differential suite) see one
        # metric set across in-process and multi-process pools.
        return {}, {"shards": self.shard_count, "fallback_shards": 0}


class NaiveVerifierPool(_VerifierPoolBase):
    """Load-balanced dispatch with NO descriptor affinity.

    Each shard keeps an independent replay cache, so the same cookie can
    be "spent" once per shard — up to ``shard_count`` grants for one
    cookie.  Exists to make the double-spend risk measurable; do not
    deploy.
    """

    def __init__(self, store: DescriptorStore, shards: int, nct: float = NETWORK_COHERENCY_TIME) -> None:
        super().__init__(store, shards, nct=nct)
        self._cursor = 0

    def shard_for(self, cookie: Cookie) -> int:
        shard = self._cursor
        self._cursor = (self._cursor + 1) % self.shard_count
        return shard
