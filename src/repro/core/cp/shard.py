"""One control-plane shard: a :class:`CookieServer` with a delta log attached.

A shard owns every descriptor whose cookie id rendezvous-hashes to it
(:func:`~repro.core.distributed.rendezvous_shard` — the same placement
the data-plane pools use, so a control-plane shard and its data-plane
counterpart agree on ownership for free).  The dispatcher mints cookie
ids and routes; the shard is the acquisition core of
:mod:`repro.core.server` — it authorizes, stores, revokes and removes
there, not here — and what this module adds is the replication
feed: the shard's :class:`~.deltalog.DeltaLog` is attached as one more
enforcement store, so every successful mutation appends a
:class:`~.deltalog.DeltaRecord` stamped from the shard's clock, and
``shard.snapshot()`` + ``shard.log.since(offset)`` is always complete.

Shards run unaudited, behind a no-op audit log (PROTOCOL.md §14.1), as
plain objects in the dispatcher's process (§14.4 has the measurement
behind that).
"""

from __future__ import annotations

from typing import Callable

from ...audit.log import NullAuditLog
from ..policy import AccessPolicy
from ..server import CookieServer
from .deltalog import DeltaLog, StoreSnapshot

__all__ = ["ControlPlaneShard"]


class ControlPlaneShard(CookieServer):
    """The cookie server for one rendezvous shard, plus its delta log."""

    def __init__(
        self,
        index: int,
        clock: Callable[[], float],
        policy: AccessPolicy | None = None,
    ) -> None:
        super().__init__(clock, policy=policy, audit_log=NullAuditLog())
        self.index = index
        self.store = self.issued  # the name replication code knows it by
        self.log = DeltaLog(clock=clock)
        self.attach_enforcement_store(self.log)

    def snapshot(self) -> StoreSnapshot:
        return StoreSnapshot.take(self.issued, self.log.next_offset)

    def stats(self) -> dict[str, int]:
        return {
            "shard": self.index,
            "acquired": self.acquired,
            "denied": self.denied,
            "revoked": self.revoked,
            "removed": self.removed,
            "descriptors": len(self.issued),
            "log_len": len(self.log),
            "log_base": self.log.base_offset,
            "log_next": self.log.next_offset,
        }
