"""Billing accountant: data path -> catalog decision -> journal flush.

The accountant sits between the zero-rating middlebox (fed flow or
packet grants) and the durable journal.  Every accounted packet — or run
of packets that differ only in size, see :meth:`account_run` — gets a
:class:`~repro.services.zerorate.catalog.BillingDecision` from the
:class:`~repro.services.zerorate.catalog.CatalogSet`; the resulting
byte delta accumulates in a *pending* buffer and is written to the
journal when the subscriber is flushed — which MUST happen before the
middlebox evicts the subscriber's counters (the satellite-2 contract:
eviction without a flush is a raise, not a warning, because it is
silent revenue loss).

Cap accounting (``cap_used``) tracks *free* bytes per (operator,
subscriber) and is consulted before the pending buffer is journaled, so
the cap bites in real time, not at flush granularity.  An accountant
built over a journal that already holds records (a restart over a
recovered directory) starts ``cap_used`` at the free bytes those
records carry, so a crash does not hand anyone a fresh cap; records a
compaction already deleted are not counted.

A :class:`~repro.services.billing.journal.JournalFull` during flush
keeps the delta pending (nothing lost, counted in ``flush_failures``);
the caller clears the disk and flushes again.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..zerorate.catalog import CatalogSet
from .journal import BillingJournal, JournalFull

if TYPE_CHECKING:  # pragma: no cover - hints only
    from ...telemetry import MetricsRegistry

__all__ = ["BillingAccountant"]

#: pending bucket key: (app, byte_class, free)
_Bucket = tuple


class BillingAccountant:
    """Accumulates catalog-decided byte deltas and journals them."""

    def __init__(self, catalogs: CatalogSet, journal: BillingJournal) -> None:
        self.catalogs = catalogs
        self.journal = journal
        #: (operator, subscriber) -> {(app, byte_class, free): bytes}
        self._pending: dict[tuple[str, str], dict[_Bucket, int]] = {}
        #: subscriber -> its keys in ``_pending``, oldest first (two
        #: after a re-``assign``), so a flush touches only its own
        self._pending_keys: dict[str, list[tuple[str, str]]] = {}
        #: (operator, subscriber) -> free bytes counted against the cap,
        #: starting from what the journal already holds
        self._cap_used: dict[tuple[str, str], int] = {}
        if journal.next_offset:  # an empty journal is not read (or synced)
            for record in journal.records():
                key = (record.operator, record.subscriber)
                self._cap_used[key] = (
                    self._cap_used.get(key, 0) + record.free_bytes
                )
        self.packets_accounted = 0
        self.bytes_accounted = 0
        self.free_bytes = 0
        self.charged_bytes = 0
        self.flushes = 0
        self.flush_failures = 0

    # ------------------------------------------------------------------
    # Data-path entry point
    # ------------------------------------------------------------------
    def account(
        self,
        subscriber_ip: str,
        app: str | None,
        server_ip: str | None,
        nbytes: int,
        *,
        cookied: bool,
        now: float = 0.0,
    ) -> bool:
        """Classify + buffer one packet's bytes; returns freeness.

        The returned bool is what the data path mirrors into its own
        free/charged counters and the packet's ``zero_rated`` meta, so
        the wire-visible decision and the invoice can never disagree.
        The one-packet case of :meth:`account_run`.
        """
        return self.account_run(
            subscriber_ip, app, server_ip, (nbytes,), cookied=cookied, now=now
        )[0]

    def account_run(
        self,
        subscriber_ip: str,
        app: str | None,
        server_ip: str | None,
        sizes: Sequence[int],
        *,
        cookied: bool,
        now: float = 0.0,
    ) -> list[bool]:
        """Classify + buffer a run of packets that share everything but
        their sizes; returns each packet's freeness, in order.

        Operator, coverage, tranche, roaming and catalog version are
        constants of a run, so one catalog decision on the run's total
        settles every packet unless the cap is in the way: a total that
        fits means every prefix fits (sizes are non-negative), and a
        charge for any reason but the cap does not depend on size.  Only
        a total the cap refuses is walked packet by packet under the
        catalog's own rule (``cap_used + nbytes > cap_bytes``) — a
        packet too big for what is left does not stop a later, smaller
        one from fitting, so freeness is per packet, not a prefix.
        Buckets, cap state and counters end exactly where ``len(sizes)``
        calls to :meth:`account` would leave them.
        """
        total = sum(sizes)
        used = self.cap_used(subscriber_ip)
        decide = self.catalogs.decide
        decision = decide(
            subscriber_ip, app, server_ip, total, cookied=cookied, cap_used=used
        )
        if decision.byte_class != "cap_exhausted":
            flags = [decision.free] * len(sizes)
            free = total if decision.free else 0
            parts = ((decision, total),)
        else:
            cap = self.catalogs.cap_of(decision.operator)
            flags = []
            free = 0
            for nbytes in sizes:
                fits = used + free + nbytes <= cap
                flags.append(fits)
                if fits:
                    free += nbytes
            parts = ((decision, total - free),)
            if free:
                # What fitted, asked about as one piece: it fits, so the
                # answer names the class those bytes ride free under.
                fitted = decide(
                    subscriber_ip, app, server_ip, free,
                    cookied=cookied, cap_used=used,
                )
                parts += ((fitted, free),)
        key = (decision.operator, subscriber_ip)
        pending = self._pending.get(key)
        if pending is None:
            pending = self._pending[key] = {}
            self._pending_keys.setdefault(subscriber_ip, []).append(key)
        for verdict, nbytes in parts:
            if nbytes:
                bucket = (verdict.app, verdict.byte_class, verdict.free)
                pending[bucket] = pending.get(bucket, 0) + nbytes
        if free:
            self._cap_used[key] = used + free
            self.free_bytes += free
        self.charged_bytes += total - free
        self.packets_accounted += len(sizes)
        self.bytes_accounted += total
        return flags

    # ------------------------------------------------------------------
    # Flush path (the durability contract)
    # ------------------------------------------------------------------
    def flush_subscriber(self, subscriber_ip: str, *, now: float = 0.0) -> int:
        """Journal every pending delta for one subscriber.

        Called by the middlebox's eviction callback *before* the
        in-memory counters drop, and at shutdown.  Returns the number of
        records written.  On :class:`JournalFull` the un-journaled
        buckets stay pending and the error propagates after the partial
        progress is recorded.
        """
        written = 0
        for key in list(self._pending_keys.get(subscriber_ip, ())):
            written += self._flush_key(key, now=now)
        return written

    def flush_all(self, *, now: float = 0.0) -> int:
        """Journal every pending delta (shutdown / checkpoint)."""
        written = 0
        for key in list(self._pending):
            written += self._flush_key(key, now=now)
        self.journal.sync()
        return written

    def _flush_key(self, key: tuple[str, str], *, now: float) -> int:
        operator, subscriber = key
        buckets = self._pending[key]
        written = 0
        for bucket in sorted(buckets):
            app, byte_class, free = bucket
            nbytes = buckets[bucket]
            if nbytes <= 0:
                del buckets[bucket]
                continue
            try:
                self.journal.append(
                    operator=operator,
                    subscriber=subscriber,
                    app=app,
                    byte_class=byte_class,
                    free_bytes=nbytes if free else 0,
                    charged_bytes=0 if free else nbytes,
                    time=now,
                )
            except JournalFull:
                self.flush_failures += 1
                raise
            del buckets[bucket]
            written += 1
        del self._pending[key]
        keys = self._pending_keys[subscriber]
        keys.remove(key)
        if not keys:
            del self._pending_keys[subscriber]
        self.flushes += 1
        return written

    def cap_used(self, subscriber_ip: str) -> int:
        operator = self.catalogs.operator_of(subscriber_ip)
        return self._cap_used.get((operator, subscriber_ip), 0)

    @property
    def pending_subscribers(self) -> int:
        return len(self._pending_keys)

    @property
    def pending_bytes(self) -> int:
        return sum(
            nbytes
            for buckets in self._pending.values()
            for nbytes in buckets.values()
        )

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def stats_dict(self) -> dict[str, int]:
        return {
            "packets_accounted": self.packets_accounted,
            "bytes_accounted": self.bytes_accounted,
            "free_bytes": self.free_bytes,
            "charged_bytes": self.charged_bytes,
            "flushes": self.flushes,
            "flush_failures": self.flush_failures,
            "catalog_updates": self.catalogs.catalog_updates,
        }

    GAUGES = ("pending_subscribers", "pending_bytes")

    def register_telemetry(
        self, registry: "MetricsRegistry", prefix: str = "billing"
    ) -> None:
        """Export the accountant, and its journal as ``{prefix}.journal``."""
        registry.register(
            self,
            prefix,
            gauges=self.GAUGES,
            read=lambda: (self.stats_dict(),),
            nested=[("journal", self.journal)],
        )
