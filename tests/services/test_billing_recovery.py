"""Eviction-flush contract + crash recovery of the billing pipeline.

Satellite 2: a billing-enabled middlebox may NEVER evict a subscriber's
counters without flushing the pending billing deltas first — the
regression here is the silent revenue loss where an LRU eviction under
subscriber-cap pressure dropped bytes that were never journaled.  The
flush hook is wired automatically; tearing it off turns the next
eviction into :class:`BillingFlushRequired`, not a quiet loss.

Plus accountant-level crash recovery: ENOSPC keeps deltas pending for a
retry.
"""

import pytest

from repro.core import (
    CookieDescriptor,
    CookieGenerator,
    CookieMatcher,
    DescriptorStore,
)
from repro.core.transport import default_registry
from repro.netsim import DiskFaultInjector, DiskFaultPlan
from repro.netsim.middlebox import Sink
from repro.netsim.packet import make_tcp_packet
from repro.services.billing import (
    BillingAccountant,
    BillingJournal,
    JournalFull,
    reconcile_directories,
)
from repro.services.zerorate import (
    AppCoverage,
    BillingFlushRequired,
    CatalogSet,
    OperatorCatalog,
    ZeroRatingMiddlebox,
)

ORIGIN = "203.0.113.10"
SUBSCRIBERS = ("10.6.0.2", "10.6.1.2", "10.6.2.2", "10.6.3.2")


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _accountant(journal_dir, **journal_kwargs):
    catalogs = CatalogSet([
        OperatorCatalog(
            operator="op-ev",
            apps=(AppCoverage(
                app="zero-rate", origin_ips=frozenset({ORIGIN}),
            ),),
        ),
    ])
    for subscriber in SUBSCRIBERS:
        catalogs.assign(subscriber, "op-ev")
    journal_kwargs.setdefault("fsync", "never")
    return BillingAccountant(
        catalogs, BillingJournal(journal_dir, **journal_kwargs)
    )


def _drive(middlebox, descriptor, clock, *, flows=8, packets=4):
    """Cookied flows from all four subscribers — more than the box's
    subscriber budget, so the LRU churns."""
    transports = default_registry()
    pushed = 0
    for flow_index in range(flows):
        subscriber = SUBSCRIBERS[flow_index % len(SUBSCRIBERS)]
        for _ in range(packets):
            clock.now += 0.01
            packet = make_tcp_packet(
                subscriber, 41_000 + flow_index, ORIGIN, 443,
                payload_size=500,
            )
            transports.attach(
                packet, CookieGenerator(descriptor, clock).generate()
            )
            pushed += packet.wire_length
            middlebox.push(packet)
    return pushed


def test_eviction_flushes_billing_under_cap_pressure(tmp_path):
    """The regression test: every byte pushed through a max_subscribers=1
    box lands in the journal despite constant evictions."""
    store = DescriptorStore()
    descriptor = store.add(CookieDescriptor.create(service_data="zero-rate"))
    clock = _Clock()
    accountant = _accountant(str(tmp_path))
    middlebox = ZeroRatingMiddlebox(
        CookieMatcher(store), clock=clock, max_subscribers=1,
        billing=accountant,
    )
    middlebox >> Sink()
    pushed = _drive(middlebox, descriptor, clock)
    assert middlebox.subscribers_evicted >= 3
    # Evicted subscribers' deltas are already durable, not pending.
    assert accountant.pending_subscribers <= 1
    accountant.flush_all()
    accountant.journal.close()
    report = reconcile_directories([str(tmp_path)])
    invoice = report.invoices["op-ev"]
    assert invoice.total_bytes == pushed
    assert len(invoice.statements) == len(SUBSCRIBERS)
    assert invoice.free_bytes == pushed  # all origin-covered, no cap


def test_eviction_without_flush_hook_raises(tmp_path):
    """Tearing off the auto-wired flush hook makes the next eviction a
    hard error instead of silent counter loss."""
    store = DescriptorStore()
    descriptor = store.add(CookieDescriptor.create(service_data="zero-rate"))
    clock = _Clock()
    accountant = _accountant(str(tmp_path))
    middlebox = ZeroRatingMiddlebox(
        CookieMatcher(store), clock=clock, max_subscribers=1,
        billing=accountant,
    )
    middlebox >> Sink()
    assert middlebox.on_subscriber_evicted is not None  # auto-wired
    middlebox.on_subscriber_evicted = None
    with pytest.raises(BillingFlushRequired):
        _drive(middlebox, descriptor, clock)
    accountant.journal.close()


def test_user_eviction_callback_still_runs_after_flush(tmp_path):
    store = DescriptorStore()
    descriptor = store.add(CookieDescriptor.create(service_data="zero-rate"))
    clock = _Clock()
    accountant = _accountant(str(tmp_path))
    seen = []
    middlebox = ZeroRatingMiddlebox(
        CookieMatcher(store), clock=clock, max_subscribers=1,
        billing=accountant,
        on_subscriber_evicted=lambda ip, counters: seen.append(ip),
    )
    middlebox >> Sink()
    _drive(middlebox, descriptor, clock, flows=4, packets=2)
    assert len(seen) == middlebox.subscribers_evicted >= 1
    accountant.journal.close()


def test_eviction_flush_records_carry_the_observation_time(tmp_path):
    """A record written because the LRU evicted its subscriber is
    stamped with the middlebox's clock, like a ``flush_all(now=)`` one —
    not with the accountant's ``now=0.0`` default."""
    store = DescriptorStore()
    descriptor = store.add(CookieDescriptor.create(service_data="zero-rate"))
    clock = _Clock()
    clock.now = 100.0
    accountant = _accountant(str(tmp_path))
    evicted_at = []
    middlebox = ZeroRatingMiddlebox(
        CookieMatcher(store), clock=clock, max_subscribers=1,
        billing=accountant,
        on_subscriber_evicted=lambda ip, counters: evicted_at.append(clock.now),
    )
    middlebox >> Sink()
    _drive(middlebox, descriptor, clock, flows=2, packets=2)
    assert len(evicted_at) == 1 and 100.0 < evicted_at[0] < clock.now
    accountant.flush_all(now=clock.now)
    accountant.journal.close()
    records, _ = BillingJournal.read_directory(str(tmp_path))
    assert [(r.subscriber, r.time) for r in records] == [
        (SUBSCRIBERS[0], evicted_at[0]),
        (SUBSCRIBERS[1], clock.now),
    ]


def test_flush_subscriber_touches_only_its_own_buckets(tmp_path):
    """A subscriber re-assigned mid-flight holds pending deltas under
    two operators: one flush journals both, oldest first, and leaves
    every other subscriber's deltas pending."""
    accountant = _accountant(str(tmp_path))
    accountant.catalogs.catalogs["op-new"] = OperatorCatalog(operator="op-new")
    moved, other = SUBSCRIBERS[0], SUBSCRIBERS[1]
    accountant.account(moved, "zero-rate", ORIGIN, 700, cookied=True)
    accountant.account(other, "zero-rate", ORIGIN, 500, cookied=True)
    accountant.catalogs.assign(moved, "op-new")
    accountant.account(moved, "zero-rate", ORIGIN, 300, cookied=True)
    assert accountant.pending_subscribers == 2
    assert accountant.pending_bytes == 1500
    assert accountant.flush_subscriber(moved, now=7.0) == 2
    assert accountant.pending_subscribers == 1
    assert accountant.pending_bytes == 500
    assert accountant.flush_subscriber(moved) == 0
    assert accountant.flush_all() == 1
    assert accountant.pending_subscribers == 0
    accountant.journal.close()
    records, _ = BillingJournal.read_directory(str(tmp_path))
    assert [
        (r.operator, r.subscriber, r.free_bytes, r.charged_bytes)
        for r in records
    ] == [
        ("op-ev", moved, 700, 0),
        ("op-new", moved, 0, 300),
        ("op-ev", other, 500, 0),
    ]


def test_journal_full_keeps_delta_pending_for_retry(tmp_path):
    """ENOSPC during a flush loses nothing: the failed bucket stays
    pending and a retry lands it."""
    faults = DiskFaultInjector(DiskFaultPlan(enospc_at=0))
    accountant = _accountant(str(tmp_path), disk_faults=faults)
    accountant.account(SUBSCRIBERS[0], "zero-rate", ORIGIN, 700, cookied=True)
    with pytest.raises(JournalFull):
        accountant.flush_subscriber(SUBSCRIBERS[0])
    assert accountant.flush_failures == 1
    assert accountant.pending_bytes == 700
    assert accountant.flush_subscriber(SUBSCRIBERS[0]) == 1  # disk freed
    assert accountant.pending_bytes == 0
    accountant.journal.close()
    report = reconcile_directories([str(tmp_path)])
    assert report.invoices["op-ev"].free_bytes == 700


def test_restarted_accountant_keeps_enforcing_the_cap(tmp_path):
    """Cap state survives a crash: an accountant rebuilt over the
    recovered journal starts from the free bytes already journaled, so
    a subscriber who used the cap before the crash is charged after it."""
    journal_dir = str(tmp_path)
    first = _accountant(journal_dir)
    first.catalogs.catalogs["op-ev"] = OperatorCatalog(
        operator="op-ev",
        apps=(AppCoverage(app="zero-rate", origin_ips=frozenset({ORIGIN})),),
        cap_bytes=1000,
    )
    capped, other = SUBSCRIBERS[0], SUBSCRIBERS[1]
    assert first.account(capped, "zero-rate", ORIGIN, 800, cookied=True)
    assert first.account(other, "zero-rate", ORIGIN, 100, cookied=True)
    first.flush_all()
    first.journal.close()  # the crash: nothing but the journal survives

    restarted = BillingAccountant(
        first.catalogs, BillingJournal(journal_dir, fsync="never")
    )
    assert restarted.journal.recovery.records_recovered == 2
    assert restarted.cap_used(capped) == 800
    assert restarted.cap_used(other) == 100
    assert not restarted.account(capped, "zero-rate", ORIGIN, 300, cookied=True)
    assert restarted.account(capped, "zero-rate", ORIGIN, 200, cookied=True)
    assert restarted.account(other, "zero-rate", ORIGIN, 900, cookied=True)
    assert restarted.cap_used(capped) == restarted.cap_used(other) == 1000
    restarted.journal.close()
