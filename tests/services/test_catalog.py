"""Multi-operator zero-rating catalogs (tentpole, PROTOCOL.md §16.1).

Covers the EU-study semantics — per-operator app lists, partial
origin/CDN/third-party coverage, caps with fallback-to-charged, roaming
suspension, versioned mid-flight updates — and the property the whole
billing pipeline hangs off: invoices reconciled from the journal equal
the tariff an oracle computes straight from the catalog, under
hypothesis-driven churn, eviction, and flush interleavings, at the
pinned seed 20160822.  (That the stateful and stateless data paths bill
alike is a script of ``tests/model/test_data_plane.py``.)
"""

import shutil
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import given, seed, settings

from repro.services.billing import (
    BillingAccountant,
    BillingJournal,
    reconcile_directories,
)
from repro.services.zerorate import (
    COVERABLE_CLASSES,
    ROAMING_ZERO_RATE,
    UNASSIGNED_OPERATOR,
    AppCoverage,
    CatalogSet,
    OperatorCatalog,
)
from repro.web.sites import build_cnn

PINNED_SEED = 20160822

ORIGIN = "203.0.113.10"
CDN = "203.0.113.20"
TRACKER = "203.0.113.30"

APP = "news-app"
COVERAGE = AppCoverage(
    app=APP,
    origin_ips=frozenset({ORIGIN}),
    cdn_ips=frozenset({CDN}),
    origin_covered=True,
    cdn_covered=False,
)


def _catalog(**changes):
    base = dict(operator="op-x", apps=(COVERAGE,))
    base.update(changes)
    return OperatorCatalog(**base)


# ----------------------------------------------------------------------
# Decision precedence
# ----------------------------------------------------------------------
def test_precedence_uncookied_unlisted_uncovered():
    catalog = _catalog()
    args = dict(roaming=False, cap_used=0)
    assert catalog.decide(APP, ORIGIN, 100, cookied=False, **args).byte_class \
        == "uncookied"
    assert catalog.decide(None, ORIGIN, 100, cookied=True, **args).byte_class \
        == "uncookied"
    assert catalog.decide("other-app", ORIGIN, 100, cookied=True,
                          **args).byte_class == "unlisted"
    # Covered origin rides free; uncovered CDN and third parties bill
    # under their own class (the partial-coverage reality).
    origin = catalog.decide(APP, ORIGIN, 100, cookied=True, **args)
    assert origin.free and origin.byte_class == "origin"
    cdn = catalog.decide(APP, CDN, 100, cookied=True, **args)
    assert not cdn.free and cdn.byte_class == "cdn"
    tracker = catalog.decide(APP, TRACKER, 100, cookied=True, **args)
    assert not tracker.free and tracker.byte_class == "third_party"


def test_cdn_coverage_is_per_operator():
    generous = _catalog(operator="op-y", apps=(AppCoverage(
        app=APP, origin_ips=frozenset({ORIGIN}), cdn_ips=frozenset({CDN}),
        cdn_covered=True,
    ),))
    decision = generous.decide(APP, CDN, 100, cookied=True, roaming=False,
                               cap_used=0)
    assert decision.free and decision.byte_class == "cdn"


def test_roaming_policies():
    suspend = _catalog()
    assert not suspend.decide(APP, ORIGIN, 100, cookied=True, roaming=True,
                              cap_used=0).free
    assert suspend.decide(APP, ORIGIN, 100, cookied=True, roaming=True,
                          cap_used=0).byte_class == "roaming"
    keep = _catalog(roaming_policy=ROAMING_ZERO_RATE)
    assert keep.decide(APP, ORIGIN, 100, cookied=True, roaming=True,
                       cap_used=0).free


def test_cap_fallback_to_charged():
    capped = _catalog(cap_bytes=1000)
    assert capped.decide(APP, ORIGIN, 1000, cookied=True, roaming=False,
                         cap_used=0).free
    over = capped.decide(APP, ORIGIN, 1, cookied=True, roaming=False,
                         cap_used=1000)
    assert not over.free and over.byte_class == "cap_exhausted"
    # The cap gates on what THIS packet would push usage to.
    edge = capped.decide(APP, ORIGIN, 600, cookied=True, roaming=False,
                         cap_used=600)
    assert not edge.free


def test_versioned_update_and_validation():
    catalog = _catalog(cap_bytes=1000)
    updated = catalog.with_update(cap_bytes=2000)
    assert updated.version == catalog.version + 1
    assert updated.cap_bytes == 2000
    with pytest.raises(ValueError):
        OperatorCatalog(operator="")
    with pytest.raises(ValueError):
        OperatorCatalog(operator="x", apps=(COVERAGE, COVERAGE))
    with pytest.raises(ValueError):
        OperatorCatalog(operator="x", roaming_policy="whatever")


def test_from_page_partitions_cnn():
    page = build_cnn(seed=1)
    coverage = AppCoverage.from_page(page, cdn_covered=True)
    assert coverage.app == page.domain
    assert coverage.origin_ips and coverage.cdn_ips
    assert not (coverage.origin_ips & coverage.cdn_ips)
    # Ad/tracker servers in the page model are neither tranche.
    tranched = coverage.origin_ips | coverage.cdn_ips
    all_ips = {flow.server.ip for flow in page.flows}
    assert all_ips - tranched, "page model should have third parties"


# ----------------------------------------------------------------------
# CatalogSet: N operators concurrently
# ----------------------------------------------------------------------
def test_catalogset_routes_and_unassigned_charges():
    catalogs = CatalogSet([
        _catalog(operator="op-1"),
        _catalog(operator="op-2", cap_bytes=500),
        _catalog(operator="op-3", apps=()),
    ])
    catalogs.assign("10.1.0.2", "op-1")
    catalogs.assign("10.2.0.2", "op-2")
    catalogs.assign("10.3.0.2", "op-3")
    kwargs = dict(cookied=True, cap_used=0)
    # Same bytes, three different verdicts — concurrently.
    assert catalogs.decide("10.1.0.2", APP, ORIGIN, 600, **kwargs).free
    assert not catalogs.decide(
        "10.2.0.2", APP, ORIGIN, 600, **kwargs
    ).free  # cap 500 < 600
    assert catalogs.decide(
        "10.3.0.2", APP, ORIGIN, 600, **kwargs
    ).byte_class == "unlisted"
    # No catalog claims this subscriber: charged, no exceptions.
    stray = catalogs.decide("10.9.9.9", APP, ORIGIN, 600, **kwargs)
    assert stray.operator == UNASSIGNED_OPERATOR and not stray.free
    with pytest.raises(ValueError):
        catalogs.assign("10.1.0.2", "nope")
    with pytest.raises(ValueError):
        catalogs.update_catalog(_catalog(operator="nope"))
    with pytest.raises(ValueError):
        CatalogSet([_catalog(operator="dup"), _catalog(operator="dup")])


def test_midflight_update_changes_decisions():
    catalogs = CatalogSet([_catalog(operator="op-1", cap_bytes=100)])
    catalogs.assign("10.1.0.2", "op-1")
    assert not catalogs.decide("10.1.0.2", APP, ORIGIN, 500, cookied=True,
                               cap_used=0).free
    catalogs.update_catalog(
        catalogs.catalogs["op-1"].with_update(cap_bytes=1000)
    )
    assert catalogs.decide("10.1.0.2", APP, ORIGIN, 500, cookied=True,
                           cap_used=0).free
    assert catalogs.catalog_updates == 1


# ----------------------------------------------------------------------
# Property: invoices == tariff semantics under churn + eviction
# ----------------------------------------------------------------------
SERVERS = (ORIGIN, CDN, TRACKER)
SUBSCRIBERS = ("10.7.0.2", "10.7.1.2", "10.7.2.2", "10.7.3.2")

packet_st = st.tuples(
    st.integers(0, len(SUBSCRIBERS) - 1),   # subscriber
    st.integers(0, len(SERVERS) - 1),       # server
    st.booleans(),                          # cookied
    st.integers(1, 2000),                   # bytes
    st.integers(0, 9),                      # 0 => flush this subscriber now
)


@seed(PINNED_SEED)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    stream=st.lists(packet_st, min_size=1, max_size=120),
    cap=st.one_of(st.none(), st.integers(0, 6000)),
    update_at=st.integers(0, 120),
)
def test_invoices_equal_tariff_under_churn(stream, cap, update_at):
    """Whatever the interleaving of packets, mid-stream flushes, a
    mid-stream cap update, and a duplicate-directory replay, the
    reconciled invoices equal an oracle applying the catalog tariff
    packet-by-packet."""
    catalogs = CatalogSet([
        _catalog(operator="op-1", cap_bytes=cap),
        _catalog(operator="op-2"),
    ])
    for index, subscriber in enumerate(SUBSCRIBERS):
        catalogs.assign(subscriber, "op-1" if index % 2 == 0 else "op-2")
    catalogs.set_roaming(SUBSCRIBERS[3])
    journal_dir = tempfile.mkdtemp(prefix="repro-catalog-prop-")
    try:
        accountant = BillingAccountant(
            catalogs, BillingJournal(journal_dir, fsync="never")
        )
        # Oracle state: the tariff applied longhand, outside the unit
        # under test (no journal, no pending buffers).
        oracle_cap: dict[tuple, int] = {}
        oracle: dict[tuple, int] = {}
        new_cap = None if cap is None else cap * 2
        for index, (sub_i, srv_i, cookied, nbytes, flush) in enumerate(stream):
            if index == update_at:
                catalogs.update_catalog(
                    catalogs.catalogs["op-1"].with_update(cap_bytes=new_cap)
                )
            subscriber = SUBSCRIBERS[sub_i]
            server = SERVERS[srv_i]
            operator = catalogs.operator_of(subscriber)
            expected = catalogs.decide(
                subscriber, APP if cookied else None, server, nbytes,
                cookied=cookied,
                cap_used=oracle_cap.get((operator, subscriber), 0),
            )
            got = accountant.account(
                subscriber, APP if cookied else None, server, nbytes,
                cookied=cookied,
            )
            assert got == expected.free
            if expected.free:
                oracle_cap[(operator, subscriber)] = (
                    oracle_cap.get((operator, subscriber), 0) + nbytes
                )
            key = (expected.operator, subscriber, expected.app,
                   expected.byte_class, expected.free)
            oracle[key] = oracle.get(key, 0) + nbytes
            if flush == 0:
                # Simulates the eviction-driven flush: durable early,
                # exactly-once regardless.
                accountant.flush_subscriber(subscriber)
        accountant.flush_all()
        accountant.journal.close()
        # Replaying the directory twice must change nothing.
        report = reconcile_directories([journal_dir, journal_dir])
        assert not report.tariff_violations
        invoiced: dict[tuple, int] = {}
        for operator, invoice in report.invoices.items():
            for subscriber, statement in invoice.statements.items():
                for line in statement.sorted_lines():
                    key = (operator, subscriber, line.app, line.byte_class,
                           line.free)
                    invoiced[key] = invoiced.get(key, 0) + line.nbytes
        assert invoiced == oracle
        # Tariff invariant straight off the invoice: free bytes only
        # ever ride coverable classes.
        for key, nbytes in invoiced.items():
            if key[4]:
                assert key[3] in COVERABLE_CLASSES
    finally:
        shutil.rmtree(journal_dir, ignore_errors=True)
