"""Zero-rating middlebox and accounting tests."""

import pytest

from repro.core import CookieDescriptor, CookieGenerator, CookieMatcher, DescriptorStore
from repro.core.transport import default_registry
from repro.netsim.appmsg import TLSClientHello
from repro.netsim.packet import make_tcp_packet
from repro.services.billing import (
    BillingAccountant,
    BillingJournal,
    build_invoices,
)
from repro.services.zerorate import (
    AppCoverage,
    CatalogSet,
    OperatorCatalog,
    ZeroRatingMiddlebox,
)
from repro.services.zerorate.catalog import GB


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _env():
    clock = Clock()
    store = DescriptorStore()
    descriptor = store.add(CookieDescriptor.create(service_data="zero-rate"))
    middlebox = ZeroRatingMiddlebox(CookieMatcher(store), clock=clock)
    return clock, store, descriptor, middlebox


def _flow_packets(descriptor, clock, sport=5000, count=5, cookied=True):
    packets = []
    first = make_tcp_packet(
        "10.0.0.1", sport, "93.184.216.34", 443,
        content=TLSClientHello(sni="app.example.com"), payload_size=200,
    )
    if cookied:
        cookie = CookieGenerator(descriptor, clock).generate()
        default_registry().attach(first, cookie)
    packets.append(first)
    for _ in range(count - 1):
        packets.append(
            make_tcp_packet(
                "93.184.216.34", 443, "10.0.0.1", sport,
                payload_size=1200, encrypted=True,
            )
        )
    return packets


class TestCounting:
    def test_cookied_flow_counted_free(self):
        clock, _store, descriptor, middlebox = _env()
        packets = _flow_packets(descriptor, clock)
        for packet in packets:
            middlebox.handle(packet)
        counters = middlebox.counters_for("10.0.0.1")
        assert counters.free_bytes == sum(p.wire_length for p in packets)
        assert counters.charged_bytes == 0

    def test_uncookied_flow_counted_charged(self):
        clock, _store, descriptor, middlebox = _env()
        packets = _flow_packets(descriptor, clock, cookied=False)
        for packet in packets:
            middlebox.handle(packet)
        counters = middlebox.counters_for("10.0.0.1")
        assert counters.charged_bytes == sum(p.wire_length for p in packets)
        assert counters.free_bytes == 0

    def test_both_directions_free(self):
        """The paper enforces "the service in software for both directions
        of a flow"."""
        clock, _store, descriptor, middlebox = _env()
        for packet in _flow_packets(descriptor, clock, count=10):
            middlebox.handle(packet)
        counters = middlebox.counters_for("10.0.0.1")
        assert counters.charged_bytes == 0

    def test_two_counters_per_subscriber(self):
        clock, _store, descriptor, middlebox = _env()
        for packet in _flow_packets(descriptor, clock, sport=5000, cookied=True):
            middlebox.handle(packet)
        for packet in _flow_packets(descriptor, clock, sport=5001, cookied=False):
            middlebox.handle(packet)
        counters = middlebox.counters_for("10.0.0.1")
        assert counters.free_bytes > 0 and counters.charged_bytes > 0
        assert 0 < counters.free_fraction < 1

    def test_invalid_cookie_charged(self):
        clock, _store, _descriptor, middlebox = _env()
        stranger = CookieDescriptor.create()
        for packet in _flow_packets(stranger, clock):
            middlebox.handle(packet)
        assert middlebox.counters_for("10.0.0.1").charged_bytes > 0
        assert middlebox.cookie_misses == 1

    def test_cookie_after_sniff_window_charged(self):
        clock, _store, descriptor, middlebox = _env()
        plain = _flow_packets(descriptor, clock, cookied=False, count=4)
        for packet in plain:
            middlebox.handle(packet)
        late = _flow_packets(descriptor, clock, cookied=True, count=1)[0]
        middlebox.handle(late)
        assert middlebox.counters_for("10.0.0.1").free_bytes == 0

    def test_zero_rated_meta_stamped(self):
        clock, _store, descriptor, middlebox = _env()
        first = _flow_packets(descriptor, clock, count=1)[0]
        middlebox.handle(first)
        assert first.meta.get("zero_rated")

    def test_cookie_checked_meta_marks_consumed_cookies(self):
        """A verified (spent) cookie is stamped ``cookie_checked``; a
        cookie arriving after the sniff window closed is skipped and
        stays unstamped — it was never consumed, so replay-cache
        guarantees do not extend to it."""
        clock, _store, descriptor, middlebox = _env()
        first = _flow_packets(descriptor, clock, count=1)[0]
        middlebox.handle(first)
        assert first.meta.get("cookie_checked") is True

        # Same flow, new middlebox: burn the sniff window with bare
        # packets, then present the cookie late.
        clock2, _store2, descriptor2, late_box = _env()
        for packet in _flow_packets(
            descriptor2, clock2, cookied=False,
            count=late_box.sniff_packets,
        ):
            late_box.handle(packet)
        late = _flow_packets(descriptor2, clock2, count=1)[0]
        late_box.handle(late)
        assert "cookie_checked" not in late.meta

    def test_subscribers_keyed_by_inside_address(self):
        clock, _store, descriptor, middlebox = _env()
        for packet in _flow_packets(descriptor, clock):
            middlebox.handle(packet)
        assert list(middlebox.counters) == ["10.0.0.1"]

    def test_non_ip_passthrough(self):
        from repro.netsim.packet import Packet

        _clock, _store, _descriptor, middlebox = _env()
        middlebox.handle(Packet())
        assert middlebox.packets_processed == 1

    def test_ipv6_flow_keyed_both_ways_and_counted(self):
        """The key's protocol is IPv6's next header (an IPv6 packet used
        to raise ``AttributeError`` on ``ip.proto``)."""
        from repro.netsim.headers import IPProto, IPv6Header, TCPHeader
        from repro.netsim.packet import Packet

        def packet(src, sport, dst, dport):
            return Packet(ip=IPv6Header(src=src, dst=dst),
                          l4=TCPHeader(src_port=sport, dst_port=dport))

        _clock, _store, _descriptor, middlebox = _env()
        middlebox.is_subscriber = lambda ip: ip == "2001:db8::10"
        middlebox.process_batch([packet("2001:db8::10", 5000, "2001:db8::2", 443),
                                 packet("2001:db8::2", 443, "2001:db8::10", 5000)])
        assert list(middlebox._flows) == [
            ("2001:db8::10", 5000, "2001:db8::2", 443, IPProto.TCP)
        ]
        assert middlebox.counters_for("2001:db8::10").charged_bytes == 2 * 60


class TestAccounting:
    """A carrier's plan is one operator catalog: the middlebox bills
    through a :class:`BillingAccountant` and the invoice is what its
    journal holds."""

    SERVER = "93.184.216.34"

    def _catalog(self, operator="carrier", **plan):
        origin = AppCoverage("zero-rate", origin_ips=frozenset({self.SERVER}))
        return OperatorCatalog(operator, apps=(origin,), **plan)

    @staticmethod
    def _sizes(flows=((5000, True),)):
        """Wire lengths of ``flows``' packets, five per flow."""
        clock, _, descriptor, _ = _env()
        return [
            packet.wire_length
            for sport, cookied in flows
            for packet in _flow_packets(descriptor, clock, sport, cookied=cookied)
        ]

    def _bill(self, tmp_path, catalogs, flows=((5000, True),)):
        """``flows`` through a billing middlebox; returns it, its
        accountant and the journal's invoices."""
        clock, store, descriptor, _ = _env()
        accountant = BillingAccountant(
            catalogs, BillingJournal(str(tmp_path), fsync="never")
        )
        middlebox = ZeroRatingMiddlebox(
            CookieMatcher(store), clock=clock, billing=accountant
        )
        for sport, cookied in flows:
            for packet in _flow_packets(descriptor, clock, sport, cookied=cookied):
                middlebox.handle(packet)
        accountant.flush_all()
        rates = {
            name: catalog.charged_rate_per_gb
            for name, catalog in catalogs.catalogs.items()
        }
        invoices = build_invoices(accountant.journal.records(), rates=rates)
        accountant.journal.close()
        return middlebox, accountant, invoices

    def _carrier(self, **plan):
        return CatalogSet([self._catalog(**plan)], default_operator="carrier")

    def test_invoice_under_cap(self, tmp_path):
        _, _, invoices = self._bill(tmp_path, self._carrier(cap_bytes=10**9))
        invoice = invoices["carrier"]
        assert invoice.free_bytes == sum(self._sizes())
        assert invoice.charged_bytes == 0 and invoice.amount_due == 0

    def test_invoice_overage(self, tmp_path):
        """Past the cap the same bytes are charged, at the plan's rate."""
        sizes = self._sizes()
        cap = sum(sizes[:2])
        _, _, invoices = self._bill(
            tmp_path, self._carrier(cap_bytes=cap, charged_rate_per_gb=25.0)
        )
        invoice = invoices["carrier"]
        assert invoice.free_bytes == cap
        assert invoice.charged_bytes == sum(sizes[2:])
        assert invoice.amount_due == pytest.approx(sum(sizes[2:]) / GB * 25.0)
        (line,) = [
            line for line in invoice.statements["10.0.0.1"].sorted_lines()
            if not line.free
        ]
        assert line.byte_class == "cap_exhausted"

    def test_zero_rated_bytes_never_hit_cap(self, tmp_path):
        """Bytes that ride free are never billed, however many: an
        uncapped catalog does not run out, and charged traffic does not
        eat into a capped one."""
        flows = ((5001, False), (5000, True))
        sizes = self._sizes(flows)
        for name, cap in (("uncapped", None), ("capped", sum(sizes[5:]))):
            _, accountant, invoices = self._bill(
                tmp_path / name, self._carrier(cap_bytes=cap), flows
            )
            assert invoices["carrier"].free_bytes == sum(sizes[5:])
            assert invoices["carrier"].charged_bytes == sum(sizes[:5])
            assert accountant.cap_used("10.0.0.1") == sum(sizes[5:])

    def test_per_subscriber_plans(self, tmp_path):
        catalogs = CatalogSet(
            [
                self._catalog("standard", cap_bytes=0),
                self._catalog("premium", cap_bytes=10**12),
            ],
            default_operator="standard",
        )
        assert catalogs.operator_of("10.0.0.1") == "standard"
        _, _, invoices = self._bill(tmp_path / "standard", catalogs)
        assert invoices["standard"].charged_bytes == sum(self._sizes())
        catalogs.assign("10.0.0.1", "premium")
        _, _, invoices = self._bill(tmp_path / "premium", catalogs)
        assert invoices["premium"].free_bytes == sum(self._sizes())

    def test_invoice_all_from_middlebox(self, tmp_path):
        """Invoiced == delivered: the statements are the middlebox's
        counters, subscriber by subscriber."""
        middlebox, _, invoices = self._bill(
            tmp_path, self._carrier(), flows=((5000, True), (5001, False))
        )
        (invoice,) = invoices.values()
        assert {
            ip: (statement.free_bytes, statement.charged_bytes)
            for ip, statement in invoice.statements.items()
        } == {
            ip: (counters.free_bytes, counters.charged_bytes)
            for ip, counters in middlebox.counters.items()
        }
        assert list(invoice.statements) == ["10.0.0.1"]

    def test_savings_report(self, tmp_path):
        """Per-subscriber fraction of traffic that rode for free."""
        middlebox, _, invoices = self._bill(tmp_path, self._carrier())
        assert middlebox.counters_for("10.0.0.1").free_fraction == 1.0
        invoice = invoices["carrier"]
        assert invoice.free_bytes == invoice.total_bytes

    def test_cap_used_fraction(self, tmp_path):
        cap = 2 * sum(self._sizes())
        _, accountant, _ = self._bill(tmp_path, self._carrier(cap_bytes=cap))
        assert accountant.cap_used("10.0.0.1") / cap == pytest.approx(0.5)


class TestFlowResolution:
    """The §4.6 offload hook must fire exactly once for *every* flow."""

    def _mb(self, sniff_packets=3, **kwargs):
        clock = Clock()
        store = DescriptorStore()
        descriptor = store.add(CookieDescriptor.create(service_data="zr"))
        resolved = []
        middlebox = ZeroRatingMiddlebox(
            CookieMatcher(store),
            clock=clock,
            sniff_packets=sniff_packets,
            on_flow_resolved=lambda key, state: resolved.append(
                (key, state.zero_rated)
            ),
            **kwargs,
        )
        return clock, descriptor, middlebox, resolved

    def test_valid_cookie_resolves_immediately(self):
        clock, descriptor, middlebox, resolved = self._mb()
        middlebox.handle(_flow_packets(descriptor, clock, count=1)[0])
        assert resolved == [(next(iter(middlebox._flows)), True)]

    def test_bare_flow_resolves_at_window_close(self):
        clock, descriptor, middlebox, resolved = self._mb()
        for packet in _flow_packets(descriptor, clock, count=3, cookied=False):
            middlebox.handle(packet)
        assert len(resolved) == 1
        assert resolved[0][1] is False

    def test_invalid_cookie_on_final_sniff_packet_still_resolves(self):
        """Regression: a flow whose last sniff-window packet carries a
        cookie that fails verification used to slip past the resolution
        hook entirely — hardware offload then never saw the flow."""
        clock, _descriptor, middlebox, resolved = self._mb()
        stranger = CookieDescriptor.create()
        # Packets 1-2: bare (same flow, reverse direction shares the key).
        for packet in _flow_packets(stranger, clock, cookied=False, count=3)[1:]:
            middlebox.handle(packet)
        assert resolved == []
        # Packet 3 — the last of the sniff window — carries a cookie that
        # fails verification (unknown descriptor).
        middlebox.handle(_flow_packets(stranger, clock, count=1)[0])
        assert len(resolved) == 1
        assert resolved[0][1] is False
        assert middlebox.cookie_misses == 1

    def test_invalid_cookie_single_packet_window(self):
        clock, _descriptor, middlebox, resolved = self._mb(sniff_packets=1)
        stranger = CookieDescriptor.create()
        middlebox.handle(_flow_packets(stranger, clock, count=1)[0])
        assert len(resolved) == 1 and resolved[0][1] is False

    def test_miss_then_valid_cookie_still_binds(self):
        """A failed cookie early in the window must not charge the flow
        for good — a later valid cookie within the window zero-rates."""
        clock, descriptor, middlebox, resolved = self._mb()
        stranger = CookieDescriptor.create()
        bad = _flow_packets(stranger, clock, count=1)[0]
        middlebox.handle(bad)
        good = _flow_packets(descriptor, clock, count=1)[0]
        middlebox.handle(good)
        assert resolved[-1][1] is True
        assert good.meta.get("zero_rated")

    def test_resolution_fires_once_per_flow(self):
        clock, descriptor, middlebox, resolved = self._mb()
        for packet in _flow_packets(descriptor, clock, count=10):
            middlebox.handle(packet)
        assert len(resolved) == 1
        assert middlebox.flows_resolved == 1


class TestBoundedState:
    def _mb(self, **kwargs):
        clock = Clock()
        store = DescriptorStore()
        descriptor = store.add(CookieDescriptor.create(service_data="zr"))
        middlebox = ZeroRatingMiddlebox(
            CookieMatcher(store), clock=clock, **kwargs
        )
        return clock, descriptor, middlebox

    def _packet(self, sport, subscriber="10.0.0.1"):
        return make_tcp_packet(
            subscriber, sport, "93.184.216.34", 443, payload_size=100
        )

    def test_cap_evicts_least_recently_active(self):
        clock, _descriptor, middlebox = self._mb(max_flows=2)
        middlebox.handle(self._packet(5000))
        middlebox.handle(self._packet(5001))
        middlebox.handle(self._packet(5000))  # touch A: B is now oldest
        middlebox.handle(self._packet(5002))  # evicts B
        assert middlebox.tracked_flows == 2
        assert middlebox.flows_evicted_cap == 1
        assert all(5001 not in key for key in middlebox._flows)

    def test_idle_flows_evicted_lazily(self):
        clock, _descriptor, middlebox = self._mb(flow_idle_timeout=10.0)
        middlebox.handle(self._packet(5000))
        clock.now = 100.0
        middlebox.handle(self._packet(5001))  # inserting sweeps idle LRU end
        assert middlebox.flows_evicted_idle == 1
        assert middlebox.tracked_flows == 1

    def test_idle_flow_reseen_is_a_new_flow(self):
        """A flow returning after the idle timeout re-enters the sniff
        window (the state a real box aged out is genuinely gone)."""
        clock, descriptor, middlebox = self._mb(flow_idle_timeout=10.0)
        for packet in _flow_packets(descriptor, clock, count=5, cookied=False):
            middlebox.handle(packet)
        clock.now = 1000.0
        late = _flow_packets(descriptor, clock, count=1)[0]
        middlebox.handle(late)  # valid cookie accepted: new sniff window
        assert late.meta.get("zero_rated")

    def test_subscriber_counters_capped_with_flush_callback(self):
        flushed = []
        clock = Clock()
        store = DescriptorStore()
        middlebox = ZeroRatingMiddlebox(
            CookieMatcher(store),
            clock=clock,
            max_subscribers=2,
            on_subscriber_evicted=lambda ip, c: flushed.append((ip, c)),
        )
        for i, subscriber in enumerate(["10.0.0.1", "10.0.0.2", "10.0.0.3"]):
            middlebox.handle(self._packet(6000 + i, subscriber=subscriber))
        assert middlebox.tracked_subscribers == 2
        assert middlebox.subscribers_evicted == 1
        assert flushed[0][0] == "10.0.0.1"
        assert flushed[0][1].charged_bytes > 0

    def test_active_subscriber_not_evicted(self):
        clock, _descriptor, middlebox = self._mb(max_subscribers=2)
        middlebox.handle(self._packet(6000, subscriber="10.0.0.1"))
        middlebox.handle(self._packet(6001, subscriber="10.0.0.2"))
        middlebox.handle(self._packet(6002, subscriber="10.0.0.1"))  # touch
        middlebox.handle(self._packet(6003, subscriber="10.0.0.3"))
        assert "10.0.0.1" in middlebox.counters
        assert "10.0.0.2" not in middlebox.counters
