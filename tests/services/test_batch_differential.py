"""Differential tests: the burst path of the packet-level elements —
zero-rating middlebox, cookie switch, hardware prefilter — against a
per-packet reference.

Each test builds the shipped element and its per-packet twin from
:mod:`.scalar_reference` over one descriptor store, feeds the twin with
``handle``/``push`` per packet and the shipped element with
``process_batch``/``push_batch`` over clones of the same stream, and
compares everything observable: emitted packets and
their metadata, per-IP byte counters, flow-table state and LRU order,
eviction/resolution counters, and telemetry snapshots.  Hypothesis
drives adversarial traffic: interleaved flows with valid, malformed, and
absent cookies, mixed free/charged subscribers, tiny state caps, and
idle gaps between bursts — and, for the middlebox, cookies in either
wire *birth* (:data:`BIRTHS`): parsed off a text or a binary carrier.
``TestBillingDifferential`` repeats the
exercise with a ``billing=`` accountant, down to the journal's bytes.
"""

import dataclasses
import os
import shutil
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import (
    CookieDescriptor,
    CookieGenerator,
    CookieMatcher,
    DescriptorStore,
)
from repro.core.attributes import CookieAttributes
from repro.core.cookie import Cookie
from repro.core.offload import HardwarePrefilter
from repro.core.switch import CookieSwitch
from repro.core.transport import default_registry
from repro.netsim.appmsg import TLSClientHello
from repro.netsim.middlebox import Sink
from repro.netsim.packet import make_tcp_packet
from repro.services.billing import BillingAccountant, BillingJournal
from repro.services.zerorate import (
    AppCoverage,
    BillingFlushRequired,
    CatalogSet,
    OperatorCatalog,
    ZeroRatingMiddlebox,
)
from repro.telemetry import MetricsRegistry

from .scalar_reference import (
    ScalarCookieSwitch,
    ScalarHardwarePrefilter,
    ScalarZeroRatingMiddlebox,
)

COOKIE_KINDS = ("valid", "bad_sig", "none")

#: How the cookie reaches the verifier: undecoded off the TLS extension's
#: base64 text or the TCP option's 48 bytes.
BIRTHS = ("from_text", "from_bytes")
SUBSCRIBERS = ("10.0.0.1", "10.0.0.2", "10.0.1.9")


class Clock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def _store():
    store = DescriptorStore()
    descriptor = store.add(CookieDescriptor.create(service_data="zero-rate"))
    return store, descriptor


def _flow_packets(
    descriptor, clock, flow_index, cookie_kind, count, birth="from_text"
):
    """One flow: a cookied (or not) TLS hello plus reverse-path data."""
    subscriber = SUBSCRIBERS[flow_index % len(SUBSCRIBERS)]
    sport = 5000 + flow_index
    first = make_tcp_packet(
        subscriber, sport, "93.184.216.34", 443,
        content=TLSClientHello(sni="app.example.com"), payload_size=200,
    )
    if cookie_kind != "none":
        cookie = CookieGenerator(descriptor, clock).generate()
        if cookie_kind == "bad_sig":
            cookie = Cookie(
                cookie_id=cookie.cookie_id,
                uuid=cookie.uuid,
                timestamp=cookie.timestamp,
                signature=bytes([cookie.signature[0] ^ 0xFF])
                + cookie.signature[1:],
            )
        allowed = {"from_text": ("tls",), "from_bytes": ("tcp",)}[birth]
        default_registry().attach(first, cookie, allowed=allowed)
    packets = [first]
    for _ in range(count - 1):
        packets.append(
            make_tcp_packet(
                "93.184.216.34", 443, subscriber, sport,
                payload_size=1200, encrypted=True,
            )
        )
    return packets


@st.composite
def traffic(draw, max_flows=5, max_packets=6, births=BIRTHS[:1]):
    """Flow plans plus an interleaving that preserves per-flow order."""
    plans = draw(
        st.lists(
            st.tuples(
                st.sampled_from(COOKIE_KINDS),
                st.integers(1, max_packets),
                st.sampled_from(births),
            ),
            min_size=1,
            max_size=max_flows,
        )
    )
    tokens = [
        flow_index
        for flow_index, (_, count, _) in enumerate(plans)
        for _ in range(count)
    ]
    order = draw(st.permutations(tokens))
    return plans, order


def _interleaved(descriptor, clock, plans, order):
    per_flow = [
        _flow_packets(descriptor, clock, i, kind, count, birth)
        for i, (kind, count, birth) in enumerate(plans)
    ]
    cursors = [0] * len(per_flow)
    stream = []
    for flow_index in order:
        stream.append(per_flow[flow_index][cursors[flow_index]])
        cursors[flow_index] += 1
    return stream


def _middlebox_observables(middlebox, sink):
    return {
        "outputs": [
            (packet.meta.get("zero_rated"), packet.wire_length)
            for packet in sink.packets
        ],
        "counters": {
            ip: (counters.free_bytes, counters.charged_bytes)
            for ip, counters in middlebox.counters.items()
        },
        "flow_order": list(middlebox._flows.keys()),
        "flow_state": [
            (state.zero_rated, state.packets_seen, state.resolved,
             state.subscriber_ip)
            for state in middlebox._flows.values()
        ],
        "stats": (
            middlebox.packets_processed,
            middlebox.cookie_hits,
            middlebox.cookie_misses,
            middlebox.flows_resolved,
            middlebox.flows_evicted_idle,
            middlebox.flows_evicted_cap,
            middlebox.subscribers_evicted,
        ),
    }


def _twin_middleboxes(store, **kwargs):
    pair = []
    for cls in (ScalarZeroRatingMiddlebox, ZeroRatingMiddlebox):
        clock = kwargs.pop("clock", None) or Clock()
        middlebox = cls(
            CookieMatcher(store), clock=clock, **kwargs
        )
        sink = Sink()
        middlebox >> sink
        pair.append((middlebox, sink, clock))
    return pair


def _run_middlebox_differential(plans, order, chunk=None, **kwargs):
    store, descriptor = _store()
    (scalar, scalar_sink, scalar_clock), (batched, batched_sink, _) = (
        _twin_middleboxes(store, **kwargs)
    )
    stream = _interleaved(descriptor, scalar_clock, plans, order)
    for packet in stream:
        scalar.handle(packet.clone())
    clones = [packet.clone() for packet in stream]
    if chunk:
        for start in range(0, len(clones), chunk):
            batched.process_batch(clones[start : start + chunk])
    else:
        batched.process_batch(clones)
    return (scalar, scalar_sink), (batched, batched_sink)


@pytest.mark.contract
class TestMiddleboxDifferential:
    @settings(max_examples=50, deadline=None)
    @given(plan=traffic(births=BIRTHS))
    def test_batch_equals_scalar(self, plan):
        plans, order = plan
        (scalar, scalar_sink), (batched, batched_sink) = (
            _run_middlebox_differential(plans, order)
        )
        assert _middlebox_observables(
            batched, batched_sink
        ) == _middlebox_observables(scalar, scalar_sink)

    @settings(max_examples=30, deadline=None)
    @given(plan=traffic(births=BIRTHS), chunk=st.integers(1, 7))
    def test_chunked_batches_equal_scalar(self, plan, chunk):
        plans, order = plan
        (scalar, scalar_sink), (batched, batched_sink) = (
            _run_middlebox_differential(plans, order, chunk=chunk)
        )
        assert _middlebox_observables(
            batched, batched_sink
        ) == _middlebox_observables(scalar, scalar_sink)

    @settings(max_examples=30, deadline=None)
    @given(plan=traffic(births=BIRTHS))
    def test_telemetry_equals_scalar(self, plan):
        plans, order = plan
        (scalar, _), (batched, _) = _run_middlebox_differential(plans, order)
        scalar_registry, batched_registry = MetricsRegistry(), MetricsRegistry()
        scalar.register_telemetry(scalar_registry)
        batched.register_telemetry(batched_registry)
        scalar_snapshot = scalar_registry.snapshot()
        batched_snapshot = batched_registry.snapshot()
        assert batched_snapshot.counters == scalar_snapshot.counters
        assert batched_snapshot.gauges == scalar_snapshot.gauges

    @settings(max_examples=30, deadline=None)
    @given(plan=traffic(births=BIRTHS))
    def test_tiny_caps_evict_identically(self, plan):
        """Flow-cap and subscriber-cap evictions (and their callbacks)
        fire at the same points on both paths."""
        plans, order = plan
        store, descriptor = _store()
        clock = Clock()
        stream = _interleaved(descriptor, clock, plans, order)
        scalar_evicted, batched_evicted = [], []
        scalar = ScalarZeroRatingMiddlebox(
            CookieMatcher(store), clock=clock,
            max_flows=2, max_subscribers=2,
            on_subscriber_evicted=lambda ip, counters: scalar_evicted.append(
                (ip, counters.free_bytes, counters.charged_bytes)
            ),
        )
        batched = ZeroRatingMiddlebox(
            CookieMatcher(store), clock=clock,
            max_flows=2, max_subscribers=2,
            on_subscriber_evicted=lambda ip, counters: batched_evicted.append(
                (ip, counters.free_bytes, counters.charged_bytes)
            ),
        )
        scalar_sink, batched_sink = Sink(), Sink()
        scalar >> scalar_sink
        batched >> batched_sink
        for packet in stream:
            scalar.handle(packet.clone())
        batched.process_batch([packet.clone() for packet in stream])
        assert batched_evicted == scalar_evicted
        assert _middlebox_observables(
            batched, batched_sink
        ) == _middlebox_observables(scalar, scalar_sink)

    def test_idle_timeout_between_batches(self):
        """Advancing the clock past the idle timeout between bursts
        evicts and re-creates flow state identically on both paths."""
        store, descriptor = _store()
        scalar_clock, batched_clock = Clock(), Clock()
        scalar = ScalarZeroRatingMiddlebox(
            CookieMatcher(store), clock=scalar_clock, flow_idle_timeout=10.0
        )
        batched = ZeroRatingMiddlebox(
            CookieMatcher(store), clock=batched_clock, flow_idle_timeout=10.0
        )
        burst = _flow_packets(descriptor, scalar_clock, 0, "valid", 4)
        for clock, middlebox, feed in (
            (scalar_clock, scalar, "scalar"),
            (batched_clock, batched, "batched"),
        ):
            clock.now = 0.0
            first = [packet.clone() for packet in burst]
            second = [packet.clone() for packet in burst[1:]]
            if feed == "scalar":
                for packet in first:
                    middlebox.handle(packet)
                clock.now = 25.0
                for packet in second:
                    middlebox.handle(packet)
            else:
                middlebox.process_batch(first)
                clock.now = 25.0
                middlebox.process_batch(second)
        assert batched.flows_evicted_idle == scalar.flows_evicted_idle == 1
        assert _middlebox_observables(batched, Sink()) == (
            _middlebox_observables(scalar, Sink())
        )

    def test_resolution_callback_order_equal(self):
        store, descriptor = _store()
        clock = Clock()
        plans = [
            ("valid", 4, "from_text"),
            ("none", 4, "from_text"),
            ("bad_sig", 4, "from_bytes"),
        ]
        order = [0, 1, 2] * 4
        stream = _interleaved(descriptor, clock, plans, order)
        scalar_log, batched_log = [], []
        scalar = ScalarZeroRatingMiddlebox(
            CookieMatcher(store), clock=clock,
            on_flow_resolved=lambda key, state: scalar_log.append(
                (key, state.zero_rated)
            ),
        )
        batched = ZeroRatingMiddlebox(
            CookieMatcher(store), clock=clock,
            on_flow_resolved=lambda key, state: batched_log.append(
                (key, state.zero_rated)
            ),
        )
        for packet in stream:
            scalar.handle(packet.clone())
        batched.process_batch([packet.clone() for packet in stream])
        assert batched_log == scalar_log
        assert len(scalar_log) == 3

    def test_raising_hook_aborts_both_paths_at_the_same_state(self):
        """A hook that raises mid-burst propagates, and the burst has
        counted and emitted what the scalar loop had by that packet."""
        store, descriptor = _store()
        clock = Clock()
        stream = _interleaved(
            descriptor, clock,
            [("valid", 2, "from_text"), ("valid", 3, "from_bytes")],
            [0, 0, 1, 1, 1],
        )

        def refuse_second():
            seen = []

            def hook(key, state):
                seen.append(key)
                if len(seen) == 2:
                    raise RuntimeError("offload table full")

            return hook

        sides = []
        for feed in ("scalar", "batched"):
            middlebox = (
                ScalarZeroRatingMiddlebox if feed == "scalar"
                else ZeroRatingMiddlebox
            )(
                CookieMatcher(store), clock=clock,
                on_flow_resolved=refuse_second(),
            )
            sink = Sink()
            middlebox >> sink
            with pytest.raises(RuntimeError):
                if feed == "scalar":
                    for packet in stream:
                        middlebox.handle(packet.clone())
                else:
                    middlebox.process_batch([p.clone() for p in stream])
            sides.append(_middlebox_observables(middlebox, sink))
        assert sides[1] == sides[0]
        assert sides[0]["stats"][:4] == (3, 2, 0, 2)
        assert len(sides[0]["outputs"]) == 2

    def test_first_packet_path_decodes_nothing(self, monkeypatch):
        """Guard: a carrier-delivered cookie is verified out of its 48
        bytes on both paths — accepted or rejected for any reason, its
        fields are never decoded."""
        store, descriptor = _store()
        revoked = store.add(CookieDescriptor.create(service_data="revoked"))
        expired = store.add(
            CookieDescriptor.create(
                service_data="expired",
                attributes=CookieAttributes(expires_at=100.5),
            )
        )
        rogue = CookieDescriptor.create(service_data="never stored")
        clock = Clock(now=100.0)
        good = CookieGenerator(descriptor, clock).generate()
        cookies = [
            good,
            good,  # replayed
            dataclasses.replace(good, signature=bytes(16)),
            CookieGenerator(descriptor, Clock(now=50.0)).generate(),  # stale
            CookieGenerator(rogue, clock).generate(),
            CookieGenerator(revoked, clock).generate(),
            CookieGenerator(expired, clock).generate(),
        ]
        revoked.revoke()
        clock.now = 101.0
        stream = []
        for index, cookie in enumerate(cookies):
            packet = make_tcp_packet(
                SUBSCRIBERS[0], 6000 + index, "93.184.216.34", 443,
                content=TLSClientHello(sni="app.example.com"),
                payload_size=200,
            )
            carrier = ("tls", "tcp")[index % 2]
            default_registry().attach(packet, cookie, allowed=(carrier,))
            stream.append(packet)

        def decode(field, cookie, owner=None):
            raise AssertionError(f"data path decoded Cookie.{field.name}")

        monkeypatch.setattr("repro.core.cookie._WireField.__get__", decode)
        for feed in ("scalar", "batched"):
            matcher = CookieMatcher(store)
            middlebox = (
                ScalarZeroRatingMiddlebox if feed == "scalar"
                else ZeroRatingMiddlebox
            )(matcher, clock=clock)
            clones = [packet.clone() for packet in stream]
            if feed == "scalar":
                for packet in clones:
                    middlebox.handle(packet)
            else:
                middlebox.process_batch(clones)
            assert middlebox.verifier_failures == 0, feed
            assert (middlebox.cookie_hits, middlebox.cookie_misses) == (1, 6)
            assert matcher.stats.as_dict() == {
                "accepted": 1, "replayed": 1, "bad_signature": 1,
                "stale_timestamp": 1, "unknown_id": 1, "revoked": 1,
                "expired": 1,
            }, feed

    def test_contiguous_run_uses_exact_wire_lengths(self):
        """The batched run-coalescing fast path must account the same
        byte totals the per-packet path does."""
        store, descriptor = _store()
        clock = Clock()
        stream = _flow_packets(descriptor, clock, 0, "valid", 50)
        scalar = ScalarZeroRatingMiddlebox(CookieMatcher(store), clock=clock)
        batched = ZeroRatingMiddlebox(CookieMatcher(store), clock=clock)
        for packet in stream:
            scalar.handle(packet.clone())
        batched.process_batch([packet.clone() for packet in stream])
        subscriber = SUBSCRIBERS[0]
        expected_free = sum(packet.wire_length for packet in stream)
        assert scalar.counters_for(subscriber).free_bytes == expected_free
        assert batched.counters_for(subscriber).free_bytes == expected_free
        assert batched.counters_for(subscriber).charged_bytes == 0

    def test_mixed_free_and_charged_subscribers(self):
        store, descriptor = _store()
        clock = Clock()
        plans = [("valid", 5, "from_text"), ("none", 5, "from_text")]
        order = [0, 1, 0, 1, 0, 1, 0, 1, 0, 1]
        stream = _interleaved(descriptor, clock, plans, order)
        scalar = ScalarZeroRatingMiddlebox(CookieMatcher(store), clock=clock)
        batched = ZeroRatingMiddlebox(CookieMatcher(store), clock=clock)
        for packet in stream:
            scalar.handle(packet.clone())
        batched.process_batch([packet.clone() for packet in stream])
        for middlebox in (scalar, batched):
            free = middlebox.counters_for(SUBSCRIBERS[0])
            charged = middlebox.counters_for(SUBSCRIBERS[1])
            assert free.charged_bytes == 0 and free.free_bytes > 0
            assert charged.free_bytes == 0 and charged.charged_bytes > 0
        assert {
            ip: (c.free_bytes, c.charged_bytes)
            for ip, c in batched.counters.items()
        } == {
            ip: (c.free_bytes, c.charged_bytes)
            for ip, c in scalar.counters.items()
        }


# ----------------------------------------------------------------------
# Billing: the batch loop bills runs, the scalar path bills packets
# ----------------------------------------------------------------------
BILLING_SERVER = "93.184.216.34"
#: unlimited / capped / CDN-not-covered / capped + roaming / no operator
BILLING_SUBSCRIBERS = (
    "10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4", "10.0.0.5",
)
PAYLOAD_SIZES = (1, 40, 512, 1400)


def _billing_accountant(directory, cap):
    origin = AppCoverage(
        app="zero-rate", origin_ips=frozenset({BILLING_SERVER})
    )
    catalogs = CatalogSet([
        OperatorCatalog("op-unlimited", apps=(origin,)),
        OperatorCatalog("op-capped", apps=(origin,), cap_bytes=cap),
        OperatorCatalog(
            "op-cdn",
            apps=(AppCoverage(
                app="zero-rate", cdn_ips=frozenset({BILLING_SERVER}),
                cdn_covered=False,
            ),),
        ),
    ])
    for ip, operator in zip(
        BILLING_SUBSCRIBERS,
        ("op-unlimited", "op-capped", "op-cdn", "op-capped"),
    ):
        catalogs.assign(ip, operator)
    catalogs.set_roaming(BILLING_SUBSCRIBERS[3])
    return BillingAccountant(
        catalogs, BillingJournal(directory, source="diff", fsync="never")
    )


def _billing_flow(descriptor, clock, flow_index, subscriber, cookie_kind, tail):
    """A cookied (or not) hello, then ``tail``: (upstream?, payload size)
    packets in either direction."""
    head = _flow_packets(descriptor, clock, flow_index, cookie_kind, 1)[0]
    head.ip.src = subscriber
    sport = head.l4.src_port
    packets = [head]
    for upstream, size in tail:
        ends = (
            (subscriber, sport, BILLING_SERVER, 443)
            if upstream
            else (BILLING_SERVER, 443, subscriber, sport)
        )
        packets.append(
            make_tcp_packet(*ends, payload_size=size, encrypted=True)
        )
    return packets


def _wire_lengths(tail):
    """Wire lengths of a valid flow's packets (sizing a cap needs them
    before the accountant it configures exists)."""
    _, descriptor = _store()
    flow = _billing_flow(
        descriptor, Clock(), 0, BILLING_SUBSCRIBERS[1], "valid", tail
    )
    return [packet.wire_length for packet in flow]


@st.composite
def billed_traffic(draw):
    """Flow plans plus a bursty schedule: (flow, burst length) turns, so
    resolved runs of every length form, split and interleave."""
    plans = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(BILLING_SUBSCRIBERS) - 1),
                st.sampled_from(COOKIE_KINDS),
                st.lists(
                    st.tuples(st.booleans(), st.sampled_from(PAYLOAD_SIZES)),
                    max_size=8,
                ),
            ),
            min_size=1,
            max_size=6,
        )
    )
    turns = draw(
        st.lists(
            st.tuples(st.integers(0, len(plans) - 1), st.integers(1, 6)),
            max_size=12,
        )
    )
    return plans, turns


def _bursty(per_flow, turns):
    cursors = [0] * len(per_flow)
    stream = []
    # Whatever the schedule leaves over drains flow by flow.
    for flow_index, burst in turns + [(i, 10**6) for i in range(len(per_flow))]:
        start = cursors[flow_index]
        cursors[flow_index] = min(start + burst, len(per_flow[flow_index]))
        stream.extend(per_flow[flow_index][start : cursors[flow_index]])
    return stream


def _directory_bytes(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            out[name] = handle.read()
    return out


def _billing_observables(middlebox, sink, accountant):
    out = _middlebox_observables(middlebox, sink)
    out["cookie_checked"] = [
        packet.meta.get("cookie_checked") for packet in sink.packets
    ]
    # Lists, not dicts: LRU and flush order are part of the contract.
    out["counters"] = [
        (ip, counters.free_bytes, counters.charged_bytes)
        for ip, counters in middlebox.counters.items()
    ]
    out["flow_billing"] = [
        (state.remote_ip, state.service, state.last_seen)
        for state in middlebox._flows.values()
    ]
    out["accountant"] = accountant.stats_dict()
    out["cap_used"] = dict(accountant._cap_used)
    out["pending"] = [
        (key, dict(buckets)) for key, buckets in accountant._pending.items()
    ]
    out["pending_subscribers"] = accountant.pending_subscribers
    out["pending_bytes"] = accountant.pending_bytes
    return out


class _BillingPair:
    """Scalar and batched middleboxes over one store and one clock, each
    billing into a journal directory of its own."""

    def __init__(self, cap, **kwargs):
        self.store, self.descriptor = _store()
        self.clock = Clock(now=1.0)
        self.directories = [
            tempfile.mkdtemp(prefix="repro-billing-diff-") for _ in range(2)
        ]
        self.sides = []
        for directory, cls in zip(
            self.directories, (ScalarZeroRatingMiddlebox, ZeroRatingMiddlebox)
        ):
            accountant = _billing_accountant(directory, cap)
            middlebox = cls(
                CookieMatcher(self.store), clock=self.clock,
                billing=accountant, **kwargs
            )
            sink = Sink()
            middlebox >> sink
            self.sides.append((middlebox, sink, accountant))

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        for _, _, accountant in self.sides:
            accountant.journal.close()
        for directory in self.directories:
            shutil.rmtree(directory, ignore_errors=True)

    def feed(self, stream, chunk=None):
        """The same chunks, at the same tick times, down both paths."""
        (scalar, _, _), (batched, _, _) = self.sides
        chunk = chunk or max(1, len(stream))
        for tick, start in enumerate(range(0, len(stream), chunk)):
            self.clock.now = 1.0 + 0.01 * tick
            burst = stream[start : start + chunk]
            for packet in burst:
                scalar.handle(packet.clone())
            batched.process_batch([packet.clone() for packet in burst])

    def assert_identical(self):
        scalar, batched = (
            _billing_observables(*side) for side in self.sides
        )
        assert batched == scalar
        for _, _, accountant in self.sides:
            accountant.flush_all(now=self.clock.now)
        scalar_bytes, batched_bytes = (
            _directory_bytes(directory) for directory in self.directories
        )
        assert batched_bytes == scalar_bytes
        return scalar

    def flow(self, subscriber, tail, flow_index=0):
        return _billing_flow(
            self.descriptor, self.clock, flow_index, subscriber, "valid", tail
        )


class _WatchedAccountant:
    """Stands between a middlebox and its accountant: counts the data
    path's ``account`` / ``account_run`` calls (``account``'s own inner
    ``account_run`` runs on the real object and is not one), and fails
    every bill for ``poisoned``."""

    def __init__(self, accountant, poisoned=None):
        self._accountant = accountant
        self.poisoned = poisoned
        self.calls = {"account": 0, "account_run": 0}
        self.run_lengths = []

    def account(self, subscriber_ip, *args, **kwargs):
        self.calls["account"] += 1
        if subscriber_ip == self.poisoned:
            raise RuntimeError("tariff lookup failed")
        return self._accountant.account(subscriber_ip, *args, **kwargs)

    def account_run(self, subscriber_ip, app, server_ip, sizes, **kwargs):
        self.calls["account_run"] += 1
        self.run_lengths.append(len(sizes))
        if subscriber_ip == self.poisoned:
            raise RuntimeError("tariff lookup failed")
        return self._accountant.account_run(
            subscriber_ip, app, server_ip, sizes, **kwargs
        )

    def __getattr__(self, name):
        return getattr(self._accountant, name)


@pytest.mark.contract
class TestBillingDifferential:
    @settings(max_examples=60, deadline=None)
    @given(
        plan=billed_traffic(),
        cap=st.integers(0, 6000),
        chunk=st.one_of(st.none(), st.integers(1, 7)),
        max_subscribers=st.sampled_from((1, 2)),
        max_flows=st.sampled_from((2, 100)),
    )
    def test_batch_equals_scalar(
        self, plan, cap, chunk, max_subscribers, max_flows
    ):
        plans, turns = plan
        with _BillingPair(
            cap, max_subscribers=max_subscribers, max_flows=max_flows
        ) as pair:
            per_flow = [
                _billing_flow(
                    pair.descriptor, pair.clock, index,
                    BILLING_SUBSCRIBERS[subscriber], kind, tail,
                )
                for index, (subscriber, kind, tail) in enumerate(plans)
            ]
            pair.feed(_bursty(per_flow, turns), chunk=chunk)
            pair.assert_identical()

    def test_small_packet_fits_after_a_large_one_did_not(self):
        """Freeness is per packet, not a prefix of the run: 1400 B does
        not fit under what is left of the cap, the 40 B packets behind
        it do — the second one to the cap's last byte."""
        tail = [(False, 1400), (False, 40), (True, 40), (False, 1400)]
        head, big, small = _wire_lengths(tail)[:3]
        cap = head + 2 * small
        assert small < big and cap < head + big
        with _BillingPair(cap) as pair:
            pair.feed(pair.flow(BILLING_SUBSCRIBERS[1], tail))
            _, batched_sink, accountant = pair.sides[1]
            assert [
                packet.meta.get("zero_rated") for packet in batched_sink.packets
            ] == [True, None, True, True, None]
            assert accountant.cap_used(BILLING_SUBSCRIBERS[1]) == cap
            observed = pair.assert_identical()
        assert observed["pending"] == [(
            ("op-capped", BILLING_SUBSCRIBERS[1]),
            {
                ("zero-rate", "origin", True): cap,
                ("zero-rate", "cap_exhausted", False): 2 * big,
            },
        )]

    def test_a_resolved_run_is_billed_once_head_included(self):
        """N resolved runs in a burst are N ``account_run`` calls and no
        ``account`` call; packets of a flow still inside its sniff
        window are ``account`` calls and nothing else."""
        with _BillingPair(None) as pair:
            batched, _, accountant = pair.sides[1]
            batched.billing = watched = _WatchedAccountant(accountant)
            resolved = [
                packet
                for length in (1, 2, 3, 4)
                for packet in pair.flow(
                    BILLING_SUBSCRIBERS[length % 3],
                    [(length % 2 == 0, 512)] * (length - 1),
                    flow_index=length,
                )
            ]
            pair.feed(resolved)
            assert watched.calls == {"account": 0, "account_run": 4}
            assert watched.run_lengths == [1, 2, 3, 4]
            unresolved = _billing_flow(
                pair.descriptor, pair.clock, 9, BILLING_SUBSCRIBERS[0],
                "none", [(False, 40)],
            )
            pair.feed(unresolved)
            assert watched.calls == {"account": 2, "account_run": 4}
            pair.assert_identical()

    def test_head_crosses_the_cap_and_a_smaller_tail_packet_still_fits(self):
        tail = [(False, 40), (True, 40)]
        head, small, _ = _wire_lengths(tail)
        cap = 2 * small
        assert cap < head
        with _BillingPair(cap) as pair:
            pair.feed(pair.flow(BILLING_SUBSCRIBERS[1], tail))
            middlebox, sink, accountant = pair.sides[1]
            assert [
                packet.meta.get("zero_rated") for packet in sink.packets
            ] == [None, True, True]
            assert accountant.cap_used(BILLING_SUBSCRIBERS[1]) == cap
            counters = middlebox.counters_for(BILLING_SUBSCRIBERS[1])
            assert (counters.free_bytes, counters.charged_bytes) == (cap, head)
            observed = pair.assert_identical()
        assert observed["pending"] == [(
            ("op-capped", BILLING_SUBSCRIBERS[1]),
            {
                ("zero-rate", "cap_exhausted", False): head,
                ("zero-rate", "origin", True): cap,
            },
        )]

    def test_a_resolved_run_of_one(self):
        """Two one-packet flows: the first lands exactly on the cap, the
        second finds it spent."""
        (head,) = _wire_lengths([])
        with _BillingPair(head) as pair:
            pair.feed(
                pair.flow(BILLING_SUBSCRIBERS[1], [])
                + pair.flow(BILLING_SUBSCRIBERS[1], [], flow_index=1)
            )
            _, sink, accountant = pair.sides[1]
            assert [
                packet.meta.get("zero_rated") for packet in sink.packets
            ] == [True, None]
            assert accountant.cap_used(BILLING_SUBSCRIBERS[1]) == head
            pair.assert_identical()

    def test_a_bill_that_raises_drops_the_run_where_scalar_drops_its_head(self):
        with _BillingPair(None) as pair:
            for middlebox, _, accountant in pair.sides:
                middlebox.billing = _WatchedAccountant(
                    accountant, poisoned=BILLING_SUBSCRIBERS[1]
                )
            (scalar, _, _), (batched, batched_sink, _) = pair.sides
            stream = pair.flow(BILLING_SUBSCRIBERS[0], [(False, 512)]) + pair.flow(
                BILLING_SUBSCRIBERS[1], [(False, 512), (True, 40)], flow_index=1
            )
            with pytest.raises(RuntimeError):
                for packet in stream:
                    scalar.handle(packet.clone())
            with pytest.raises(RuntimeError):
                batched.process_batch([packet.clone() for packet in stream])
            assert (batched.packets_processed, len(batched_sink.packets)) == (3, 2)
            pair.assert_identical()

    def test_run_total_landing_exactly_on_the_cap_is_all_free(self):
        tail = [(False, 1400), (True, 1), (False, 512)]
        cap = sum(_wire_lengths(tail))
        with _BillingPair(cap) as pair:
            pair.feed(pair.flow(BILLING_SUBSCRIBERS[1], tail))
            middlebox, _, accountant = pair.sides[1]
            assert accountant.cap_used(BILLING_SUBSCRIBERS[1]) == cap
            counters = middlebox.counters_for(BILLING_SUBSCRIBERS[1])
            assert (counters.free_bytes, counters.charged_bytes) == (cap, 0)
            # The cap is spent to the byte: the next flow is all charged.
            pair.feed(pair.flow(BILLING_SUBSCRIBERS[1], tail, flow_index=1))
            assert counters.free_bytes == cap
            pair.assert_identical()

    def test_batch_eviction_without_flush_hook_raises(self):
        """...and the aborted burst leaves what the scalar loop aborted
        at the same packet leaves: everything before it counted, billed
        and emitted (regression: the burst used to drop its tallies and
        its already-processed prefix on the way out)."""
        with _BillingPair(None, max_subscribers=1) as pair:
            (scalar, scalar_sink, _), (batched, batched_sink, _) = pair.sides
            scalar.on_subscriber_evicted = batched.on_subscriber_evicted = None
            stream = pair.flow(
                BILLING_SUBSCRIBERS[0], [(False, 512), (True, 40)]
            ) + pair.flow(BILLING_SUBSCRIBERS[1], [(False, 512)], flow_index=1)
            with pytest.raises(BillingFlushRequired):
                for packet in stream:
                    scalar.handle(packet.clone())
            with pytest.raises(BillingFlushRequired):
                batched.process_batch([packet.clone() for packet in stream])
            # The fourth packet was verified before its bill raised.
            assert (
                batched.packets_processed, batched.cookie_hits,
                batched.flows_resolved, len(batched_sink.packets),
            ) == (4, 2, 2, 3)
            pair.assert_identical()

    def test_account_is_the_one_element_run(self):
        calls = [
            (BILLING_SUBSCRIBERS[0], "zero-rate", BILLING_SERVER, 700, True),
            (BILLING_SUBSCRIBERS[1], "zero-rate", BILLING_SERVER, 900, True),
            (BILLING_SUBSCRIBERS[1], "zero-rate", BILLING_SERVER, 200, True),
            (BILLING_SUBSCRIBERS[1], "zero-rate", BILLING_SERVER, 50, True),
            (BILLING_SUBSCRIBERS[1], "zero-rate", "198.51.100.7", 60, True),
            (BILLING_SUBSCRIBERS[2], "zero-rate", BILLING_SERVER, 300, True),
            (BILLING_SUBSCRIBERS[3], "zero-rate", BILLING_SERVER, 300, True),
            (BILLING_SUBSCRIBERS[4], "zero-rate", BILLING_SERVER, 300, True),
            (BILLING_SUBSCRIBERS[0], "other-app", BILLING_SERVER, 80, True),
            (BILLING_SUBSCRIBERS[0], None, BILLING_SERVER, 80, False),
            (BILLING_SUBSCRIBERS[1], "zero-rate", BILLING_SERVER, 0, True),
        ]
        directories = [tempfile.mkdtemp(prefix="repro-acct-") for _ in range(2)]
        try:
            single, run = (_billing_accountant(d, 1000) for d in directories)
            for ip, app, server, nbytes, cookied in calls:
                free = single.account(ip, app, server, nbytes, cookied=cookied)
                assert run.account_run(
                    ip, app, server, [nbytes], cookied=cookied
                ) == [free]
            assert single.free_bytes == 700 + 900 + 50
            for accountant in (single, run):
                accountant.journal.close()
            observed = [
                (
                    accountant.stats_dict(), accountant._cap_used,
                    list(accountant._pending.items()),
                    accountant.pending_subscribers, accountant.pending_bytes,
                )
                for accountant in (single, run)
            ]
            assert observed[0] == observed[1]
        finally:
            for directory in directories:
                shutil.rmtree(directory, ignore_errors=True)


def _switch_observables(switch, sink):
    return {
        "outputs": [
            (
                packet.meta.get("qos_class"),
                packet.meta.get("service"),
                packet.wire_length,
            )
            for packet in sink.packets
        ],
        "stats": (
            switch.stats.packets,
            switch.stats.packets_sniffed,
            switch.stats.cookies_found,
            switch.stats.cookies_accepted,
            switch.stats.cookies_rejected,
            switch.stats.flows_bound,
            switch.stats.packets_served,
        ),
        "matcher": switch.matcher.stats.as_dict(),
        "flows": len(switch.flows),
    }


class TestSwitchDifferential:
    @settings(max_examples=50, deadline=None)
    @given(plan=traffic())
    def test_batch_equals_scalar(self, plan):
        plans, order = plan
        store, descriptor = _store()
        clock = Clock()
        stream = _interleaved(descriptor, clock, plans, order)
        scalar = ScalarCookieSwitch(CookieMatcher(store), clock=clock)
        batched = CookieSwitch(CookieMatcher(store), clock=clock)
        scalar_sink, batched_sink = Sink(), Sink()
        scalar >> scalar_sink
        batched >> batched_sink
        for packet in stream:
            scalar.push(packet.clone())
        batched.push_batch([packet.clone() for packet in stream])
        assert _switch_observables(batched, batched_sink) == (
            _switch_observables(scalar, scalar_sink)
        )

    def test_binding_within_one_batch_serves_followups(self):
        """A cookie at the head of a batch binds the flow; later packets
        of the same flow *in the same batch* ride the binding — exactly
        as a sequential pass would."""
        store, descriptor = _store()
        clock = Clock()
        stream = _flow_packets(descriptor, clock, 0, "valid", 6)
        switch = CookieSwitch(CookieMatcher(store), clock=clock)
        sink = Sink()
        switch >> sink
        switch.push_batch([packet.clone() for packet in stream])
        assert switch.stats.flows_bound == 1
        assert switch.stats.packets_served == len(stream)
        assert all(
            packet.meta.get("service") == "zero-rate"
            for packet in sink.packets
        )

    @settings(max_examples=25, deadline=None)
    @given(plan=traffic(max_flows=3))
    def test_telemetry_equals_scalar(self, plan):
        plans, order = plan
        store, descriptor = _store()
        clock = Clock()
        stream = _interleaved(descriptor, clock, plans, order)
        scalar_registry, batched_registry = MetricsRegistry(), MetricsRegistry()
        scalar = ScalarCookieSwitch(CookieMatcher(store), clock=clock)
        batched = CookieSwitch(CookieMatcher(store), clock=clock)
        scalar.register_telemetry(scalar_registry)
        batched.register_telemetry(batched_registry)
        for packet in stream:
            scalar.push(packet.clone())
        batched.push_batch([packet.clone() for packet in stream])
        scalar_snapshot = scalar_registry.snapshot()
        batched_snapshot = batched_registry.snapshot()
        assert batched_snapshot.counters == scalar_snapshot.counters
        assert batched_snapshot.gauges == scalar_snapshot.gauges


class TestPrefilterDifferential:
    def _env(self, store, cls=HardwarePrefilter):
        prefilter = cls(store, clock=lambda: 0.0)
        software, fast = Sink(), Sink()
        prefilter.software(software)
        prefilter.fast(fast)
        return prefilter, software, fast

    @settings(max_examples=50, deadline=None)
    @given(plan=traffic(max_flows=5, max_packets=3))
    def test_batch_partition_equals_scalar(self, plan):
        plans, order = plan
        store, descriptor = _store()
        clock = Clock()
        stream = _interleaved(descriptor, clock, plans, order)
        scalar, scalar_software, scalar_fast = self._env(
            store, ScalarHardwarePrefilter
        )
        batched, batched_software, batched_fast = self._env(store)
        for packet in stream:
            scalar.push(packet.clone())
        batched.push_batch([packet.clone() for packet in stream])
        registry = default_registry()
        def signature(sink):
            return [
                (packet.wire_length, registry.extract(packet) is not None)
                for packet in sink.packets
            ]
        assert signature(batched_software) == signature(scalar_software)
        assert signature(batched_fast) == signature(scalar_fast)
        assert batched.stats.packets == scalar.stats.packets == len(stream)

    def test_batch_preserves_per_path_order(self):
        """Within one batch, software-path packets stay in arrival order
        and fast-path packets stay in arrival order (the documented batch
        guarantee; cross-path interleaving is not promised)."""
        store, descriptor = _store()
        clock = Clock()
        cookied = _flow_packets(descriptor, clock, 0, "valid", 1)
        plain = [
            make_tcp_packet(
                "10.0.0.9", 7000 + i, "2.2.2.2", 443, payload_size=100 + i
            )
            for i in range(4)
        ]
        stream = [plain[0], cookied[0], plain[1], plain[2], plain[3]]
        prefilter, software, fast = self._env(store)
        prefilter.push_batch(stream)
        assert [p.wire_length for p in fast.packets] == [
            p.wire_length for p in plain
        ]
        assert len(software.packets) == 1
