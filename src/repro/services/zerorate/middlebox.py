"""The zero-rating middlebox (§4.6).

"Our middle-box keeps two counters per IP address (one for free and
another for charged data), and enforces the service in software for both
directions of a flow."  For each packet it does one of three things:
search for a cookie (first packets of a flow), search-and-verify (a packet
that carries one), or simply map the packet to its flow's service — the
task mix that determines Fig. 4's throughput curve.

Granularity is the descriptor's (§4.3): a cookie of a ``FLOW`` grant
zero-rates the flow it opens, one of a ``PACKET`` grant only the packet
that carries it, and that flow keeps no entry.  §4.6's stateless mode —
"if every packet carries a cookie, flow-related state is eliminated" —
is this box fed packet grants on every packet: it holds no flow entry,
and a restarted box loses nothing but the counters.

This is the performance-critical path of the repository, so unlike
:class:`repro.core.switch.CookieSwitch` it keeps its own minimal flow
dictionary instead of the full :class:`FlowTable`.

State is **bounded**: both the flow dictionary and the subscriber-counter
map are LRU-ordered (Python dicts preserve insertion order; entries are
re-inserted on touch, so iteration order *is* recency order) with an
idle timeout and a max-entries cap.  Under sustained flow churn the
middlebox holds at most ``max_flows`` flow entries and
``max_subscribers`` counter pairs, whatever the offered load — the
property the paper's line-rate argument rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress
from typing import TYPE_CHECKING, Callable

from ...core.attributes import DEFAULT_ATTRIBUTES, Granularity
from ...core.matcher import CookieMatcher
from ...core.transport import TransportRegistry, default_registry
from ...netsim.middlebox import Element
from ...netsim.packet import Packet, stamp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from ...core.distributed import ShardedVerifierPool
    from ...services.billing import BillingAccountant
    from ...telemetry import MetricsRegistry

__all__ = [
    "BillingFlushRequired",
    "SubscriberCounters",
    "ZeroRatingMiddlebox",
    "ZERO_RATE_SNIFF_PACKETS",
    "DEFAULT_MAX_FLOWS",
    "DEFAULT_MAX_SUBSCRIBERS",
]


class BillingFlushRequired(RuntimeError):
    """A billing-enabled middlebox was about to evict a subscriber's
    counters with no flush callback wired — silent revenue loss.  The
    constructor installs the journal-flush callback automatically when
    ``billing=`` is given; this raise means someone cleared
    ``on_subscriber_evicted`` afterwards."""


_NO_FLUSH_CALLBACK = (
    "billing-enabled middlebox cannot evict subscriber counters without "
    "a flush callback"
)


ZERO_RATE_SNIFF_PACKETS = 3

_PACKET = Granularity.PACKET
#: The ``extra`` of every block granted without one: no constraints.
_NO_EXTRA = DEFAULT_ATTRIBUTES.extra

#: Flow-state cap: at ~100 B/entry this is ~10 MB of worst-case state.
DEFAULT_MAX_FLOWS = 100_000

#: Counter cap: two ints per subscriber IP; a million fits in ~100 MB and
#: matches the ROADMAP's "millions of users" target.  Evicted counters go
#: through :attr:`ZeroRatingMiddlebox.on_subscriber_evicted` so billing
#: can flush them instead of losing revenue data.
DEFAULT_MAX_SUBSCRIBERS = 1_000_000

#: Flows idle longer than this are dropped (same default as FlowTable).
DEFAULT_FLOW_IDLE_TIMEOUT = 60.0


@dataclass(slots=True)
class SubscriberCounters:
    """The paper's two per-IP counters."""

    free_bytes: int = 0
    charged_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        return self.free_bytes + self.charged_bytes

    @property
    def free_fraction(self) -> float:
        total = self.total_bytes
        return self.free_bytes / total if total else 0.0


def _is_private(ip: str) -> bool:
    """The default ``is_subscriber``: an RFC1918-ish address."""
    return ip.startswith(("10.", "192.168."))


@dataclass(slots=True)
class _FlowState:
    """Per-flow fast-path state: the decision plus the sniff countdown."""

    zero_rated: bool = False
    packets_seen: int = 0
    subscriber_ip: str = ""
    remote_ip: str = ""
    service: object = None
    resolved: bool = False
    last_seen: float = 0.0


class ZeroRatingMiddlebox(Element):
    """Counts subscriber traffic as free (cookied) or charged.

    ``is_subscriber`` decides which side of a packet is the subscriber
    (default: any RFC1918-ish "10." / "192.168." address).  Both directions
    of a flow share one state entry keyed on the canonical 5-tuple: the
    packet's stamped ``flow_key``.  The box trusts the stamp, so an
    element that rewrites headers upstream of it must clear it.

    ``max_flows`` / ``flow_idle_timeout`` bound flow state;
    ``max_subscribers`` bounds the counter map, with
    ``on_subscriber_evicted(ip, counters)`` invoked before a counter pair
    is dropped so accounting can flush it.  :meth:`register_telemetry`
    exports every counter below into a
    :class:`~repro.telemetry.MetricsRegistry`.

    ``matcher`` is any verifier exposing ``match(cookie, now)`` — a
    :class:`~repro.core.matcher.CookieMatcher` for a single-box deploy, or
    a verifier pool (e.g. :class:`~repro.core.distributed.ShardedVerifierPool`)
    when verification is scaled out behind one middlebox front-end.
    """

    def __init__(
        self,
        matcher: "CookieMatcher | ShardedVerifierPool",
        clock: Callable[[], float],
        registry: TransportRegistry | None = None,
        is_subscriber: Callable[[str], bool] | None = None,
        sniff_packets: int = ZERO_RATE_SNIFF_PACKETS,
        on_flow_resolved: Callable[[tuple, "_FlowState"], None] | None = None,
        max_flows: int = DEFAULT_MAX_FLOWS,
        flow_idle_timeout: float = DEFAULT_FLOW_IDLE_TIMEOUT,
        max_subscribers: int = DEFAULT_MAX_SUBSCRIBERS,
        on_subscriber_evicted: (
            Callable[[str, SubscriberCounters], None] | None
        ) = None,
        billing: "BillingAccountant | None" = None,
        name: str = "zero-rating",
    ) -> None:
        super().__init__(name)
        if max_flows < 1:
            raise ValueError("max_flows must be at least 1")
        if max_subscribers < 1:
            raise ValueError("max_subscribers must be at least 1")
        if flow_idle_timeout <= 0:
            raise ValueError("flow_idle_timeout must be positive")
        self.matcher = matcher
        self.clock = clock
        self.registry = registry or default_registry()
        self.is_subscriber = is_subscriber or _is_private
        self.sniff_packets = sniff_packets
        #: Invoked once per flow the moment its fate is final (a flow
        #: grant's cookie matched, or the sniff window closed without
        #: one; a packet grant decides no flow's fate).  The §4.6
        #: hardware co-design hooks here to offload the rest of the flow.
        #: Its ``key`` is the flow's stamp, the flat ``(ip, port, ip, port,
        #: proto)`` with the lower endpoint first, which every other box
        #: (``HardwarePrefilter.offload_flow`` included) keys flows by.
        self.on_flow_resolved = on_flow_resolved
        self.max_flows = max_flows
        self.flow_idle_timeout = flow_idle_timeout
        self.max_subscribers = max_subscribers
        #: Optional :class:`~repro.services.billing.BillingAccountant`
        #: (duck-typed: ``account(...)`` + ``account_run(...)`` +
        #: ``flush_subscriber(ip, now=)``).
        #: With billing, packet freeness comes from the subscriber's
        #: operator catalog (coverage, caps, roaming) instead of the
        #: bare cookie verdict, and every eviction flushes the pending
        #: deltas to the journal first — the flush callback is wired
        #: here and is *mandatory*: evicting without it raises
        #: :class:`BillingFlushRequired`.
        self.billing = billing
        if billing is not None:
            user_callback = on_subscriber_evicted

            def _flush_then_notify(
                ip: str, counters: SubscriberCounters
            ) -> None:
                # ``clock``, not ``self.clock``: a closure over ``self``
                # would make every billing box a reference cycle that
                # only the cyclic collector frees.
                billing.flush_subscriber(ip, now=clock())
                if user_callback is not None:
                    user_callback(ip, counters)

            on_subscriber_evicted = _flush_then_notify
        self.on_subscriber_evicted = on_subscriber_evicted
        # Both dicts are LRU-ordered: touched entries are re-inserted at
        # the end, so the first key is always the least recently active.
        self.counters: dict[str, SubscriberCounters] = {}
        self._flows: dict[tuple, _FlowState] = {}
        self.packets_processed = 0
        self.cookie_hits = 0
        self.cookie_misses = 0
        #: Fail-safe rule (§4.6 economics): if the verifier itself blows
        #: up — a pool whose workers are gone, a store backend erroring —
        #: the flow is **charged, never free**.  An attacker must not be
        #: able to turn a verifier crash into free data.
        self.verifier_failures = 0
        self.flows_resolved = 0
        self.flows_evicted_idle = 0
        self.flows_evicted_cap = 0
        self.subscribers_evicted = 0
        #: Bytes of evicted subscribers, so the exported byte totals stay
        #: monotonic across LRU eviction (added in the eviction loop only).
        self.evicted_bytes = SubscriberCounters()

    # ------------------------------------------------------------------
    # Fast path
    # ------------------------------------------------------------------
    def handle(self, packet: Packet) -> None:
        """One packet is a burst of one."""
        self.process_batch([packet])

    def process_batch(self, packets: list[Packet]) -> None:
        """The packet path: one rx burst, one observation time.

        A burst leaves the box (flow and counter state, telemetry,
        emitted packets and their order) exactly as the same packets
        pushed as bursts of one would, with the clock frozen for the
        burst.  That holds when something raises mid-burst too: tallies
        and the packets already processed are flushed on the way out, as
        bursts of one would have counted and emitted them.  What a burst
        saves per packet:

        - the clock is read once, telemetry counters are aggregated in
          locals and flushed once;
        - every ``self.`` attribute used on the hot path is bound once;
        - a new flow pays no method hop: the eviction check, the flow
          state, the fail-safe ``try`` around the verifier and the
          resolve hook are written out in the loop;
        - no header is parsed: each packet's flow key and wire length
          are the NIC's stamp (:func:`~repro.netsim.packet.stamp`), and
          a packet that arrives unstamped is stamped on the way in.
          That call costs more than the inline header read it
          replaced, so a driver of multi-packet bursts stamps them as
          it builds them (PROTOCOL §9);
        - consecutive packets of a *resolved* flow (the common burst
          shape — think GRO) coalesce into a run: the head packet pays
          the full dict/LRU path, the rest of the run joins on its
          stamped key — the head's very tuple, for a flow the NIC
          stamped, so one identity test; an equal key stamped apart
          joins too — adds its stamped length, and is billed to the
          flow's counter in one addition.  Final LRU order and counter
          values are unchanged — consecutive touches of one key neither
          move it relative to other keys nor bill a different total.

        Billing rides the same loop.  Without it a packet is free when
        its flow's cookie verified; with it the subscriber's operator
        catalog decides, and the counters mirror the billed decision so
        wire-visible accounting and invoices never disagree.  A resolved
        run — head included, also a run of one — only collects wire
        lengths and is billed by a single ``billing.account_run``, which
        splits the run only where a cap bites and hands back each
        packet's freeness for its ``zero_rated`` mark and the
        free/charged split — the subscriber, app and server are the
        flow's, so they are constants of the run.  The run is emitted
        once it is billed, so a bill that raises drops it where bursts
        of one would have dropped its head.  Packets of flows still
        unresolved, and each packet a packet grant serves, are billed one
        by one through ``billing.account``.
        """
        now = self.clock()
        flows = self._flows
        counters = self.counters
        billing = self.billing
        extract = self.registry.extract
        match = self.matcher.match
        is_subscriber = self.is_subscriber
        on_flow_resolved = self.on_flow_resolved
        sniff = self.sniff_packets
        idle = self.flow_idle_timeout
        max_flows = self.max_flows
        max_subscribers = self.max_subscribers
        on_subscriber_evicted = self.on_subscriber_evicted
        processed = 0
        hits = 0
        misses = 0
        resolved = 0
        out: list[Packet] = []
        append = out.append
        index = 0
        total = len(packets)
        try:
            while index < total:
                packet = packets[index]
                index += 1
                processed += 1
                key = packet.flow_key
                if key is None:
                    key = stamp(packet)
                    if key is None:  # no IP or transport header
                        append(packet)
                        continue
                state = flows.pop(key, None)
                if state is not None and now - state.last_seen <= idle:
                    state.last_seen = now
                    packets_seen = state.packets_seen + 1
                    state.packets_seen = packets_seen
                else:
                    if state is not None:
                        self.flows_evicted_idle += 1
                    # _evict_for_space's own entry conditions, tested here
                    # so a table with room and a live oldest entry (every
                    # new flow of a healthy box) costs no call.
                    elif len(flows) >= max_flows or (
                        flows
                        and now - next(iter(flows.values())).last_seen > idle
                    ):
                        self._evict_for_space(now)
                    # The billed end: the source, unless only the
                    # destination is a subscriber (transit bills the
                    # sender).
                    ip = packet.ip
                    src = ip.src
                    dst = ip.dst
                    if is_subscriber(src) or not is_subscriber(dst):
                        subscriber_ip, remote_ip = src, dst
                    else:
                        subscriber_ip, remote_ip = dst, src
                    packets_seen = 1
                    state = _FlowState(
                        packets_seen=1, subscriber_ip=subscriber_ip,
                        remote_ip=remote_ip, last_seen=now,
                    )
                flows[key] = state

                if not state.resolved and packets_seen <= sniff:
                    found = extract(packet)
                    if found:
                        # Verification spends a cookie, accepted or not;
                        # one the box skips stays unspent on the wire.
                        packet.meta["cookie_checked"] = True
                        # Composed cookies: the first one the verifier
                        # accepts wins, as on the switch.  Fail-safe: a
                        # verifier that raises has not said yes, so the
                        # box moves on and the flow stays charged.  The
                        # box attests no context, so a descriptor with
                        # constraints fails closed, as on a switch that
                        # lacks the constrained key (§3 rule 7).
                        for cookie in found:
                            try:
                                descriptor = match(cookie, now)
                            except Exception:
                                self.verifier_failures += 1
                                descriptor = None
                            if descriptor is not None:
                                attributes = descriptor.attributes
                                if (
                                    attributes.extra is _NO_EXTRA
                                    or attributes.matches_context({})
                                ):
                                    break
                                descriptor = None
                        if descriptor is not None:
                            state.zero_rated = True
                            state.service = descriptor.service_data
                            hits += 1
                        else:
                            misses += 1
                    # A hit, or a sniff window closed without one (bare or
                    # failed): the flow's fate is final either way, and
                    # the §4.6 offload hook must fire.
                    if state.zero_rated or packets_seen >= sniff:
                        if (
                            state.zero_rated
                            and descriptor.attributes.granularity is _PACKET
                        ):
                            # A packet grant (§4.3) serves its packet only:
                            # the flow keeps no entry, so its next packet
                            # opens a fresh sniff window, and this one is
                            # billed alone, unresolved.
                            del flows[key]
                        else:
                            state.resolved = True
                            resolved += 1
                            if on_flow_resolved is not None:
                                on_flow_resolved(key, state)

                # Bill the head packet.  Subscriber recency is kept at
                # flow granularity: only a flow's first packet moves its
                # subscriber to the recent end of the LRU.
                subscriber_ip = state.subscriber_ip
                sub_counters = counters.get(subscriber_ip)
                if sub_counters is None:
                    while len(counters) >= max_subscribers:
                        if billing is not None and on_subscriber_evicted is None:
                            raise BillingFlushRequired(_NO_FLUSH_CALLBACK)
                        evicted_ip = next(iter(counters))
                        evicted = counters.pop(evicted_ip)
                        self.subscribers_evicted += 1
                        self.evicted_bytes.free_bytes += evicted.free_bytes
                        self.evicted_bytes.charged_bytes += evicted.charged_bytes
                        if on_subscriber_evicted is not None:
                            on_subscriber_evicted(evicted_ip, evicted)
                    sub_counters = SubscriberCounters()
                    counters[subscriber_ip] = sub_counters
                elif packets_seen == 1:
                    del counters[subscriber_ip]
                    counters[subscriber_ip] = sub_counters
                zero_rated = state.zero_rated
                wire = packet.pkt_len
                if billing is not None and state.resolved:
                    # The head joins its run: billed, marked and emitted
                    # with it, below.
                    sizes = [wire]
                    sizes_append = sizes.append
                else:
                    if billing is None:
                        free = zero_rated
                    else:
                        free = billing.account(
                            subscriber_ip,
                            state.service if zero_rated else None,
                            state.remote_ip, wire, cookied=zero_rated, now=now,
                        )
                    if free:
                        sub_counters.free_bytes += wire
                        packet.meta["zero_rated"] = True
                    else:
                        sub_counters.charged_bytes += wire
                    append(packet)

                if not state.resolved:
                    continue
                # Resolved-run fast sub-loop: consume every immediately
                # following packet of the same conversation (either
                # direction) without re-touching the dicts.  Nothing a
                # burst of one would do for these packets survives skipping:
                # the LRU entry is already at the recent end with
                # last_seen == now, the verdict is final (resolved flows
                # skip cookie work), and byte accounting is additive —
                # under billing up to the cap, which account_run applies
                # to the collected sizes once the run ends.
                start = index
                run_bytes = 0
                while index < total:
                    nxt = packets[index]
                    nkey = nxt.flow_key
                    if nkey is not key:
                        # Another flow, a packet stamped on its own, or
                        # one no NIC has seen: settle it on the key's value.
                        if nkey is None:
                            nkey = stamp(nxt)
                        if nkey != key:
                            break
                    index += 1
                    wire = nxt.pkt_len
                    if billing is not None:
                        sizes_append(wire)
                    else:
                        run_bytes += wire
                        if zero_rated:
                            nxt.meta["zero_rated"] = True
                run_packets = index - start
                if billing is not None:
                    flags = billing.account_run(
                        subscriber_ip, state.service if zero_rated else None,
                        state.remote_ip, sizes, cookied=zero_rated, now=now,
                    )
                    run_free = sum(compress(sizes, flags))
                    sub_counters.free_bytes += run_free
                    sub_counters.charged_bytes += sum(sizes) - run_free
                    run = packets[start - 1 : index]
                    for nxt in compress(run, flags):
                        nxt.meta["zero_rated"] = True
                    out += run
                elif run_packets:
                    out += packets[start:index]
                    if zero_rated:
                        sub_counters.free_bytes += run_bytes
                    else:
                        sub_counters.charged_bytes += run_bytes
                if run_packets:
                    processed += run_packets
                    state.packets_seen = packets_seen + run_packets
        finally:
            # On a mid-burst raise too (a cleared flush callback, a hook
            # or accountant that raises): what was processed is flushed.
            self.packets_processed += processed
            self.cookie_hits += hits
            self.cookie_misses += misses
            self.flows_resolved += resolved
            self.emit_batch(out)

    def _evict_for_space(self, now: float) -> None:
        """Make room before inserting a new flow entry.

        Drains idle entries from the LRU end first; if the table is still
        at the cap, the least recently active flow is dropped outright.
        Amortized O(1): each entry is evicted at most once.
        """
        flows = self._flows
        while flows:
            oldest_key = next(iter(flows))
            if now - flows[oldest_key].last_seen > self.flow_idle_timeout:
                del flows[oldest_key]
                self.flows_evicted_idle += 1
            else:
                break
        while len(flows) >= self.max_flows:
            del flows[next(iter(flows))]
            self.flows_evicted_cap += 1

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def counters_for(self, subscriber_ip: str) -> SubscriberCounters:
        """Counters for one subscriber (zeros if never seen)."""
        return self.counters.get(subscriber_ip, SubscriberCounters())

    @property
    def tracked_flows(self) -> int:
        return len(self._flows)

    @property
    def tracked_subscribers(self) -> int:
        return len(self.counters)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    COUNTERS = (
        "packets_processed", "cookie_hits", "cookie_misses", "verifier_failures",
        "flows_resolved", "flows_evicted_idle", "flows_evicted_cap",
        "subscribers_evicted",
    )
    GAUGES = ("tracked_flows", "tracked_subscribers")

    def register_telemetry(
        self, registry: "MetricsRegistry", prefix: str = "middlebox"
    ) -> None:
        """Export this middlebox's counters into a metrics registry;
        hot-path counters stay plain ints, read only at snapshot time.
        N shards registered under one prefix sum into fleet totals."""
        registry.register(
            self, prefix, self.COUNTERS, self.GAUGES, read=self._read_metrics
        )

    def _read_metrics(self):
        # Retained subscribers plus everything evicted: counters never
        # step backwards when the LRU drops a subscriber.
        free = charged = 0
        for pair in chain([self.evicted_bytes], self.counters.values()):
            free += pair.free_bytes
            charged += pair.charged_bytes
        return ({"free_bytes": free, "charged_bytes": charged},)
