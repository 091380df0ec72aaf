"""The paper's data plane, written once: a scalar reference model.

One packet at a time, plain dicts, the standard library only: it shares
no code with the verifiers and boxes it is compared against.

A cookie is its 48 wire bytes, ``id | uuid | µs timestamp | signature``.
:class:`Verifier` runs the ladder unknown → revoked → expired → bad
signature (``hmac.digest(key, bytes[:32], "sha256")[:16]``) → stale
(``abs(ts - now) > NCT``, or ``ts`` below the floor) → replayed (key
``bytes[:24]``), judged at the ``now`` read.  Every cookie that reaches
the replay rung raises the verifier's generation to ``ts // (2 × NCT)``,
and the floor is ``(generation - 1) × 2 × NCT``: the shipped cache keeps
every key whose timestamp is at or above it, so a replay key accepted
once is never accepted again, whatever the clock does.  (The model's
replay set forgets nothing; the shipped cache forgets by generation, so
the two agree as long as a uuid is not reused by a new cookie later.)
On it sit three boxes: the zero-rater, the switch's flow binding and the
prefilter's steering, plus a :class:`Tariff` for billing.  A grant binds
the flow its cookie opens, or (``packet``) serves only the packet that
carries it (§4.3), at every box.  A packet may carry several cookies
(one per network, §4.5): every box tries them in order and acts on the
first it grants.  Each box reads its clock once per burst.  A box that
raises stops its burst at that packet: the packets before it stay
counted and emitted.
"""

from __future__ import annotations

import hmac
import struct
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

NCT = 5.0
#: The replay cache's window: a generation covers this much of timestamps.
WINDOW = 2 * NCT
SNIFF = 3
_SIGNED = struct.Struct("!Q16sQ")
_FIELDS = struct.Struct("!Q16xQ")


def mac(key: bytes, signed: bytes) -> bytes:
    return hmac.digest(key, signed, "sha256")[:16]


def mint(cookie_id: int, key: bytes, uuid: bytes, ts_micros: int) -> bytes:
    """The 48 bytes of a cookie signed under ``key``."""
    signed = _SIGNED.pack(cookie_id, uuid, ts_micros)
    return signed + mac(key, signed)


@dataclass
class Grant:
    """A descriptor, as a verifier knows it."""

    cookie_id: int
    key: bytes
    service: str
    expires_at: float | None = None
    revoked: bool = False
    packet: bool = False  # packet granularity: serves its packet only

    def expired(self, now: float) -> bool:
        return self.expires_at is not None and now > self.expires_at


@dataclass
class Faults:
    """What the fault rules switch on.  The model reads it, and so do
    the wrappers around the systems under test."""

    verifier_down: bool = False
    poisoned: str | None = None  # a subscriber whose every bill raises


class Frame(NamedTuple):
    """One TCP packet: its wire length, and its cookies' bytes in the
    order they ride (empty: none)."""

    tag: int
    src: str
    sport: int
    dst: str
    dport: int
    size: int
    cookies: tuple[bytes, ...]


def flow_key(frame: Frame) -> tuple:
    """Both directions of a conversation share one key."""
    a, b = (frame.src, frame.sport), (frame.dst, frame.dport)
    return (*a, *b, 6) if a <= b else (*b, *a, 6)


def ends(frame: Frame) -> tuple[str, str]:
    """(billed subscriber, remote end): the source, unless only the
    destination is a subscriber."""
    inside = ("10.", "192.168.")
    if frame.src.startswith(inside) or not frame.dst.startswith(inside):
        return frame.src, frame.dst
    return frame.dst, frame.src


class Verifier:
    """The ladder, one replay set, one tally per ``MatchStats`` field."""

    def __init__(self, grants: dict[int, Grant]) -> None:
        self.grants = grants
        self.spent: set[bytes] = set()
        self.stats: Counter = Counter()
        self.generation = 0

    def judge(self, cookie: bytes, now: float) -> Grant | None:
        cookie_id, ts_micros = _FIELDS.unpack_from(cookie)
        ts = ts_micros / 1_000_000
        grant = self.grants.get(cookie_id)
        if grant is None:
            outcome = "unknown_id"
        elif grant.revoked:
            outcome = "revoked"
        elif grant.expired(now):
            outcome = "expired"
        elif not hmac.compare_digest(mac(grant.key, cookie[:32]), cookie[32:]):
            outcome = "bad_signature"
        elif abs(ts - now) > NCT or ts < (self.generation - 1) * WINDOW:
            outcome = "stale_timestamp"
        else:
            self.generation = max(self.generation, ts // WINDOW)
            if cookie[:24] in self.spent:
                outcome = "replayed"
            else:
                outcome = "accepted"
                self.spent.add(cookie[:24])
        self.stats[outcome] += 1
        self.outcome = outcome  # the last verdict's MatchStats field
        return grant if outcome == "accepted" else None


class Tariff:
    """One operator (``members``) with one covered ``app`` from one
    ``origin`` and a free-byte ``cap`` per subscriber (None: no cap).
    A subscriber outside the operator is charged for everything."""

    def __init__(self, members, app, origin, cap, faults: Faults) -> None:
        self.members = frozenset(members)
        self.app, self.origin, self.cap = app, origin, cap
        self.faults = faults
        self.cap_used: Counter = Counter()

    def bill(self, subscriber, app, server, nbytes) -> bool:
        if subscriber == self.faults.poisoned:
            raise RuntimeError("tariff lookup failed")
        free = (
            subscriber in self.members
            and (app, server) == (self.app, self.origin)
            # §16.1: cap_used + nbytes > cap ⇒ charged.
            and (self.cap is None or self.cap_used[subscriber] + nbytes <= self.cap)
        )
        if free:
            self.cap_used[subscriber] += nbytes
        return free


class _Box:
    """A box over a verifier.  ``stats`` uses the shipped counter names;
    ``out`` holds one tuple per emitted packet."""

    def __init__(self, verifier: Verifier, clock, faults: Faults) -> None:
        self.verifier, self.clock, self.faults = verifier, clock, faults
        self.stats: Counter = Counter()
        self.out: list[tuple] = []

    def verify(self, cookie: bytes, now: float) -> Grant | None:
        """Fail-safe: a verifier that raises has not said yes."""
        if self.faults.verifier_down:
            self.stats["verifier_failures"] += 1
            return None
        return self.verifier.judge(cookie, now)

    def first_grant(self, cookies: tuple[bytes, ...], now: float) -> Grant | None:
        """The grant of the first cookie that earns one."""
        for cookie in cookies:
            grant = self.verify(cookie, now)
            if grant is not None:
                return grant
        return None

    def burst(self, frames: list[Frame]) -> None:
        now = self.clock()
        for frame in frames:
            self.one(frame, now)


@dataclass
class _Flow:
    subscriber: str
    remote: str
    seen: int = 0
    last: float = 0.0
    resolved: bool = False
    free: bool = False
    service: str | None = None


class ZeroRater(_Box):
    """The zero-rater (§4.6).  ``out`` holds ``(tag, zero_rated,
    cookie_checked)``; ``counters`` maps a subscriber to ``[free,
    charged]`` bytes.  Both tables are in LRU order.  A packet grant
    frees its packet and drops the flow's entry, unresolved."""

    def __init__(self, verifier, clock, faults, tariff: Tariff | None = None,
                 idle: float = 60.0) -> None:
        super().__init__(verifier, clock, faults)
        self.tariff, self.idle = tariff, idle
        self.on_resolved = None  # the prefilter's offload hook
        self.max_flows = self.max_subscribers = 1_000_000
        self.flows: dict[tuple, _Flow] = {}
        self.counters: dict[str, list[int]] = {}
        self.evicted = [0, 0]

    def one(self, frame: Frame, now: float) -> None:
        stats, flows, counters = self.stats, self.flows, self.counters
        stats["packets_processed"] += 1
        key = flow_key(frame)
        flow = flows.pop(key, None)
        if flow is not None and now - flow.last > self.idle:
            stats["flows_evicted_idle"] += 1
            flow = None
        elif flow is None:
            while flows and now - next(iter(flows.values())).last > self.idle:
                del flows[next(iter(flows))]
                stats["flows_evicted_idle"] += 1
            while len(flows) >= self.max_flows:
                del flows[next(iter(flows))]
                stats["flows_evicted_cap"] += 1
        flow = flows[key] = flow or _Flow(*ends(frame))
        flow.seen += 1
        flow.last = now
        checked = not flow.resolved and flow.seen <= SNIFF and bool(frame.cookies)
        grant = None
        if checked:
            grant = self.first_grant(frame.cookies, now)
            if grant is not None:
                flow.free, flow.service = True, grant.service
            stats["cookie_hits" if grant else "cookie_misses"] += 1
        if grant is not None and grant.packet:
            del flows[key]
        elif not flow.resolved and (flow.free or flow.seen == SNIFF):
            flow.resolved = True
            stats["flows_resolved"] += 1
            if self.on_resolved is not None:
                self.on_resolved(key)
        pair = counters.get(flow.subscriber)
        if pair is None:
            while len(counters) >= self.max_subscribers:
                if self.tariff is not None:
                    self.clock()  # the billed box flushes at clock()
                evicted = counters.pop(next(iter(counters)))
                self.evicted = [a + b for a, b in zip(self.evicted, evicted)]
                stats["subscribers_evicted"] += 1
            pair = counters[flow.subscriber] = [0, 0]
        elif flow.seen == 1:
            # Subscriber recency moves only on a flow's first packet.
            counters[flow.subscriber] = counters.pop(flow.subscriber)
        if self.tariff is None:
            free = flow.free
        else:
            app = flow.service if flow.free else None
            free = self.tariff.bill(flow.subscriber, app, flow.remote, frame.size)
        pair[not free] += frame.size
        self.out.append((frame.tag, free, checked))


@dataclass
class _Binding:
    packets: int = 0
    last: float = 0.0
    grant: Grant | None = None


class Switch(_Box):
    """Flow binding: a cookie accepted in a flow's first ``SNIFF``
    packets binds the flow, both ways, while its grant stays usable; a
    packet grant serves its packet and binds nothing.
    ``out`` holds ``(tag, service or None)``.  The flow table ages and
    caps itself by :class:`ZeroRater`'s rule, in LRU order, and
    ``evicted`` counts both kinds."""

    def __init__(self, verifier, clock, faults, idle: float = 60.0) -> None:
        super().__init__(verifier, clock, faults)
        self.idle = idle
        self.max_flows = 100_000
        self.flows: dict[tuple, _Binding] = {}
        self.evicted = 0

    def one(self, frame: Frame, now: float) -> None:
        stats, flows = self.stats, self.flows
        stats["packets"] += 1
        key = flow_key(frame)
        flow = flows.pop(key, None)
        if flow is not None and now - flow.last > self.idle:
            self.evicted += 1
            flow = None
        elif flow is None:
            while flows and now - next(iter(flows.values())).last > self.idle:
                del flows[next(iter(flows))]
                self.evicted += 1
            while len(flows) >= self.max_flows:
                del flows[next(iter(flows))]
                self.evicted += 1
        flow = flows[key] = flow or _Binding()
        flow.packets += 1
        flow.last = now
        grant = flow.grant
        if grant is not None and (grant.revoked or grant.expired(now)):
            flow.grant = grant = None  # revocation takes effect mid-flow
        elif grant is None and flow.packets <= SNIFF:
            stats["packets_sniffed"] += 1
            for cookie in frame.cookies:
                stats["cookies_found"] += 1
                grant = self.verify(cookie, now)
                stats["cookies_accepted" if grant else "cookies_rejected"] += 1
                if grant is not None:
                    if not grant.packet:
                        flow.grant = grant
                        stats["flows_bound"] += 1
                    break
        stats["packets_served"] += grant is not None
        self.out.append((frame.tag, grant.service if grant else None))


class Prefilter:
    """Hardware steering in front of a zero-rater.  An offloaded flow
    takes the fast path; a packet with a cookie of known id and fresh
    timestamp goes to software (its cookies are checked in order up to
    the first such one); anything else takes the fast path.  The whole
    burst is steered first, then software gets its share."""

    def __init__(self, grants, clock, software: ZeroRater) -> None:
        self.grants, self.clock, self.software = grants, clock, software
        self.offloaded: set[tuple] = set()
        software.on_resolved = self.offloaded.add
        self.stats: Counter = Counter()
        self.fast: list[int] = []

    def burst(self, frames: list[Frame]) -> None:
        now = self.clock()
        stats = self.stats
        stats["packets"] += len(frames)
        software, fast = [], []
        for frame in frames:
            if flow_key(frame) in self.offloaded:
                stats["offloaded_hits"] += 1
            elif any(self.passes(cookie, now) for cookie in frame.cookies):
                stats["to_software"] += 1
                software.append(frame)
                continue
            stats["fast_path"] += 1
            fast.append(frame.tag)
        if software:
            self.software.burst(software)
        self.fast += fast

    def passes(self, cookie: bytes, now: float) -> bool:
        cookie_id, ts_micros = _FIELDS.unpack_from(cookie)
        if cookie_id not in self.grants:
            self.stats["dropped_early_unknown_id"] += 1
        elif abs(ts_micros / 1_000_000 - now) > NCT:
            self.stats["dropped_early_stale"] += 1
        else:
            return True
        return False
