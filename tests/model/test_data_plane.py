"""The shipped data plane, driven in lockstep against the reference model.

:class:`DataPlane` feeds identical inputs to every verifier and box that
ships and to their :mod:`.reference` twins, and demands after every step
that they agree.

- Verifiers: ``CookieMatcher.match``, ``match_batch`` in random chunks,
  ``match_wire``, a ``ShardedVerifierPool`` of 1–4 shards and a
  one-shard ``NaiveVerifierPool`` (more naive shards may double-spend).
- Boxes: ``ZeroRatingMiddlebox`` over a matcher and over a pool, with
  and without billing; ``CookieSwitch``; ``HardwarePrefilter`` in front
  of a middlebox.

Each box and each model twin reads its own clock, so a box that reads
its clock twice in a burst drifts from its twin once a per-read step is
set.  The rules add and revoke descriptors of flow or packet
granularity, send bursts, move the clock either way, take the verifier
down, make the accountant raise and shrink the caps.  A packet is born unstamped, stamped on its own, or
stamped with its flow's one shared key as the NIC model stamps a
generated flow (:data:`NIC`), so a burst mixes a box's identity run
check with its stamp-on-read fallback.  A packet may carry a foreign
network's cookie (an id no grant holds) ahead of its own, in the same
carrier.  :data:`SCRIPTS` are named cases that run through the same
rules.
"""

import base64
import shutil
import tempfile
from itertools import count

import hypothesis.strategies as st
import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core import CookieDescriptor, CookieMatcher, DescriptorStore
from repro.core.attributes import CookieAttributes, Granularity
from repro.core.cookie import Cookie
from repro.core.distributed import NaiveVerifierPool, ShardedVerifierPool
from repro.core.matcher import MATCH_OUTCOMES, VERDICT_RECORD
from repro.core.offload import HardwarePrefilter
from repro.core.switch import CookieSwitch
from repro.core.transport import default_registry
from repro.netsim.appmsg import TLSClientHello
from repro.netsim.middlebox import Sink
from repro.netsim.packet import make_tcp_packet, stamp
from repro.services.billing import BillingAccountant, BillingJournal
from repro.services.billing.invoice import build_invoices
from repro.services.zerorate import (
    AppCoverage,
    CatalogSet,
    OperatorCatalog,
    ZeroRatingMiddlebox,
)

from . import reference as ref

NCT_US = 5_000_000
IDLE = 10.0
ORIGIN, THIRD_PARTY = "93.184.216.34", "198.51.100.7"
SUBSCRIBERS = ("10.0.0.1", "10.0.0.2", "10.0.1.9")
#: The operator's subscribers; the third is billed as unassigned.
MEMBERS = SUBSCRIBERS[:2]
#: Flow i: (subscriber, port, server).
FLOWS = [
    (SUBSCRIBERS[i % 3], 5000 + i, (ORIGIN, THIRD_PARTY)[i // 4]) for i in range(6)
]
KINDS = ("valid", "forged", "stale", "replayed", "unknown")
BIRTHS = ("constructed", "from_bytes", "from_text")
#: How a packet reaches the boxes: as built, stamped alone, or stamped
#: with the key every packet of its flow shares.
NIC = ("unstamped", "stamped", "shared")
REGISTRY = default_registry()

COOKIES = st.tuples(
    st.sampled_from(KINDS),
    st.integers(0, 7),  # which descriptor (or which earlier cookie, replayed)
    st.integers(0, 7),  # uuid: reused within a burst, a fresh-bytes replay
    st.integers(-NCT_US, NCT_US),  # timestamp offset in µs
    st.sampled_from(BIRTHS),
)
PACKETS = st.tuples(
    st.integers(0, len(FLOWS) - 1),
    st.booleans(),  # upstream
    st.sampled_from((1, 40, 512, 1400)),  # payload bytes
    st.none() | COOKIES,
    st.sampled_from(NIC),
    st.booleans(),  # a foreign network's cookie ahead of ours
)


class Clock:
    """Moves by ``step`` on every read, and when the machine advances."""

    def __init__(self, now: float) -> None:
        self.now, self.step = now, 0.0

    def __call__(self) -> float:
        now, self.now = self.now, self.now + self.step
        return now


class Guarded:
    """A box's verifier: raises while the verifier is down, and logs
    whether the cookie reached it undecoded and what it accepted."""

    def __init__(self, inner, faults: ref.Faults) -> None:
        self.inner, self.faults = inner, faults
        self.accepted: list[tuple[bytes, bool]] = []  # (replay key, revoked)
        self.decoded = 0

    def match(self, cookie: Cookie, now: float):
        if self.faults.verifier_down:
            raise RuntimeError("verifier down")
        self.decoded += "cookie_id" in vars(cookie)
        descriptor = self.inner.match(cookie, now)
        if descriptor is not None:
            self.accepted.append((cookie.to_bytes()[:24], descriptor.revoked))
        return descriptor


class Poisonable(BillingAccountant):
    """An accountant whose bills for the poisoned subscriber raise
    (``account`` is the one-packet ``account_run``)."""

    faults = ref.Faults()

    def account_run(self, subscriber_ip, *args, **kwargs):
        if subscriber_ip == self.faults.poisoned:
            raise RuntimeError("tariff lookup failed")
        return super().account_run(subscriber_ip, *args, **kwargs)


class Rater:
    """A zero-rating box, its model twin, where it emits, and its taps."""

    def __init__(self, guarded, accountant) -> None:
        self.guarded, self.accountant = guarded, accountant
        self.sink = Sink()
        self.evictions: list[tuple[str, int, int]] = []


def _stats(verifier) -> dict:
    """Summed ``MatchStats`` of a matcher or of a pool's shards."""
    shards = getattr(verifier, "shards", [verifier])
    return {k: sum(getattr(m.stats, k) for m in shards) for k in MATCH_OUTCOMES}


def _born(wire: bytes, birth: str) -> Cookie:
    if birth == "from_text":
        return Cookie.from_text(base64.b64encode(wire).decode())
    cookie = Cookie.from_bytes(wire)
    if birth == "constructed":
        return Cookie(cookie.cookie_id, cookie.uuid, cookie.timestamp, cookie.signature)
    return cookie


class DataPlane(RuleBasedStateMachine):
    def __init__(self, directory: str | None = None) -> None:
        super().__init__()
        self.own_directory = directory is None
        self.directory = directory or tempfile.mkdtemp(prefix="repro-model-")
        self.now = 1_000.0
        self.faults = ref.Faults()
        self.store = DescriptorStore()
        self.grants: dict[int, ref.Grant] = {}
        self.minted: list[bytes] = []
        self.bursts = 0
        self.frames: dict[int, ref.Frame] = {}
        self.flow_keys: dict[int, tuple] = {}
        self.clocks: list[Clock] = []
        self.raters: list[Rater] = []

    def clock(self) -> Clock:
        self.clocks.append(Clock(self.now))
        return self.clocks[-1]

    @initialize(shards=st.integers(1, 4), cap=st.none() | st.integers(0, 4000))
    def setup(self, shards=2, cap=None):
        store, grants, faults = self.store, self.grants, self.faults
        self.direct = ref.Verifier(grants)
        self.verifiers = {
            "match": CookieMatcher(store),
            "match_batch": CookieMatcher(store),
            "match_wire": CookieMatcher(store),
            "sharded": ShardedVerifierPool(store, shards),
            "naive": NaiveVerifierPool(store, 1),
        }
        self.spent = {name: [] for name in self.verifiers}
        for pool in (0, shards):
            for billed in (False, True):
                verifier = (
                    ShardedVerifierPool(store, pool) if pool else CookieMatcher(store)
                )
                self.raters.append(self._rater(verifier, cap if billed else False))
        self.switch_guarded = Guarded(CookieMatcher(store), faults)
        self.switch = CookieSwitch(
            self.switch_guarded, clock=self.clock(), flow_idle_timeout=IDLE
        )
        self.switch >> Sink()
        self.switch_model = ref.Switch(ref.Verifier(grants), self.clock(), faults, IDLE)
        self.prefilter = HardwarePrefilter(store, clock=self.clock())
        software = self._rater(CookieMatcher(store), False)
        software.sut.on_flow_resolved = lambda key, _state: (
            self.prefilter.offload_flow(key)
        )
        self.prefilter.software(software.sut)
        self.prefilter.fast(Sink())
        self.prefilter_model = ref.Prefilter(grants, self.clock(), software.model)
        self.driven = [(r.sut, r.model) for r in self.raters] + [
            (self.switch, self.switch_model), (self.prefilter, self.prefilter_model)
        ]
        self.raters.append(software)  # checked as a rater, driven through the prefilter

    def _rater(self, verifier, cap) -> Rater:
        accountant = tariff = None
        if cap is not False:
            catalogs = CatalogSet([OperatorCatalog("op", apps=(AppCoverage(
                app="video", origin_ips=frozenset({ORIGIN})),), cap_bytes=cap)])
            for ip in MEMBERS:
                catalogs.assign(ip, "op")
            directory = tempfile.mkdtemp(dir=self.directory)
            accountant = Poisonable(catalogs, BillingJournal(directory, fsync="never"))
            accountant.faults = self.faults
            tariff = ref.Tariff(MEMBERS, "video", ORIGIN, cap, self.faults)
        rater = Rater(Guarded(verifier, self.faults), accountant)
        rater.sut = ZeroRatingMiddlebox(
            rater.guarded, self.clock(), flow_idle_timeout=IDLE, billing=accountant,
            on_subscriber_evicted=lambda ip, c: rater.evictions.append(
                (ip, c.free_bytes, c.charged_bytes)
            ),
        )
        rater.model = ref.ZeroRater(
            ref.Verifier(self.grants), self.clock(), self.faults, tariff, IDLE
        )
        rater.sut >> rater.sink
        return rater

    def teardown(self):
        for rater in self.raters:
            if rater.accountant is not None:
                rater.accountant.journal.close()
        if self.own_directory:
            shutil.rmtree(self.directory, ignore_errors=True)

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    @rule(
        cookie_id=st.integers(1, 2**64 - 1),
        key=st.binary(min_size=1, max_size=80),
        service=st.sampled_from(("video", "music")),
        ttl=st.none() | st.floats(-5.0, 60.0),
        packet=st.booleans(),
    )
    def add_descriptor(
        self, cookie_id, key=b"k" * 32, service="video", ttl=None, packet=False
    ):
        if cookie_id in self.grants:
            return
        expires_at = None if ttl is None else self.now + ttl
        granularity = Granularity.PACKET if packet else Granularity.FLOW
        self.store.add(CookieDescriptor.create(
            service_data=service, cookie_id=cookie_id, key=key,
            attributes=CookieAttributes(granularity, expires_at=expires_at),
        ))
        self.grants[cookie_id] = ref.Grant(
            cookie_id, key, service, expires_at, packet=packet
        )

    @rule(index=st.integers(0, 7))
    def revoke(self, index=0):
        """Revoke a descriptor; one already revoked is revoked again."""
        if self.grants:
            cookie_id = list(self.grants)[index % len(self.grants)]
            self.store.get(cookie_id).revoke()
            self.grants[cookie_id].revoked = True

    @rule(seconds=st.floats(0.0, 30.0))
    def advance(self, seconds):
        self.now += seconds
        for clock in self.clocks:
            clock.now += seconds

    @rule(seconds=st.floats(0.0, 120.0))
    def rewind(self, seconds):
        """Step every clock back: a cookie below a verifier's floor is
        still stale."""
        self.advance(-seconds)

    @rule(step=st.sampled_from((0.0, 0.5, 2.0)))
    def set_step(self, step):
        for clock in self.clocks:
            clock.step = step

    @rule(down=st.booleans())
    def verifier(self, down):
        self.faults.verifier_down = down

    @rule(subscriber=st.integers(0, len(SUBSCRIBERS) - 1))
    def poison(self, subscriber):
        """Every bill of this subscriber raises, for the next burst."""
        self.faults.poisoned = SUBSCRIBERS[subscriber]

    @rule(max_flows=st.integers(1, 4), max_subscribers=st.integers(1, 3))
    def shrink(self, max_flows, max_subscribers):
        for rater in self.raters:
            for box in (rater.sut, rater.model):
                box.max_flows, box.max_subscribers = max_flows, max_subscribers

    @rule(burst=st.lists(PACKETS, min_size=1, max_size=8), chunk=st.integers(1, 8))
    def send(self, burst, chunk=8):
        self.bursts += 1
        specs = []
        for flow, upstream, size, cookie, nic, foreign in burst:
            wire, birth = self._cookie(*cookie) if cookie else (None, "from_bytes")
            wires = (self._foreign(),) if foreign else ()
            wires += (wire,) if wire is not None else ()
            specs.append(
                (len(self.frames), flow, upstream, size, wire, birth, nic, wires)
            )
            packet = self._packet(specs[-1])
            self.frames[len(self.frames)] = ref.Frame(
                specs[-1][0], packet.ip.src, packet.l4.src_port, packet.ip.dst,
                packet.l4.dst_port, packet.wire_length, wires,
            )
        self._verify_directly([s[4:6] for s in specs if s[4] is not None], chunk)
        before = [len(rater.sink.packets) for rater in self.raters]
        for sut, model in self.driven:
            raised = []
            for push, batch in ((sut.push_batch, [self._packet(s) for s in specs]),
                                (model.burst, [self.frames[s[0]] for s in specs])):
                try:
                    push(batch)
                except RuntimeError:
                    raised.append(push)
            assert len(raised) in (0, 2), f"{type(sut).__name__} raised alone"
        if self.faults.verifier_down and self.faults.poisoned is None:
            # A verifier that raises: the packet is charged and still emitted.
            for rater, start in zip(self.raters[:-1], before):
                emitted = rater.sink.packets[start:]
                assert len(emitted) == len(burst)
                assert not any(
                    p.meta.get("zero_rated") and p.meta.get("cookie_checked")
                    for p in emitted
                )
        self.faults.poisoned = None

    def _cookie(self, kind, index, uuid, offset, birth):
        if kind == "replayed" and self.minted:
            return self.minted[index % len(self.minted)], birth
        ts = round(self.now * 1e6) + offset
        if kind == "stale":
            ts += (NCT_US + 1) * (-1 if offset < 0 else 1)
        # A uuid is reused within its burst only.  The shipped cache keeps
        # a key for at least 2 x NCT: long enough for any cookie resent
        # as it was, not for a new cookie minted later on an old uuid.
        tag, uuid = uuid, (self.bursts << 64 | uuid).to_bytes(16, "big")
        if kind == "unknown" or not self.grants:
            cookie_id = 1 + tag
            while cookie_id in self.grants:
                cookie_id += 1
            wire = ref.mint(cookie_id, b"unknown", uuid, ts)
        else:
            grant = list(self.grants.values())[index % len(self.grants)]
            wire = ref.mint(grant.cookie_id, grant.key, uuid, ts)
        if kind == "forged":
            wire = wire[:-1] + bytes([wire[-1] ^ 1])
        self.minted.append(wire)
        return wire, birth

    def _foreign(self) -> bytes:
        """A fresh cookie of another network: its own key, an id no
        grant holds."""
        cookie_id = next(i for i in count(1) if i not in self.grants)
        return ref.mint(cookie_id, b"foreign", bytes(16), round(self.now * 1e6))

    def _packet(self, spec):
        tag, flow, upstream, size, _wire, birth, nic, wires = spec
        subscriber, port, server = FLOWS[flow]
        ends = (subscriber, port, server, 443)
        if not upstream:
            ends = (server, 443, subscriber, port)
        text = birth == "from_text"
        packet = make_tcp_packet(
            *ends, payload_size=size,
            content=TLSClientHello(sni="app.example.com") if text else None,
        )
        for wire in wires:
            carrier = "tls" if text else "tcp"
            REGISTRY.attach(packet, Cookie.from_bytes(wire), allowed=(carrier,))
        if nic != "unstamped":
            key = stamp(packet)
            if nic == "shared":
                packet.flow_key = self.flow_keys.setdefault(flow, key)
        packet.meta["tag"] = tag
        return packet

    def _verify_directly(self, cookies, chunk):
        now, v = self.now, self.verifiers
        expected, outcomes = [], []
        for wire, _ in cookies:
            grant = self.direct.judge(wire, now)
            expected.append(grant.cookie_id if grant else None)
            outcomes.append(self.direct.outcome)

        def born():
            return [_born(wire, birth) for wire, birth in cookies]

        made, batch, reasons = born(), born(), []
        verdicts = {
            "match": [v["match"].match(c, now) for c in made],
            "match_batch": [
                verdict for i in range(0, len(batch), chunk)
                for verdict in v["match_batch"].match_batch(
                    batch[i : i + chunk], now, reasons
                )
            ],
            "sharded": v["sharded"].match_batch(born(), now),
            "naive": v["naive"].match_batch(born(), now),
        }
        assert reasons == outcomes
        # Verified out of their bytes: no parsed cookie was decoded.
        for cookie, (_, birth) in zip(made + batch, cookies * 2):
            assert birth == "constructed" or "cookie_id" not in vars(cookie)
        out = bytearray(VERDICT_RECORD.size * len(cookies))
        v["match_wire"].match_wire(b"".join(w for w, _ in cookies), now, out)
        records = list(VERDICT_RECORD.iter_unpack(out))
        assert [MATCH_OUTCOMES[code] for code, _ in records] == outcomes
        verdicts["match_wire"] = [
            self.store.get(cid) if code == 0 else None for code, cid in records
        ]
        for name, got in verdicts.items():
            assert [d.cookie_id if d else None for d in got] == expected, name
            assert not any(d.revoked for d in got if d), name
            self.spent[name] += [w[:24] for (w, _), d in zip(cookies, got) if d]

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    @invariant()
    def agree(self):
        direct = {k: self.direct.stats[k] for k in MATCH_OUTCOMES}
        for name, verifier in self.verifiers.items():
            assert _stats(verifier) == direct, name
            keys = self.spent[name]
            assert len(set(keys)) == len(keys), f"{name} accepted a replay"
            if name in ("sharded", "naive"):
                accepted = direct["accepted"]
                assert verifier.stats.accepted == accepted
                assert verifier.stats.rejected == sum(direct.values()) - accepted
        for rater in self.raters:
            self._agree_rater(rater)
        self._agree_verifier(self.switch_guarded, self.switch_model.verifier)
        switch, model = self.switch, self.switch_model
        assert [
            (p.meta["tag"], p.meta.get("service")) for p in switch.downstream.packets
        ] == model.out
        assert vars(switch.stats) == {k: model.stats[k] for k in vars(switch.stats)}
        assert (len(switch.flows), switch.flows.evicted_count) == (
            len(model.flows), model.evicted
        )
        prefilter, model = self.prefilter, self.prefilter_model
        stats = vars(prefilter.stats)
        assert stats == {k: model.stats[k] for k in stats}
        assert [p.meta["tag"] for p in prefilter.fast_path.packets] == model.fast
        assert set(prefilter._offloaded) == model.offloaded

    def _agree_verifier(self, guarded, model):
        assert _stats(guarded.inner) == {k: model.stats[k] for k in MATCH_OUTCOMES}
        keys = [key for key, _ in guarded.accepted]
        assert len(set(keys)) == len(keys), "a box's verifier accepted a replay"
        assert not any(revoked for _, revoked in guarded.accepted)
        assert guarded.decoded == 0, "a box decoded a cookie before verifying it"

    def _agree_rater(self, rater):
        sut, model = rater.sut, rater.model
        self._agree_verifier(rater.guarded, model.verifier)
        assert [
            (p.meta["tag"], bool(p.meta.get("zero_rated")),
             bool(p.meta.get("cookie_checked")))
            for p in rater.sink.packets
        ] == model.out
        counters = {
            ip: [c.free_bytes, c.charged_bytes] for ip, c in sut.counters.items()
        }
        assert list(counters.items()) == list(model.counters.items())
        assert {k: getattr(sut, k) for k in sut.COUNTERS} == {
            k: model.stats[k] for k in sut.COUNTERS
        }
        # Per subscriber, free and charged bytes (evicted ones included)
        # are the bytes the box emitted.
        emitted: dict[str, list[int]] = {}
        for packet in rater.sink.packets:
            frame = self.frames[packet.meta["tag"]]
            pair = emitted.setdefault(ref.ends(frame)[0], [0, 0])
            pair[not packet.meta.get("zero_rated")] += frame.size
        for ip, free, charged in rater.evictions:
            pair = counters.setdefault(ip, [0, 0])
            pair[0] += free
            pair[1] += charged
        assert {ip: pair for ip, pair in counters.items() if any(pair)} == emitted
        assert list(sut._flows) == list(model.flows)
        evicted = [sut.evicted_bytes.free_bytes, sut.evicted_bytes.charged_bytes]
        assert evicted == model.evicted
        totals = sut._read_metrics()[0]
        assert [totals["free_bytes"], totals["charged_bytes"]] == [
            sum(pair[i] for pair in emitted.values()) for i in (0, 1)
        ]
        if rater.accountant is not None:
            # After flush_all, each operator's invoice is the bytes delivered.
            rater.accountant.flush_all(now=self.now)
            invoices = build_invoices(rater.accountant.journal.records())
            assert {
                (operator, ip): [statement.free_bytes, statement.charged_bytes]
                for operator, invoice in invoices.items()
                for ip, statement in invoice.statements.items()
            } == {
                ("op" if ip in MEMBERS else "unassigned", ip): pair
                for ip, pair in emitted.items()
            }

    def no_flow_kept(self):
        """Every cookie a zero-rater saw was a packet grant it accepted:
        it keeps no flow entry, and it resolved no flow."""
        for rater in self.raters:
            sut = rater.sut
            assert sut.tracked_flows == sut.flows_resolved == sut.cookie_misses == 0
            assert sut.cookie_hits == sut.packets_processed
        unbilled = [r for r in self.raters if r.accountant is None]
        assert all(p.meta.get("zero_rated") for r in unbilled for p in r.sink.packets)


@pytest.mark.contract
class TestDataPlane(DataPlane.TestCase):
    settings = settings(max_examples=60, stateful_step_count=25, deadline=None)


# ----------------------------------------------------------------------
# Named scripts: deterministic cases through the same rules
# ----------------------------------------------------------------------
def cookie(kind="valid", grant=0, uuid=0, offset=0, birth="from_bytes"):
    return (kind, grant, uuid, offset, birth)


def pkt(flow=0, upstream=True, size=512, cookie=None, nic="unstamped", foreign=False):
    return (flow, upstream, size, cookie, nic, foreign)


def send(*packets, chunk=8):
    return ("send", {"burst": list(packets), "chunk": chunk})


def grant(cookie_id=7, ttl=None, packet=False):
    return ("add_descriptor", {"cookie_id": cookie_id, "ttl": ttl, "packet": packet})


EDGES = [(o, b) for o in (NCT_US, -NCT_US, NCT_US + 1, -NCT_US - 1) for b in BIRTHS]

SCRIPTS = {
    "accountant raises on the second packet of a burst": [
        grant(), ("poison", {"subscriber": 1}), send(pkt(0, cookie=cookie()), pkt(1)),
    ],
    "one cookie three times in one burst: the first wins": [
        grant(),
        send(pkt(0, cookie=cookie()), pkt(0, cookie=cookie("replayed")),
             pkt(3, cookie=cookie("replayed", birth="from_text")), chunk=1),
    ],
    "a cookie spent in one burst is a replay one NCT later": [
        grant(), send(pkt(0, cookie=cookie())), ("advance", {"seconds": 5.0}),
        send(pkt(1, cookie=cookie("replayed"))),
    ],
    "the NCT edges: NCT either way is fresh, a microsecond more is stale": [
        grant(),
        send(*(pkt(i % 6, cookie=cookie(uuid=i, offset=o, birth=b))
               for i, (o, b) in enumerate(EDGES))),
    ],
    "forged and stale cookies do not spend their uuid": [
        grant(),
        send(pkt(0, cookie=cookie("forged", uuid=5)),
             pkt(1, cookie=cookie("stale", uuid=5)), pkt(2, cookie=cookie(uuid=5))),
    ],
    "unknown, revoked and expired cookies are each counted": [
        grant(7), grant(8), grant(9, ttl=-1.0), ("revoke", {"index": 1}),
        send(pkt(0, cookie=cookie("unknown", birth="constructed")),
             pkt(1, cookie=cookie(grant=1, birth="from_text")),
             pkt(2, cookie=cookie(grant=2)), pkt(3, cookie=cookie(grant=1))),
    ],
    "a revoke, repeated, ends a switch binding mid-flow": [
        grant(), send(pkt(0, cookie=cookie()), pkt(0, upstream=False)),
        ("revoke", {"index": 0}), ("revoke", {"index": 0}),
        send(pkt(0, upstream=False), pkt(0, cookie=cookie(uuid=1))),
    ],
    "a verifier that raises leaves the flow charged": [
        grant(), ("verifier", {"down": True}),
        send(pkt(0, cookie=cookie()), pkt(0), pkt(0)),
        ("verifier", {"down": False}), send(pkt(0, cookie=cookie(uuid=1)), pkt(1)),
    ],
    "an idle flow is forgotten and starts again": [
        grant(), send(pkt(0, cookie=cookie()), pkt(0)), ("advance", {"seconds": 25.0}),
        send(pkt(0), pkt(0, cookie=cookie(uuid=1)), pkt(0)),
    ],
    "caps of one evict flows and subscribers, and keep their bytes": [
        grant(), ("shrink", {"max_flows": 1, "max_subscribers": 1}),
        send(pkt(0, cookie=cookie()), pkt(1), pkt(0),
             pkt(2, cookie=cookie(uuid=1)), pkt(4)),
    ],
    "a packet too big for the cap is charged and a small one still fits": [
        ("setup", {"shards": 1, "cap": 300}), grant(),
        send(pkt(0, size=40, cookie=cookie()), pkt(0, size=1400), pkt(0, size=40),
             pkt(0, upstream=False, size=40), pkt(0, size=40), pkt(0, size=40)),
    ],
    "a flow resolved in one burst is offloaded from the next": [
        grant(), send(pkt(0, cookie=cookie()), pkt(0), pkt(3, cookie=cookie(uuid=1))),
        send(pkt(0), pkt(0, upstream=False), pkt(3)),
    ],
    "an empty burst changes nothing": [grant(), send(), send(pkt(0, cookie=cookie()))],
    "a clock stepped back does not reopen a spent cookie's window": [
        # Accepted at 1000 stamped 1004; the cookie stamped 1100 moves the
        # replay cache two generations on, so it lets 1004's key go; back
        # at 1001 the cookie is fresh again but below the floor (1090).
        grant(), send(pkt(0, cookie=cookie(offset=4_000_000))),
        ("advance", {"seconds": 100.0}), send(pkt(1, cookie=cookie(uuid=1))),
        ("rewind", {"seconds": 99.0}), send(pkt(2, cookie=cookie("replayed"))),
    ],
    "a far-future accept makes older cookies stale until the clock catches up": [
        # Accepted at 4600; back at 1000 a cookie minted then is below the
        # floor (4590) and is stale; at 4600 again a new one is accepted.
        grant(), ("advance", {"seconds": 3600.0}), send(pkt(0, cookie=cookie())),
        ("rewind", {"seconds": 3600.0}), send(pkt(1, cookie=cookie(uuid=1))),
        ("advance", {"seconds": 3600.0}), send(pkt(2, cookie=cookie(uuid=2))),
    ],
    "a far-future read that accepts nothing leaves the verifiers normal": [
        # A forged cookie read at 4600 reaches no replay rung, so the
        # floor stays put and a fresh cookie back at 1000 is accepted.
        grant(), ("advance", {"seconds": 3600.0}),
        send(pkt(0, cookie=cookie("forged"))), ("rewind", {"seconds": 3600.0}),
        send(pkt(1, cookie=cookie(uuid=1))),
    ],
    "a pool keeps one floor, whichever shard it picks": [
        # Ids 7 and 8 land on shards 0 and 1 of four: shard 1 never saw
        # the cookie stamped 1100, the pool did.
        grant(7), grant(8), ("advance", {"seconds": 100.0}),
        send(pkt(0, cookie=cookie(grant=0))), ("rewind", {"seconds": 99.0}),
        send(pkt(1, cookie=cookie(grant=1, offset=4_000_000))),
    ],
    "the NCT edges on two shards in one burst are both fresh": [
        # At 1005 the cookie stamped 1010 (shard 0) puts the pool's floor
        # at 1000; the one stamped 1000 (shard 1) sits on it, and is fresh.
        grant(7), grant(8), ("advance", {"seconds": 5.0}),
        send(pkt(0, cookie=cookie(grant=0, offset=NCT_US)),
             pkt(1, cookie=cookie(grant=1, uuid=1, offset=-NCT_US))),
    ],
    "stamped, shared-key and unstamped packets make one run": [
        grant(),
        send(*(pkt(0, upstream=i % 2 == 0, cookie=cookie() if i == 0 else None,
                   nic=NIC[i % 3]) for i in range(7)),
             pkt(1, nic="shared"), pkt(1, upstream=False, nic="unstamped"),
             pkt(0, nic="shared")),
        send(*(pkt(i % 2, upstream=i % 3 == 0, nic=NIC[i % 3]) for i in range(8))),
    ],
    "a foreign network's cookie ahead of ours: every box acts on ours": [
        grant(),
        send(pkt(0, cookie=cookie(), foreign=True),
             pkt(1, cookie=cookie(uuid=1, birth="from_text"), foreign=True),
             pkt(2, foreign=True), pkt(2, cookie=cookie(uuid=2)), pkt(0)),
        ("verifier", {"down": True}),
        send(pkt(3, cookie=cookie(uuid=3), foreign=True)),
    ],
    "a packet-grant cookie on every packet: all free, no flow kept, under eviction too": [
        ("setup", {"shards": 1, "cap": 3000}), grant(packet=True),
        ("shrink", {"max_flows": 100, "max_subscribers": 1}),
        send(*(pkt(flow, cookie=cookie(uuid=i), size=size) for i, (flow, size) in
               enumerate([(0, 1400), (1, 40), (0, 512), (3, 1400), (4, 512)]))),
        send(*(pkt(flow, upstream=False, cookie=cookie(uuid=i)) for i, flow in
               enumerate([0, 3, 1, 0]))),
        ("no_flow_kept", {}),
    ],
    "a packet-granularity grant serves its packet only, at every box": [
        grant(7, packet=True), grant(8),
        # Flow 0: the grant frees its packet; the next three open a new
        # window and close it charged, so a later cookie is never read.
        send(pkt(0, cookie=cookie()), pkt(0), pkt(0, upstream=False), pkt(0),
             pkt(0, cookie=cookie(uuid=1)), pkt(0)),
        # Flow 1: a packet grant mid-window reopens the middlebox's
        # window, where the flow grant after it binds; at the switch that
        # cookie is past the window.
        send(pkt(1), pkt(1, cookie=cookie(uuid=2)), pkt(1),
             pkt(1, cookie=cookie(grant=1, uuid=3)), pkt(1)),
        # Flow 3 is offloaded only once a flow grant resolves it.
        send(pkt(3, cookie=cookie(uuid=4)), pkt(3, cookie=cookie(uuid=5))),
        send(pkt(3), pkt(3, cookie=cookie(grant=1, uuid=6))), send(pkt(3)),
    ],
}


def _play(name: str, directory: str) -> dict:
    """Run a script, the machine agreeing with the model after every
    step; returns the model verifier's verdict tallies."""
    machine = DataPlane(directory)
    steps = SCRIPTS[name]
    if steps[0][0] != "setup":
        steps = [("setup", {"shards": 4})] + steps
    try:
        for step, arguments in steps:
            getattr(machine, step)(**arguments)
            machine.agree()
        return dict(machine.direct.stats)
    finally:
        machine.teardown()


@pytest.mark.contract
@pytest.mark.parametrize("name", list(SCRIPTS))
def test_script(name, tmp_path):
    _play(name, str(tmp_path))


@pytest.mark.contract
def test_a_far_future_accept_makes_older_cookies_stale_until_the_clock_catches_up(
    tmp_path,
):
    """The one price of aging the replay cache by timestamps (PROTOCOL
    §3), paid by every verifier and box alike."""
    name = "a far-future accept makes older cookies stale until the clock catches up"
    assert _play(name, str(tmp_path)) == {"accepted": 2, "stale_timestamp": 1}


@pytest.mark.contract
def test_a_far_future_read_that_accepts_nothing_leaves_the_verifiers_normal(
    tmp_path,
):
    name = "a far-future read that accepts nothing leaves the verifiers normal"
    assert _play(name, str(tmp_path)) == {"accepted": 1, "bad_signature": 1}


@pytest.mark.contract
def test_the_nct_edges_on_two_shards_in_one_burst_are_both_fresh(tmp_path):
    name = "the NCT edges on two shards in one burst are both fresh"
    assert _play(name, str(tmp_path)) == {"accepted": 2}
