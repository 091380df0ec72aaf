"""Chaos soak: the cookie data path under a seeded fault storm.

The paper's safety argument is conditional — "cookies are bound to
their network service and cannot be abused" — and every condition is a
*failure-path* property: a corrupted cookie must read as "no cookie", a
replayed cookie must hit the replay cache, an unreachable cookie server
must degrade service rather than grant it, a dead verifier shard must
fail closed.  This module drives the whole stack (agents → fault
injector → zero-rating middlebox → accounting sink, plus an on-path
replay attacker) with every fault class enabled at once and checks the
three invariants that make the claims hold:

1. **No free riding**: flows whose cookie was corrupted in flight, and
   flows minted by the replay attacker, accrue **zero** zero-rated
   bytes.
2. **Conservation**: per subscriber IP, the middlebox's
   ``free + charged`` equals the bytes the sink actually delivered —
   faults may drop or duplicate packets but never unaccount them.
3. **No crashes**: the run completes with zero unhandled exceptions;
   every fault surfaces as a counter, never a traceback.
4. **Billing**: the soak runs the full multi-operator billing pipeline
   (three catalogs — unlimited, capped, roaming-suspended — a
   journal-backed accountant, and exactly-once reconciliation): per
   operator, the sum of invoiced free+charged bytes per IP equals the
   bytes the sink delivered, across every fault the storm injected.

Everything is a pure function of ``ChaosConfig.seed``, so a failing run
reproduces bit-identically from its seed (the CI job pins one).

A focused drill complements the soak: :func:`run_outage_drill` — a
30 s cookie-server outage against a resilient agent (retry → breaker →
renewal grace) and a
:class:`~repro.services.boost.daemon.BoostDaemon` in either degraded
mode.
"""

from __future__ import annotations

import json
import random
import shutil
import tempfile
import traceback
from dataclasses import asdict, dataclass, field
from typing import Any

from ..core.seeding import derive_seed

__all__ = [
    "ChaosConfig",
    "ChaosReport",
    "run_chaos",
    "run_outage_drill",
]

#: The zero-rated service every chaos home subscribes to.
CHAOS_SERVICE = "zero-rate"
_SERVER_IP = "93.184.216.34"
_ATTACKER_IP = "10.99.0.99"
#: Simulated wall-clock epoch — keeps skewed host clocks positive.
_EPOCH = 1_700_000_000.0


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs for one soak run; the default is the CI acceptance profile
    (≥5% of each fault class, ±2 s clock skew, two control-plane
    outages)."""

    seed: int = 20160822
    homes: int = 8
    flows_per_home: int = 12
    packets_per_flow: int = 8
    payload_bytes: int = 600
    #: Flow start times are spread across this many simulated seconds.
    duration_s: float = 60.0
    drop_rate: float = 0.05
    duplicate_rate: float = 0.05
    reorder_rate: float = 0.05
    corrupt_rate: float = 0.05
    delay_rate: float = 0.05
    delay_jitter_s: float = 0.25
    #: Per-home constant clock skew is drawn from ±this many seconds.
    max_clock_skew_s: float = 2.0
    #: How many sniffed cookies the on-path attacker replays on fresh
    #: flows (half inside the NCT window, half beyond it).
    attacker_replays: int = 40
    #: Control-plane outage windows (start, end) in simulated seconds.
    outages: tuple[tuple[float, float], ...] = ((15.0, 25.0), (40.0, 48.0))
    #: Short descriptor lifetime so renewals (and renewal grace, during
    #: the outage windows) actually happen mid-run.
    descriptor_lifetime_s: float = 20.0
    renewal_grace_s: float = 30.0
    nct_s: float = 5.0


@dataclass
class ChaosReport:
    """Everything a failing CI run needs to be diagnosed from the log."""

    config: dict[str, Any]
    faults: dict[str, int]
    middlebox: dict[str, int]
    agents: dict[str, int]
    flows: dict[str, int]
    #: Zero-rated bytes accrued by corrupted/attacker flows (must be 0).
    invalid_free_bytes: int
    free_bytes: int
    charged_bytes: int
    conservation_violations: list[str] = field(default_factory=list)
    unhandled_exceptions: list[str] = field(default_factory=list)
    #: Per-operator billing totals + reconciliation counters (§16).
    billing: dict[str, Any] = field(default_factory=dict)
    billing_violations: list[str] = field(default_factory=list)

    @property
    def violations(self) -> list[str]:
        out = list(self.conservation_violations)
        if self.invalid_free_bytes:
            out.append(
                f"{self.invalid_free_bytes} free bytes granted to "
                "corrupted/replayed flows"
            )
        out.extend(self.unhandled_exceptions)
        if not self.free_bytes:
            out.append("vacuous run: no flow was zero-rated at all")
        out.extend(self.billing_violations)
        return out

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> str:
        payload = asdict(self)
        payload["violations"] = self.violations
        payload["ok"] = self.ok
        return json.dumps(payload, indent=2, sort_keys=True)

    def summary(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "violations": len(self.violations),
            "injected": {
                k: v for k, v in self.faults.items() if k != "packets"
            },
            "free_bytes": self.free_bytes,
            "charged_bytes": self.charged_bytes,
            "invalid_free_bytes": self.invalid_free_bytes,
            "grace_signings": self.agents.get("grace_signings", 0),
            "verifier_failures": self.middlebox.get("verifier_failures", 0),
        }


def run_chaos(config: ChaosConfig | None = None) -> ChaosReport:
    """One deterministic soak; see the module docstring for invariants."""
    from ..core.resilience import CircuitBreaker, ResilientChannel, RetryPolicy
    from ..core.client import UserAgent
    from ..core.matcher import CookieMatcher
    from ..core.server import CookieServer, ServiceOffering
    from ..core.store import DescriptorStore
    from ..core.transport import default_registry
    from ..netsim import (
        EventLoop,
        FaultInjector,
        FaultPlan,
        Sink,
        SkewedClock,
        Tap,
        make_tcp_packet,
    )
    from ..netsim.packet import stamp
    from ..services.billing import BillingAccountant, BillingJournal, reconcile
    from ..services.zerorate import (
        AppCoverage,
        CatalogSet,
        OperatorCatalog,
        ZeroRatingMiddlebox,
    )

    config = config or ChaosConfig()
    # All per-component randomness derives from the one campaign seed via
    # the shared stable hash, so streams never shadow one another and the
    # whole soak replays bit-identically from ``config.seed``.
    rng = random.Random(derive_seed(config.seed, "chaos", "homes"))
    loop = EventLoop()

    # Wall-clock epoch: the loop starts at t=0, but cookie timestamps
    # are unsigned on the wire, so a negatively-skewed host clock must
    # never dip below zero.
    def clock() -> float:
        return _EPOCH + loop.now

    # Control plane: one cookie server whose channel blacks out during
    # the configured outage windows.
    store = DescriptorStore()
    server = CookieServer(clock=clock)
    server.offer(
        ServiceOffering(
            name=CHAOS_SERVICE,
            description="chaos-soak zero-rating",
            lifetime=config.descriptor_lifetime_s,
            service_data=CHAOS_SERVICE,
        )
    )
    server.attach_enforcement_store(store)

    def flaky_channel(request: dict[str, Any]) -> dict[str, Any]:
        for start, end in config.outages:
            if start <= loop.now < end:
                raise ConnectionError(
                    f"cookie server unreachable ({start}s–{end}s outage)"
                )
        return server.handle_request(request)

    # One resilient agent per home, each on its own skewed host clock.
    # Retries are instantaneous in simulated time (sleep is a no-op):
    # what matters here is retry *accounting* and breaker behaviour,
    # exercised for real by the outage drill's virtual timeline.
    agents: list[UserAgent] = []
    for home in range(config.homes):
        channel = ResilientChannel(
            flaky_channel,
            policy=RetryPolicy(
                max_attempts=3,
                base_delay=0.05,
                max_delay=0.2,
                seed=derive_seed(config.seed, "chaos", "retry", home),
            ),
            breaker=CircuitBreaker(
                failure_threshold=4, reset_timeout=5.0, clock=clock
            ),
            clock=clock,
            sleep=None,
        )
        agents.append(
            UserAgent(
                f"home-{home}",
                clock=SkewedClock(
                    clock,
                    rng.uniform(
                        -config.max_clock_skew_s, config.max_clock_skew_s
                    ),
                ),
                channel=channel,
                renewal_grace=config.renewal_grace_s,
            )
        )

    # Data plane: injector → middlebox → attacker tap → accounting sink.
    corrupted_flows: set = set()
    injector = FaultInjector(
        FaultPlan(
            drop_rate=config.drop_rate,
            duplicate_rate=config.duplicate_rate,
            reorder_rate=config.reorder_rate,
            corrupt_rate=config.corrupt_rate,
            delay_rate=config.delay_rate,
            delay_jitter_s=config.delay_jitter_s,
            seed=derive_seed(config.seed, "chaos", "faults"),
        ),
        loop=loop,
        on_corrupt=lambda packet: corrupted_flows.add(
            packet.flow_key or stamp(packet)
        ),
    )
    # Billing rides the same storm: three operator catalogs over the one
    # chaos service — op-a unlimited, op-b behind a cap that bites
    # mid-run, op-c roaming-suspended for its first home — journaled and
    # reconciled to the delivered ground truth at the end.
    chaos_app = AppCoverage(
        app=CHAOS_SERVICE, origin_ips=frozenset({_SERVER_IP})
    )
    catalogs = CatalogSet(
        [
            OperatorCatalog(operator="op-a", apps=(chaos_app,)),
            OperatorCatalog(
                operator="op-b", apps=(chaos_app,), cap_bytes=20_000
            ),
            OperatorCatalog(operator="op-c", apps=(chaos_app,)),
        ]
    )
    chaos_operators = ("op-a", "op-b", "op-c")
    for home in range(config.homes):
        catalogs.assign(
            f"10.0.{home}.2", chaos_operators[home % len(chaos_operators)]
        )
    if config.homes > 2:
        catalogs.set_roaming("10.0.2.2")  # op-c's first home is abroad
    journal_dir = tempfile.mkdtemp(prefix="repro-chaos-billing-")
    journal = BillingJournal(
        journal_dir,
        source="chaos",
        stream_seed=config.seed,
        fsync="never",
    )
    accountant = BillingAccountant(catalogs, journal)
    middlebox = ZeroRatingMiddlebox(
        CookieMatcher(store, nct=config.nct_s),
        clock=clock,
        billing=accountant,
    )

    # The attacker sits past the middlebox and replays cookies the
    # middlebox actually *consumed* (``meta["cookie_checked"]``) — the
    # replay threat model the cache defends.  A cookie the box skipped
    # (delayed past the sniff window of an already-resolved flow) is
    # still unspent: stealing it is a first spend, which only a secure
    # channel can prevent — the problem the paper defers to TLS, not a
    # replay-cache invariant.  Each consumed cookie is replayed once on
    # a brand-new flow from the attacker's own subscriber IP.
    transports = default_registry()
    attacker_flows: set = set()
    replays_left = [config.attacker_replays]

    def replay(cookie, index: int) -> None:
        packet = make_tcp_packet(
            _ATTACKER_IP,
            50000 + index,
            _SERVER_IP,
            443,
            payload_size=config.payload_bytes,
            created_at=loop.now,
        )
        transports.attach(packet, cookie)
        attacker_flows.add(stamp(packet))
        # Injected straight into the middlebox: the attack must be
        # defeated by verification, not by the attacker's own bad luck
        # with the fault injector.
        middlebox.push(packet)

    def sniff(packet) -> None:
        if (
            replays_left[0] <= 0
            or not packet.meta.get("cookie_checked")
            or (packet.flow_key or stamp(packet)) in attacker_flows
        ):
            return
        for cookie in transports.extract_all(packet):
            if replays_left[0] <= 0:
                break
            replays_left[0] -= 1
            index = config.attacker_replays - replays_left[0]
            # Half the replays land inside the NCT window (replay cache
            # must catch them), half beyond it (staleness must).
            lag = (
                rng.uniform(0.1, config.nct_s * 0.5)
                if index % 2
                else config.nct_s + rng.uniform(0.5, config.nct_s)
            )
            loop.schedule(lag, lambda c=cookie, i=index: replay(c, i))

    per_flow_free: dict = {}
    per_ip_delivered: dict[str, int] = {}

    def account(packet) -> None:
        key = packet.flow_key or stamp(packet)
        src = packet.ip.src
        per_ip_delivered[src] = (
            per_ip_delivered.get(src, 0) + packet.wire_length
        )
        if packet.meta.get("zero_rated"):
            per_flow_free[key] = (
                per_flow_free.get(key, 0) + packet.wire_length
            )

    sink = Sink(name="chaos-sink", keep=False)
    injector >> middlebox >> Tap(sniff, name="attacker-tap") >> Tap(
        account, name="accounting-tap"
    ) >> sink

    # Traffic: every flow front-loads its cookie on packet 0 (the sniff
    # window) then streams payload.  Uncookied sends (agent degraded
    # past grace) still flow — charged, which is the safe direction.
    legit_flows: set = set()

    def send(agent: UserAgent, src_ip: str, sport: int, first: bool) -> None:
        packet = make_tcp_packet(
            src_ip,
            sport,
            _SERVER_IP,
            443,
            payload_size=config.payload_bytes,
            created_at=loop.now,
        )
        if first:
            agent.insert_cookie(packet, CHAOS_SERVICE)
        legit_flows.add(stamp(packet))
        injector.push(packet)

    sport = 20000
    for home, agent in enumerate(agents):
        src_ip = f"10.0.{home}.2"
        for _flow in range(config.flows_per_home):
            sport += 1
            start = rng.uniform(0.0, config.duration_s)
            for index in range(config.packets_per_flow):
                loop.schedule_at(
                    start + index * 0.05,
                    lambda a=agent, ip=src_ip, p=sport, i=index: send(
                        a, ip, p, i == 0
                    ),
                )

    unhandled: list[str] = []
    try:
        loop.run(until=config.duration_s + config.nct_s * 3 + 5.0)
        loop.run_until_idle()
        injector.flush()
    except Exception:  # the invariant is that this never happens
        unhandled.append(traceback.format_exc())

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    invalid_flows = corrupted_flows | attacker_flows
    invalid_free_bytes = sum(
        per_flow_free.get(key, 0) for key in invalid_flows
    )

    free_bytes = sum(c.free_bytes for c in middlebox.counters.values())
    charged_bytes = sum(c.charged_bytes for c in middlebox.counters.values())
    conservation: list[str] = []
    for ip, counters in sorted(middlebox.counters.items()):
        delivered = per_ip_delivered.get(ip, 0)
        accounted = counters.free_bytes + counters.charged_bytes
        if delivered != accounted:
            conservation.append(
                f"{ip}: middlebox accounted {accounted} B "
                f"but sink delivered {delivered} B"
            )
    for ip in sorted(set(per_ip_delivered) - set(middlebox.counters)):
        conservation.append(
            f"{ip}: {per_ip_delivered[ip]} B delivered but never accounted"
        )

    agent_totals: dict[str, int] = {}
    for agent in agents:
        for name, value in agent.stats.as_dict().items():
            if isinstance(value, (int, float)):
                agent_totals[name] = agent_totals.get(name, 0) + int(value)

    # ------------------------------------------------------------------
    # Billing invariant: per operator, invoiced free+charged per IP ==
    # bytes the sink delivered, across the whole faulted soak.
    # ------------------------------------------------------------------
    billing_violations: list[str] = []
    billing_summary: dict[str, Any] = {}
    try:
        accountant.flush_all(now=clock())
        records = list(journal.records())
        journal.close()
        delivered_by_operator: dict[str, dict[str, int]] = {}
        for ip, nbytes in per_ip_delivered.items():
            per = delivered_by_operator.setdefault(
                catalogs.operator_of(ip), {}
            )
            per[ip] = per.get(ip, 0) + nbytes
        reconciled = reconcile(
            records,
            delivered=delivered_by_operator,
            recovery=journal.recovery,
        )
        billing_violations.extend(reconciled.tariff_violations)
        for operator, per in sorted(reconciled.lost.items()):
            for ip, nbytes in sorted(per.items()):
                billing_violations.append(
                    f"billing lost: {operator}/{ip} delivered {nbytes} B "
                    "never invoiced"
                )
        for operator, per in sorted(reconciled.double_billed.items()):
            for ip, nbytes in sorted(per.items()):
                billing_violations.append(
                    f"billing double: {operator}/{ip} invoiced {nbytes} B "
                    "never delivered"
                )
        capped = reconciled.invoices.get("op-b")
        if capped is not None and capped.statements:
            over = [
                ip
                for ip, statement in capped.statements.items()
                if statement.free_bytes > 20_000
            ]
            if over:
                billing_violations.append(
                    f"op-b cap exceeded for {sorted(over)}"
                )
        billing_summary = {
            "records": reconciled.records_applied,
            "duplicates_skipped": reconciled.duplicates_skipped,
            "corrupt_records": reconciled.corrupt_records,
            "operators": {
                operator: {
                    "free_bytes": invoice.free_bytes,
                    "charged_bytes": invoice.charged_bytes,
                    "subscribers": len(invoice.statements),
                }
                for operator, invoice in sorted(
                    reconciled.invoices.items()
                )
            },
        }
    except Exception:  # billing must never crash the soak either
        billing_violations.append(traceback.format_exc())
    finally:
        shutil.rmtree(journal_dir, ignore_errors=True)

    return ChaosReport(
        config=asdict(config),
        faults=injector.stats.as_dict(),
        middlebox={
            "free_bytes": free_bytes,
            "charged_bytes": charged_bytes,
            "flows_resolved": middlebox.flows_resolved,
            "cookie_hits": middlebox.cookie_hits,
            "verifier_failures": middlebox.verifier_failures,
            "subscribers": len(middlebox.counters),
        },
        agents=agent_totals,
        flows={
            "legit": len(legit_flows),
            "corrupted": len(corrupted_flows),
            "attacker": len(attacker_flows),
            "sink_packets": sink.count,
        },
        invalid_free_bytes=invalid_free_bytes,
        free_bytes=free_bytes,
        charged_bytes=charged_bytes,
        conservation_violations=conservation,
        unhandled_exceptions=unhandled,
        billing=billing_summary,
        billing_violations=billing_violations,
    )


# ----------------------------------------------------------------------
# Outage drill
# ----------------------------------------------------------------------
def run_outage_drill(mode: str, seed: int = 0) -> dict[str, Any]:
    """A 30 s cookie-server outage on a virtual timeline.

    One home keeps minting every second while the control channel is
    down from t=5 s to t=35 s.  Expected arc: retries fail → the
    breaker opens → renewal past descriptor expiry falls back to grace
    signing → the daemon (watching the same breaker) enters ``mode``'s
    degraded behaviour → recovery closes the breaker, renews the
    descriptor, and restores the fast lane.  Returns the observed
    timeline for tests/CLI to assert on.
    """
    from ..core.resilience import CircuitBreaker, ResilientChannel, RetryPolicy
    from ..core.client import UserAgent
    from ..core.server import CookieServer, ServiceOffering
    from ..core.store import DescriptorStore
    from ..netsim import EventLoop, make_tcp_packet
    from ..services.boost.daemon import BoostDaemon

    outage = (5.0, 35.0)
    loop = EventLoop()

    def clock() -> float:
        return loop.now

    store = DescriptorStore()
    server = CookieServer(clock=clock)
    server.offer(
        ServiceOffering(
            name=CHAOS_SERVICE,
            description="outage drill",
            lifetime=10.0,
            service_data=CHAOS_SERVICE,
        )
    )
    server.attach_enforcement_store(store)

    def channel_fn(request: dict[str, Any]) -> dict[str, Any]:
        if outage[0] <= loop.now < outage[1]:
            raise ConnectionError("cookie server outage")
        return server.handle_request(request)

    breaker = CircuitBreaker(
        failure_threshold=3, reset_timeout=5.0, clock=clock
    )
    agent = UserAgent(
        "drill-home",
        clock=clock,
        channel=ResilientChannel(
            channel_fn,
            policy=RetryPolicy(
                max_attempts=2, base_delay=0.05, max_delay=0.1, seed=seed
            ),
            breaker=breaker,
            clock=clock,
            sleep=None,
        ),
        renewal_grace=60.0,
    )
    daemon = BoostDaemon(
        loop, store, boost_lifetime=60.0, degraded_mode=mode
    )
    daemon.attach_breaker(breaker)

    observed: dict[str, Any] = {"mode": mode}

    def tick() -> None:
        packet = make_tcp_packet(
            "10.0.0.2",
            40000 + int(loop.now),
            _SERVER_IP,
            443,
            payload_size=100,
            created_at=loop.now,
        )
        agent.insert_cookie(packet, CHAOS_SERVICE)
        daemon.switch.push(packet)
        daemon.poll_degraded()

    for second in range(46):
        loop.schedule_at(second + 0.5, tick)

    def observe(label: str) -> None:
        observed[label] = {
            "boost_active": daemon.active_descriptor_id is not None,
            "degraded": daemon.degraded,
            "breaker_state": breaker.state,
        }

    loop.schedule_at(4.9, lambda: observe("before_outage"))
    loop.schedule_at(30.0, lambda: observe("during_outage"))
    loop.schedule_at(45.9, lambda: observe("after_recovery"))
    loop.run(until=46.0)

    observed.update(
        breaker_opened=breaker.opened,
        degraded_entered=daemon.degraded_entered,
        activations_blocked=daemon.degraded_activations_blocked,
        grace_signings=agent.stats.grace_signings,
        renewals_failed=agent.stats.renewals_failed,
        retries=agent.channel.stats.retries,
        rejected_open=agent.channel.stats.rejected_open,
    )
    return observed
