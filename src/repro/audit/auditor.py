"""The adversarial neutrality auditor: record/replay differential harness.

PAPERS.md's FairNet and Wehe detect traffic differentiation from the
outside by replaying *matched pairs* — byte-identical streams, one
carrying the differentiating feature and one without — and testing the
performance/accounting delta statistically.  This module points that
instrument at our own stack: it drives matched flow pairs (one stream
with a valid cookie, one bare twin) through a netsim topology containing
the element under audit, records per-flow outcomes via a
:class:`~repro.netsim.capture.PacketCapture` tap and the element's own
billing counters, and emits an :class:`AuditVerdict` saying which policy
dimensions differ, with what effect size, and whether the differences
match the *advertised* descriptor policy — and only it.

The auditor plays the regulator's part end to end:

- it acquires descriptors through the public control plane (a
  :class:`~repro.core.server.CookieServer`), so every probe is also an
  :class:`~repro.audit.log.AuditLog` entry;
- it keeps a **reference verifier** — its own honest
  :class:`~repro.core.matcher.CookieMatcher` over the honestly-issued
  descriptors — so each probe cookie gets an expected verdict reason
  (``accepted`` / ``replayed`` / ``revoked`` / ...) to compare against
  the operator's observable behaviour;
- beyond the matched pair it sends *negative probes*: a replayed spent
  cookie (plus the PR-4 future-skew variant inside the 2×NCT window), a
  cookie from a revoked descriptor, and bare flows from a second
  subscriber (the collusion probe).  The advertised policy says all of
  them are charged; an operator for whom any of them rides free is
  enforcing something other than the advertised policy.

Verdicts are a pure function of :class:`AuditConfig` (seeded uuids,
seeded payload jitter, exact statistics), so a failing audit replays
bit-identically.  :mod:`repro.audit.personas` provides the malicious
operators the auditor must flag; :mod:`repro.experiments.audit` runs the
full personas-times-elements campaign.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from ..core.attributes import CookieAttributes, Granularity
from ..core.cookie import Cookie
from ..core.errors import (
    CookieError,
    DescriptorExpired,
    DescriptorRevoked,
    InvalidSignature,
    ReplayDetected,
    StaleTimestamp,
    UnknownDescriptor,
)
from ..core.generator import CookieGenerator
from ..core.matcher import CookieMatcher, NETWORK_COHERENCY_TIME
from ..core.seeding import derive_seed
from ..core.server import CookieServer, ServiceOffering
from ..core.store import DescriptorStore
from ..core.transport import default_registry
from ..netsim.capture import PacketCapture
from ..netsim.events import EventLoop
from ..netsim.middlebox import ShaperElement, Sink
from ..netsim.packet import make_tcp_packet
from ..netsim.queues import TokenBucket
from .personas import HonestOperator
from .stats import PairedTestResult, mean, paired_permutation_test, sign_test

__all__ = [
    "AuditConfig",
    "FlowOutcome",
    "VerificationRecord",
    "DimensionResult",
    "AuditVerdict",
    "HarnessContext",
    "RecordingVerifier",
    "NeutralityAuditor",
    "AUDIT_SEED",
]

#: The pinned CI seed (the paper's publication date, like the chaos soak).
AUDIT_SEED = 20160822

#: Simulated wall-clock epoch (cookie timestamps are unsigned on the wire).
_EPOCH = 1_700_000_000.0
_SERVER_IP = "93.184.216.34"


def _packet_grant(_now: float) -> CookieAttributes:
    """The stateless element's grants: packet granularity, no expiry."""
    return CookieAttributes(granularity=Granularity.PACKET)


_REASONS_BY_ERROR: tuple[tuple[type, str], ...] = (
    (UnknownDescriptor, "unknown_id"),
    (DescriptorRevoked, "revoked"),
    (DescriptorExpired, "expired"),
    (InvalidSignature, "bad_signature"),
    (StaleTimestamp, "stale_timestamp"),
    (ReplayDetected, "replayed"),
)


# The harness geometry: constants, not knobs, because the probe catalog is
# written against them and they constrain one another.
#: The replay probes' offsets are multiples of the NCT the matchers run at.
_NCT_S = NETWORK_COHERENCY_TIME
#: Simulated seconds between trial starts; must exceed the replay probes'
#: tail (~2×NCT) so trials stay independent.
_TRIAL_SPACING_S = 20.0
_PACKET_SPACING_S = 0.05
_PAYLOAD_BYTES = 600
#: Per-packet payload jitter (seeded, shared across a trial's matched
#: streams so the pair stays byte-identical).
_PAYLOAD_JITTER = 256
#: Bottleneck for the Boost performance dimension: slow enough that a flow
#: queued behind it finishes measurably later than send pacing.
_BOTTLENECK_BPS = 40_000.0
_BOTTLENECK_BURST_BYTES = 2_000
#: The capture annotations :meth:`NeutralityAuditor._collect_outcomes` reads.
_TAP_ANNOTATIONS = ("zero_rated", "qos_class", "anylink_profile")


@dataclass(frozen=True)
class AuditConfig:
    """Knobs for one audit run; everything downstream is a pure function
    of these values."""

    seed: int = AUDIT_SEED
    #: Matched-pair trials; the exact sign test over 8 all-one-direction
    #: pairs gives p ≈ 0.008, so this is the floor for alpha = 0.01.
    trials: int = 12
    packets_per_flow: int = 10
    #: Significance level for the paired tests.
    alpha: float = 0.01
    #: "first-packet" rides the cookie on each flow's opening packet (the
    #: stateful sniff-window contract); "every-packet" mints a fresh
    #: cookie per packet (the stateless extreme, §4.6).
    cookie_mode: str = "first-packet"

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.cookie_mode not in ("first-packet", "every-packet"):
            raise ValueError(f"unknown cookie mode {self.cookie_mode!r}")
        if self.packets_per_flow < 4:
            raise ValueError(
                "need >= 4 packets per flow (sniff window + payload)"
            )


@dataclass
class FlowOutcome:
    """Observable facts about one probe flow — everything here is visible
    to an outside auditor (its own sent stream, the capture tap past the
    element, and the subscriber's bill)."""

    probe: str
    subscriber: str
    trial: int
    start: float
    sent_packets: int = 0
    sent_bytes: int = 0
    delivered_packets: int = 0
    delivered_bytes: int = 0
    #: Delivered bytes the element marked zero-rated (capture annotation).
    free_marked_bytes: int = 0
    #: Delivered packets carrying the fast-lane QoS mark (boost).
    fast_lane_packets: int = 0
    #: Delivered packets annotated with an AnyLink profile binding.
    profile_packets: int = 0
    #: The subscriber's bill, read from the element's counters.
    billed_free: int = 0
    billed_charged: int = 0
    fct: float | None = None

    @property
    def delivered_fraction(self) -> float:
        return self.delivered_bytes / self.sent_bytes if self.sent_bytes else 0.0

    @property
    def billed_total(self) -> int:
        return self.billed_free + self.billed_charged

    @property
    def billed_free_fraction(self) -> float:
        total = self.billed_total
        return self.billed_free / total if total else 0.0

    def to_json(self) -> dict[str, Any]:
        return {
            "probe": self.probe,
            "trial": self.trial,
            "sent_bytes": self.sent_bytes,
            "delivered_bytes": self.delivered_bytes,
            "free_marked_bytes": self.free_marked_bytes,
            "billed_free": self.billed_free,
            "billed_charged": self.billed_charged,
            "fct": self.fct,
        }


#: What a judge reads: per trial, probe name -> that probe's flow.
_Trials = list[dict[str, FlowOutcome]]


@dataclass(frozen=True)
class VerificationRecord:
    """One cookie presented to the element's verifier: the auditor's
    reference reason next to the operator's observed verdict."""

    time: float
    probe: str
    reference_reason: str
    operator_accepted: bool


class RecordingVerifier:
    """Harness tap between the element under audit and its (possibly
    malicious) verifier.

    Every cookie the element consumes is first classified by the
    auditor's *reference* matcher — an honest
    :class:`~repro.core.matcher.CookieMatcher` over the honestly-issued
    descriptor store, with its own replay cache — yielding the verdict
    reason the advertised policy prescribes.  The operator's verifier is
    then consulted for the verdict that actually takes effect.  The
    divergence log is what turns "this flow rode free" into "this
    operator honoured a replayed cookie".
    """

    def __init__(
        self,
        operator: Any,
        reference: CookieMatcher,
        probe_of: dict[tuple[int, bytes], str],
    ) -> None:
        self.operator = operator
        self.reference = reference
        self.probe_of = probe_of
        self.records: list[VerificationRecord] = []

    def match(self, cookie: Cookie, now: float):
        try:
            self.reference.verify(cookie, now)
            reason = "accepted"
        except CookieError as exc:
            reason = "error"
            for error_type, name in _REASONS_BY_ERROR:
                if isinstance(exc, error_type):
                    reason = name
                    break
        # Record in ``finally``: a verifier that *raises* is exactly the
        # event the fail-safe guarantee (verifier failure => charged, never
        # free) is about, so the ledger must hold it and the element under
        # audit must still see the exception.
        accepted = False
        try:
            result = self.operator.match(cookie, now)
            accepted = result is not None
            return result
        finally:
            self.records.append(
                VerificationRecord(
                    time=now,
                    probe=self.probe_of.get(
                        (cookie.cookie_id, cookie.uuid), "unsolicited"
                    ),
                    reference_reason=reason,
                    operator_accepted=accepted,
                )
            )


@dataclass
class DimensionResult:
    """Verdict for one policy dimension.

    ``kind`` is ``"statistical"`` (a paired test over the matched-pair
    deltas decides whether the dimension differs) or ``"invariant"`` (an
    exact property checked per trial; any violation is disqualifying).
    """

    name: str
    kind: str
    expected_differs: bool = False
    observed_differs: bool = False
    expected_direction: int = 0
    direction: int = 0
    #: Mean paired delta (statistical) — the effect size.
    effect: float = 0.0
    p_value: float | None = None
    violations: list[str] = field(default_factory=list)
    tests: list[PairedTestResult] = field(default_factory=list)
    detail: str = ""

    @property
    def ok(self) -> bool:
        if self.violations:
            return False
        if self.kind != "statistical":
            return True
        if self.observed_differs != self.expected_differs:
            return False
        if self.expected_differs and self.expected_direction:
            return self.direction == self.expected_direction
        return True

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "ok": self.ok,
            "expected_differs": self.expected_differs,
            "observed_differs": self.observed_differs,
            "expected_direction": self.expected_direction,
            "direction": self.direction,
            "effect": self.effect,
            "p_value": self.p_value,
            "violations": list(self.violations),
            "tests": [t.to_json() for t in self.tests],
            "detail": self.detail,
        }


@dataclass
class AuditVerdict:
    """The auditor's structured finding for one element × persona run."""

    element: str
    persona: str
    service: str
    seed: int
    trials: int
    dimensions: dict[str, DimensionResult]
    outcomes: list[dict[str, FlowOutcome]] = field(default_factory=list)
    verifications: list[VerificationRecord] = field(default_factory=list)

    @property
    def flagged(self) -> bool:
        """True when the enforced policy deviates from the advertised
        one — the auditor's alarm."""
        return any(not d.ok for d in self.dimensions.values())

    @property
    def violations(self) -> list[str]:
        out: list[str] = []
        for dim in self.dimensions.values():
            if dim.kind == "statistical" and not dim.ok and not dim.violations:
                if dim.expected_differs and not dim.observed_differs:
                    out.append(
                        f"{dim.name}: advertised difference absent "
                        f"(effect {dim.effect:.4g}, p={dim.p_value:.4g})"
                    )
                elif dim.observed_differs and not dim.expected_differs:
                    out.append(
                        f"{dim.name}: unadvertised difference "
                        f"(effect {dim.effect:.4g}, p={dim.p_value:.4g})"
                    )
                else:
                    out.append(
                        f"{dim.name}: difference in the wrong direction "
                        f"(observed {dim.direction:+d}, advertised "
                        f"{dim.expected_direction:+d})"
                    )
            out.extend(f"{dim.name}: {v}" for v in dim.violations)
        return out

    def to_json(self) -> dict[str, Any]:
        return {
            "element": self.element,
            "persona": self.persona,
            "service": self.service,
            "seed": self.seed,
            "trials": self.trials,
            "flagged": self.flagged,
            "violations": self.violations,
            "dimensions": {
                name: dim.to_json() for name, dim in self.dimensions.items()
            },
        }


@dataclass
class HarnessContext:
    """What a persona may wrap or observe — the operator's vantage."""

    loop: EventLoop
    clock: Callable[[], float]
    store: DescriptorStore
    server: CookieServer
    transports: Any
    service: str
    config: AuditConfig
    #: The element under audit (set once it is built); rear elements that
    #: tamper with its counters reach it through here.
    element: Any = None


def _invariant(name: str, violations: list[str], detail: str) -> DimensionResult:
    return DimensionResult(
        name=name, kind="invariant", violations=violations, detail=detail
    )


#: The zero-rating probes whose every byte the advertised policy charges:
#: dimension -> (probes, what a free byte rode on, the invariant's wording).
_MUST_BE_CHARGED: dict[str, tuple[tuple[str, ...], str, str]] = {
    "replay": (
        ("replayed", "replayed_skewed"),
        "on a spent cookie",
        "a spent cookie is never free again, including the future-skew "
        "replay inside the 2xNCT window",
    ),
    "revocation": (
        ("revoked",),
        "on a revoked descriptor",
        "cookies of a revoked descriptor are charged",
    ),
    "exclusivity": (
        ("bare", "bare_collusion"),
        "without a cookie",
        "bare flows are charged, from the probing subscriber and from the "
        "collusion subscriber alike",
    ),
}


def _drain(loop: EventLoop, until: float) -> None:
    loop.run(until=until)
    loop.run_until_idle()


class NeutralityAuditor:
    """Runs record/replay audits against the stack's enforcement elements.

    One auditor instance is reusable; each :meth:`audit` call builds a
    fresh seeded topology, drives :attr:`AuditConfig.trials` matched
    trials through it, and returns an :class:`AuditVerdict`.  The harness
    is written once (:meth:`_run_campaign`); an audit supplies how its
    element and chain are built (``_build_*``), its per-trial probe plan
    (``_plan_*``) and its judge (``_judge_*``).
    """

    def __init__(self, config: AuditConfig | None = None) -> None:
        self.config = config or AuditConfig()

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def audit(self, element: str, persona=None) -> AuditVerdict:
        """Audit one element under ``persona`` (default: the honest
        operator).  ``element`` is a campaign element name:
        ``"zerorate-stateful"``, ``"zerorate-stateless"``, ``"boost"`` or
        ``"anylink"`` (the 2G profile; ``"anylink-<profile>"`` otherwise)."""
        kind, _, variant = element.partition("-")
        if kind == "zerorate" and variant in ("stateful", "stateless"):
            return self._run_campaign(
                persona,
                element=element,
                service="zero-rate",
                service_data="zero-rate",
                seed_path=("zerorate",),
                epoch=_EPOCH,
                subnet=64,
                # The stateless element is the middlebox fed packet
                # grants (§4.6): the descriptor, not the box, decides.
                attribute_factory=(
                    _packet_grant if variant == "stateless" else None
                ),
                build=self._build_zero_rating,
                plan=self._plan_zero_rating,
                judge=self._judge_zero_rating,
            )
        if element == "boost":
            return self._run_campaign(
                persona,
                element=element,
                service="boost",
                service_data="boost",
                seed_path=("boost",),
                # The daemon's embedded CookieSwitch verifies at loop.now,
                # so the auditor mints cookies on the same time base.
                epoch=0.0,
                subnet=96,
                build=self._build_boost,
                plan=partial(self._plan_matched_pair, "boosted", "plain"),
                judge=self._judge_boost,
            )
        if kind == "anylink":
            profile = variant or "2g"
            return self._run_campaign(
                persona,
                element=kind,
                service=f"anylink-{profile}",
                # The proxy maps a descriptor to its shaper by profile name.
                service_data=profile,
                seed_path=("anylink", profile),
                # AnyLinkProxy verifies at loop.now; mint on the same base.
                epoch=0.0,
                subnet=128,
                build=self._build_anylink,
                plan=partial(self._plan_matched_pair, "cookied", "bare"),
                judge=self._judge_anylink,
            )
        raise ValueError(f"unknown element {element!r}")

    # ------------------------------------------------------------------
    # The campaign: harness -> schedule -> collect -> verdict
    # ------------------------------------------------------------------
    def _run_campaign(
        self,
        persona,
        *,
        element: str,
        service: str,
        service_data: str,
        seed_path: tuple[str, ...],
        epoch: float,
        subnet: int,
        build: Callable,
        plan: Callable,
        judge: Callable,
        attribute_factory: Callable[[float], CookieAttributes] | None = None,
    ) -> AuditVerdict:
        """Run one element × persona audit.

        The public control plane offers ``service`` and nothing else,
        granted with ``attribute_factory``'s blocks (None: the default).
        ``build(ctx, persona, recorder, operator_store)`` constructs the
        element under audit behind ``recorder``, sets ``ctx.element``, and
        returns the chain probes cross before the tap plus the element's
        per-subscriber bill reader (None: no bill).  ``plan(ctx, base,
        cookies_for)`` runs at each trial's start and returns its
        ``(probe, host, start, cookies)`` rows; ``judge`` maps per-trial
        outcomes to dimensions.  Probe subscribers live in
        ``10.<subnet>.0.0/16``; every clock reads ``epoch + loop.now``.
        """
        persona = persona or HonestOperator()
        config = self.config
        rng = random.Random(derive_seed(config.seed, "audit", *seed_path))
        loop = EventLoop()
        clock = lambda: epoch + loop.now  # noqa: E731

        honest_store = DescriptorStore()
        server = CookieServer(clock=clock)
        server.offer(
            ServiceOffering(
                name=service,
                description=f"audited {service}",
                lifetime=None,
                service_data=service_data,
                attribute_factory=attribute_factory,
            )
        )
        server.attach_enforcement_store(honest_store)
        ctx = HarnessContext(
            loop=loop,
            clock=clock,
            store=honest_store,
            server=server,
            transports=default_registry(),
            service=service,
            config=config,
        )
        persona.setup(ctx)

        operator_store = persona.wrap_store(honest_store)
        recorder = RecordingVerifier(
            persona.wrap_matcher(CookieMatcher(operator_store, nct=_NCT_S)),
            CookieMatcher(honest_store, nct=_NCT_S),
            probe_of={},
        )
        chain, counters_of = build(ctx, persona, recorder, operator_store)
        capture = PacketCapture(
            clock=clock, keep_meta=_TAP_ANNOTATIONS, name="audit-tap"
        )
        chain = [*chain, capture, Sink(keep=False)]
        for upstream, downstream in zip(chain, chain[1:]):
            upstream >> downstream

        def cookies_for(descriptor, skew: float = 0.0) -> "list[Cookie | None]":
            """The per-packet cookie vector for one positive probe, minted
            by a clock running ``skew`` seconds ahead."""
            generator = CookieGenerator(
                descriptor,
                clock=(lambda: clock() + skew) if skew else clock,
                rng=rng.randbytes,
            )
            count = config.packets_per_flow
            if config.cookie_mode == "first-packet":
                return [generator.generate()] + [None] * (count - 1)
            return [generator.generate() for _ in range(count)]

        def send(outcome: FlowOutcome, sport: int, size: int, cookie) -> None:
            packet = make_tcp_packet(
                outcome.subscriber,
                sport,
                _SERVER_IP,
                443,
                payload_size=size,
                created_at=loop.now,
            )
            if cookie is not None:
                # The ledger attributes a verification to whoever put the
                # cookie on the wire: a spent cookie re-sent by a replay
                # probe is that probe's attempt, not the original flow's.
                recorder.probe_of[(cookie.cookie_id, cookie.uuid)] = outcome.probe
                ctx.transports.attach(packet, cookie)
            outcome.sent_packets += 1
            outcome.sent_bytes += packet.wire_length
            chain[0].push(packet)

        outcomes: dict[tuple[str, int], FlowOutcome] = {}
        trial_probes: _Trials = [{} for _ in range(config.trials)]

        def setup_trial(trial: int, base: float) -> None:
            # One size vector per trial, shared by all its probes: that is
            # what 'byte-identical' means.  Drawn before the plan's mints.
            sizes = [
                _PAYLOAD_BYTES + rng.randrange(_PAYLOAD_JITTER + 1)
                for _ in range(config.packets_per_flow)
            ]
            for probe, host, start, cookies in plan(ctx, base, cookies_for):
                subscriber = f"10.{subnet + (trial >> 8)}.{trial & 255}.{host}"
                outcome = FlowOutcome(
                    probe=probe, subscriber=subscriber, trial=trial, start=start
                )
                outcomes[(subscriber, 20_000 + host)] = outcome
                trial_probes[trial][probe] = outcome
                for index, (size, cookie) in enumerate(zip(sizes, cookies)):
                    loop.schedule_at(
                        start + index * _PACKET_SPACING_S,
                        partial(send, outcome, 20_000 + host, size, cookie),
                    )

        for trial in range(config.trials):
            base = trial * _TRIAL_SPACING_S
            loop.schedule_at(base, partial(setup_trial, trial, base))

        _drain(loop, config.trials * _TRIAL_SPACING_S + 4 * _NCT_S)
        self._collect_outcomes(capture, outcomes, counters_of, epoch)
        return AuditVerdict(
            element=element,
            persona=persona.name,
            service=service,
            seed=config.seed,
            trials=config.trials,
            dimensions=judge(trial_probes),
            outcomes=trial_probes,
            verifications=recorder.records,
        )

    def _collect_outcomes(
        self,
        capture: PacketCapture,
        outcomes: "dict[tuple[str, int], FlowOutcome]",
        counters_of: Callable[[str], Any] | None,
        epoch: float,
    ) -> None:
        """Fold the capture tap and the element's bill into the outcomes."""
        for record in capture:
            key = (record.src_ip, record.src_port)
            outcome = outcomes.get(key)
            if outcome is None:
                continue
            outcome.delivered_packets += 1
            outcome.delivered_bytes += record.wire_length
            if record.annotation("zero_rated"):
                outcome.free_marked_bytes += record.wire_length
            if record.annotation("qos_class") is not None:
                outcome.fast_lane_packets += 1
            if record.annotation("anylink_profile") is not None:
                outcome.profile_packets += 1
            finished = record.time - epoch - outcome.start
            if outcome.fct is None or finished > outcome.fct:
                outcome.fct = finished
        if counters_of is not None:
            for outcome in outcomes.values():
                billed = counters_of(outcome.subscriber)
                outcome.billed_free = billed.free_bytes
                outcome.billed_charged = billed.charged_bytes

    def _statistical_dimension(
        self,
        name: str,
        deltas: list[float],
        expected_differs: bool,
        expected_direction: int = 0,
        detail: str = "",
        extra_tests: list[PairedTestResult] | None = None,
    ) -> DimensionResult:
        config = self.config
        tests = [
            sign_test(deltas),
            paired_permutation_test(deltas, seed=config.seed),
            *(extra_tests or ()),
        ]
        significant = [t for t in tests if t.significant(config.alpha)]
        direction = 0
        for test in significant:
            if test.direction:
                direction = test.direction
                break
        return DimensionResult(
            name=name,
            kind="statistical",
            expected_differs=expected_differs,
            observed_differs=bool(significant),
            expected_direction=expected_direction,
            direction=direction,
            effect=mean(deltas),
            p_value=min(t.p_value for t in tests),
            tests=tests,
            detail=detail,
        )

    # ------------------------------------------------------------------
    # Zero-rating audit
    # ------------------------------------------------------------------
    def _build_zero_rating(
        self, ctx: HarnessContext, persona, recorder, operator_store
    ):
        from ..services.zerorate import ZeroRatingMiddlebox

        box = ctx.element = ZeroRatingMiddlebox(recorder, clock=ctx.clock)
        chain = [*persona.front_elements(ctx), box, *persona.rear_elements(ctx)]
        return chain, box.counters_for

    def _plan_zero_rating(self, ctx: HarnessContext, base: float, cookies_for):
        """The matched pair plus the negative probes: replays of spent
        cookies, a revoked descriptor, and a second bare subscriber."""
        server = ctx.server
        nct = _NCT_S
        bare = [None] * self.config.packets_per_flow
        descriptor = server.acquire("auditor", ctx.service)
        revoked_descriptor = server.acquire("auditor", ctx.service)

        cookied = cookies_for(descriptor)
        # The PR-4 double-spend window: a cookie stamped by a clock
        # running ~NCT ahead stays timestamp-fresh for up to 2×NCT
        # after its earliest spend instant.  Spend it now, replay it
        # 1.5×NCT later — the replay cache (window 2×NCT) must still
        # remember it, or its floor must have passed the cookie.
        skewed = cookies_for(descriptor, skew=nct * 0.98)
        revoked_cookies = cookies_for(revoked_descriptor)
        ctx.loop.schedule_at(
            base + 0.3,
            lambda: server.revoke(revoked_descriptor.cookie_id, by="auditor"),
        )
        # Replays re-send the exact cookie the element consumed on the
        # original flow's opening packet (the chaos attacker's threat
        # model: a sniffed, *spent* cookie).
        return (
            ("cookied", 1, base + 0.5, cookied),
            ("bare", 2, base + 0.5, bare),
            ("bare_collusion", 3, base + 1.5, bare),
            ("replayed", 4, base + 2.0, cookied[:1] + bare[1:]),
            ("skewed_spend", 5, base + 2.0, skewed),
            ("replayed_skewed", 6, base + 2.0 + 1.5 * nct, skewed[:1] + bare[1:]),
            ("revoked", 7, base + 0.5, revoked_cookies),
        )

    def _judge_zero_rating(self, trials: _Trials) -> dict[str, DimensionResult]:
        accounting_deltas: list[float] = []
        fct_deltas: list[float] = []
        delivered_deltas: list[float] = []
        conservation: list[str] = []
        rode_free: dict[str, list[str]] = {name: [] for name in _MUST_BE_CHARGED}

        for index, probes in enumerate(trials):
            cookied = probes["cookied"]
            bare = probes["bare"]
            accounting_deltas.append(
                cookied.billed_free_fraction - bare.billed_free_fraction
            )
            if cookied.fct is not None and bare.fct is not None:
                fct_deltas.append(bare.fct - cookied.fct)
            delivered_deltas.append(
                bare.delivered_fraction - cookied.delivered_fraction
            )
            for outcome in probes.values():
                if outcome.billed_total != outcome.delivered_bytes:
                    conservation.append(
                        f"trial {index} {outcome.probe}: billed "
                        f"{outcome.billed_total} B but delivered "
                        f"{outcome.delivered_bytes} B"
                    )
            for name, (charged_probes, how, _) in _MUST_BE_CHARGED.items():
                for probe in charged_probes:
                    outcome = probes[probe]
                    # Either evidence stream convicts: the bill or the
                    # wire mark.
                    free = max(outcome.billed_free, outcome.free_marked_bytes)
                    if free:
                        rode_free[name].append(
                            f"trial {index} {probe}: {free} B rode free {how}"
                        )

        delivered_test = sign_test(delivered_deltas)
        performance = self._statistical_dimension(
            "performance",
            fct_deltas,
            expected_differs=False,
            detail=(
                "paired FCT delta (bare - cookied) and delivered-fraction "
                "delta; advertised zero-rating changes the bill, not the "
                "service"
            ),
            extra_tests=[delivered_test],
        )
        # Delivered-fraction loss points the same way as an FCT increase.
        if delivered_test.significant(self.config.alpha) and not performance.direction:
            performance.direction = -delivered_test.direction
        return {
            "accounting": self._statistical_dimension(
                "accounting",
                accounting_deltas,
                expected_differs=True,
                expected_direction=1,
                detail=(
                    "paired billed free-fraction delta (cookied - bare); "
                    "the advertised dimension"
                ),
            ),
            "performance": performance,
            "conservation": _invariant(
                "conservation",
                conservation,
                "per-subscriber bill equals delivered wire bytes",
            ),
            **{
                name: _invariant(name, rode_free[name], detail)
                for name, (_, _, detail) in _MUST_BE_CHARGED.items()
            },
        }

    # ------------------------------------------------------------------
    # Boost and AnyLink audits
    # ------------------------------------------------------------------
    def _plan_matched_pair(
        self, cookied: str, bare: str, ctx: HarnessContext, base: float, cookies_for
    ):
        """One cookied flow and its bare twin, named per the audit."""
        descriptor = ctx.server.acquire("auditor", ctx.service)
        return (
            (cookied, 1, base + 0.5, cookies_for(descriptor)),
            (bare, 2, base + 0.5, [None] * self.config.packets_per_flow),
        )

    def _build_boost(self, ctx: HarnessContext, persona, recorder, operator_store):
        from ..services.boost.daemon import BoostDaemon
        from ..services.boost.qos import FAST_LANE_CLASS

        daemon = ctx.element = BoostDaemon(
            ctx.loop,
            operator_store,
            boost_lifetime=_TRIAL_SPACING_S / 2,
            verifier=recorder,
        )

        # The honest bottleneck: fast-lane packets bypass the shaper.
        stage = ShaperElement(
            ctx.loop,
            TokenBucket(
                rate_bps=_BOTTLENECK_BPS, burst_bytes=_BOTTLENECK_BURST_BYTES
            ),
            predicate=(
                lambda packet: packet.meta.get("qos_class") != FAST_LANE_CLASS
            ),
            name="audit-bottleneck",
        )
        return [daemon.switch, persona.boost_stage(ctx, stage)], None

    def _judge_boost(self, trials: _Trials) -> dict[str, DimensionResult]:
        fct_deltas: list[float] = []
        marking: list[str] = []
        delivery: list[str] = []
        # The advertised fast lane bypasses the bottleneck entirely, so a
        # boosted flow's FCT is bounded by its own send pacing.  The bound
        # is absolute, not relative: an operator shaping *both* lanes can
        # keep the paired delta positive while under-delivering the rate
        # the subscriber paid for.
        nominal = (self.config.packets_per_flow - 1) * _PACKET_SPACING_S
        fct_bound = nominal + 2 * _PACKET_SPACING_S
        for index, probes in enumerate(trials):
            boosted = probes["boosted"]
            plain = probes["plain"]
            if boosted.fct is not None and plain.fct is not None:
                fct_deltas.append(plain.fct - boosted.fct)
            if boosted.fct is None:
                delivery.append(f"trial {index}: boosted flow never completed")
            elif boosted.fct > fct_bound:
                delivery.append(
                    f"trial {index}: boosted FCT {boosted.fct:.3f}s exceeds "
                    f"the advertised fast-lane bound {fct_bound:.3f}s"
                )
            if boosted.fast_lane_packets == 0:
                marking.append(
                    f"trial {index}: boosted flow never carried the "
                    "fast-lane mark"
                )
            if plain.fast_lane_packets:
                marking.append(
                    f"trial {index}: bare flow carried the fast-lane mark "
                    f"on {plain.fast_lane_packets} packet(s)"
                )
        return {
            "marking": _invariant(
                "marking",
                marking,
                "fast-lane QoS mark rides cookied flows, and only them",
            ),
            "delivery": _invariant(
                "delivery",
                delivery,
                "boosted flows complete at send pacing (the fast lane "
                "bypasses the bottleneck)",
            ),
            "performance": self._statistical_dimension(
                "performance",
                fct_deltas,
                expected_differs=True,
                expected_direction=1,
                detail=(
                    "paired FCT delta (plain - boosted) through the "
                    "bottleneck; the advertised dimension"
                ),
            ),
        }

    def _build_anylink(self, ctx: HarnessContext, persona, recorder, operator_store):
        from ..services.anylink.proxy import STANDARD_PROFILES, AnyLinkProxy

        proxy = ctx.element = AnyLinkProxy(
            ctx.loop, recorder, profiles=STANDARD_PROFILES
        )
        return [proxy], None

    def _judge_anylink(self, trials: _Trials) -> dict[str, DimensionResult]:
        fct_deltas: list[float] = []
        binding: list[str] = []
        for index, probes in enumerate(trials):
            cookied = probes["cookied"]
            bare = probes["bare"]
            if cookied.fct is not None and bare.fct is not None:
                fct_deltas.append(bare.fct - cookied.fct)
            if cookied.profile_packets == 0:
                binding.append(
                    f"trial {index}: cookied flow never bound to a profile"
                )
            if bare.profile_packets:
                binding.append(
                    f"trial {index}: bare flow bound to a profile on "
                    f"{bare.profile_packets} packet(s)"
                )
        return {
            "binding": _invariant(
                "binding",
                binding,
                "profile binding rides cookied flows, and only them",
            ),
            "performance": self._statistical_dimension(
                "performance",
                fct_deltas,
                expected_differs=True,
                expected_direction=-1,
                detail=(
                    "paired FCT delta (bare - cookied); the advertised "
                    "slow lane makes the cookied flow the slow one"
                ),
            ),
        }
