"""The Boost daemon on the home access point (§5.2).

"We implement a python-based daemon on the WiFi router which sniffs
traffic, looks up cookies and enforces the desired QoS service.  Our
daemon sniffs the first 3 incoming packets for each flow; if it detects a
cookie, it tries to match the cookie against a known descriptor and
verifies its integrity.  If this is successful, it adds this and the
reverse flow to the fast lane."

Enforcement mirrors the prototype: boosted flows are stamped into the
fast-lane class (the WMM high-priority queue analogue) and, while any
boost is active, all other traffic is throttled.  Conflicts between
household members resolve *last one wins* — only the most recently bound
boost descriptor's flows ride the fast lane.
"""

from __future__ import annotations

from ...core import CookieDescriptor, CookieMatcher, DescriptorStore
from ...core.switch import CookieSwitch
from ...core.transport import TransportRegistry
from ...netsim.events import EventLoop, ScheduledEvent
from ...netsim.packet import Packet
from ...netsim.topology import HomeNetwork
from .qos import FAST_LANE_CLASS, CapacityEstimator, ThrottlePlan, WMM_FAST_LANE_CATEGORY
from .server import BOOST_EVENT_LIFETIME

__all__ = ["BoostDaemon", "DEGRADED_FAIL_OPEN", "DEGRADED_FAIL_CLOSED"]

#: While the cookie server is unreachable, keep the current fast-lane
#: state frozen (expiry suspended) — households keep what they paid for.
DEGRADED_FAIL_OPEN = "fail-open"
#: While the cookie server is unreachable, tear the fast lane down and
#: refuse new activations — nobody gets boosted on stale authority.
DEGRADED_FAIL_CLOSED = "fail-closed"


class BoostDaemon:
    """AP-side enforcement: cookie matching + fast lane + throttle.

    Splice :attr:`switch` into the home network's WAN ingress path (pass
    it in ``HomeNetwork(middleboxes=[daemon.switch])``), then call
    :meth:`attach` so the daemon can drive the throttle.
    """

    def __init__(
        self,
        loop: EventLoop,
        store: DescriptorStore,
        registry: TransportRegistry | None = None,
        boost_lifetime: float = BOOST_EVENT_LIFETIME,
        throttle_plan: ThrottlePlan | None = None,
        capacity_estimator: CapacityEstimator | None = None,
        sniff_packets: int = 3,
        verifier: "CookieMatcher | None" = None,
        degraded_mode: str = DEGRADED_FAIL_CLOSED,
    ) -> None:
        if degraded_mode not in (DEGRADED_FAIL_OPEN, DEGRADED_FAIL_CLOSED):
            raise ValueError(f"unknown degraded mode {degraded_mode!r}")
        self.loop = loop
        self.store = store
        # ``verifier`` lets a deployment swap the embedded single-core
        # matcher for a verifier pool over the same store (e.g.
        # ShardedVerifierPool) — anything exposing ``match`` and
        # ``register_telemetry`` drops in.
        self.matcher = verifier if verifier is not None else CookieMatcher(store)
        self.switch = CookieSwitch(
            self.matcher,
            loop=loop,
            registry=registry,
            applier=self._apply_boost,
            sniff_packets=sniff_packets,
            name="boost-daemon",
        )
        self.boost_lifetime = boost_lifetime
        self.throttle_plan = throttle_plan or ThrottlePlan()
        self.capacity_estimator = capacity_estimator
        self.home: HomeNetwork | None = None
        self.active_descriptor_id: int | None = None
        self._expiry_event: ScheduledEvent | None = None
        self.boost_events = 0
        self.superseded_events = 0
        #: Degraded-mode machinery: when the out-of-band path to the
        #: cookie server is down (reported via :meth:`set_degraded` or a
        #: breaker attached with :meth:`attach_breaker`), ``degraded_mode``
        #: decides what happens to the household fast lane.
        self.degraded_mode = degraded_mode
        self.degraded = False
        self.degraded_entered = 0
        self.degraded_activations_blocked = 0
        self._breaker = None

    COUNTERS = (
        "boost_events", "superseded_events", "degraded_entered",
        "degraded_activations_blocked",
    )
    GAUGES = ("boost_active", "degraded")

    def register_telemetry(self, registry, prefix: str = "boost") -> None:
        """Export daemon state (boost events, throttle status) plus the
        embedded switch's and matcher's counters into a
        :class:`~repro.telemetry.MetricsRegistry`."""
        registry.register(
            self,
            prefix,
            self.COUNTERS,
            self.GAUGES,
            nested=[("switch", self.switch), ("matcher", self.matcher)],
        )

    def attach(self, home: HomeNetwork) -> None:
        """Bind to the home network whose throttle this daemon drives."""
        self.home = home
        if self.capacity_estimator is None:
            self.capacity_estimator = CapacityEstimator(
                self.loop, true_capacity=lambda: home.downlink.rate_bps
            )

    # ------------------------------------------------------------------
    # Degraded mode (cookie server unreachable)
    # ------------------------------------------------------------------
    def attach_breaker(self, breaker) -> None:
        """Follow a :class:`~repro.core.resilience.CircuitBreaker` (the
        agent's channel breaker): whenever the breaker is open the daemon
        runs degraded, re-evaluated on every packet that would touch the
        fast lane."""
        self._breaker = breaker

    def set_degraded(self, degraded: bool) -> None:
        """Enter or leave degraded operation (idempotent).

        Verification itself still runs — the descriptor store is local.
        What changes is the household fast-lane state: fail-closed tears
        it down and blocks new activations; fail-open freezes the current
        boost (its expiry timer is suspended, because the daemon cannot
        renew authority while the server is down) and re-arms a fresh
        lifetime on recovery.
        """
        if degraded == self.degraded:
            return
        self.degraded = degraded
        if degraded:
            self.degraded_entered += 1
            if self.degraded_mode == DEGRADED_FAIL_CLOSED:
                self.cancel_boost()
            elif self._expiry_event is not None:
                self._expiry_event.cancel()
                self._expiry_event = None
        elif (
            self.active_descriptor_id is not None
            and self._expiry_event is None
        ):
            # Fail-open recovery: the frozen boost gets one fresh
            # lifetime from the moment authority is restored.
            self._expiry_event = self.loop.schedule(
                self.boost_lifetime,
                lambda cid=self.active_descriptor_id: self._expire(cid),
            )

    def poll_degraded(self) -> None:
        """Re-evaluate degraded state from the attached breaker.

        Called automatically on every fast-lane application; deployments
        with quiet data paths should also schedule it on a timer so an
        outage is noticed without waiting for the next valid cookie."""
        if self._breaker is not None:
            self.set_degraded(self._breaker.state == self._breaker.OPEN)

    # ------------------------------------------------------------------
    # Service application (called by the cookie switch per packet)
    # ------------------------------------------------------------------
    def _apply_boost(self, descriptor: CookieDescriptor, packet: Packet) -> None:
        self.poll_degraded()
        if self.degraded and self.degraded_mode == DEGRADED_FAIL_CLOSED:
            self.degraded_activations_blocked += 1
            return
        if self.active_descriptor_id != descriptor.cookie_id:
            if self.degraded:
                # Fail-open freezes the *current* state; it does not
                # start or hand over boosts on unrenewable authority.
                self.degraded_activations_blocked += 1
                return
            self._activate(descriptor)
        if descriptor.cookie_id == self.active_descriptor_id:
            packet.meta["qos_class"] = FAST_LANE_CLASS
            packet.meta["qos_class_name"] = WMM_FAST_LANE_CATEGORY
            packet.meta["service"] = descriptor.service_data

    def _activate(self, descriptor: CookieDescriptor) -> None:
        """Start (or hand over) the household's boost event.

        Last one wins: a newer descriptor supersedes the current one; "we
        expect users to resolve conflicts at a human level, if this is not
        enough".
        """
        if self.active_descriptor_id is not None:
            self.superseded_events += 1
        self.active_descriptor_id = descriptor.cookie_id
        self.boost_events += 1
        if self._expiry_event is not None:
            self._expiry_event.cancel()
        self._expiry_event = self.loop.schedule(
            self.boost_lifetime,
            lambda cid=descriptor.cookie_id: self._expire(cid),
        )
        # Homes without a throttle stage (e.g. WMM-only enforcement)
        # still get the fast lane; there is just nothing to shape.
        if self.home is not None and self.home.throttle is not None:
            rate = self._current_throttle_rate()
            self.home.activate_throttle(rate)

    def _expire(self, cookie_id: int) -> None:
        if self.active_descriptor_id != cookie_id:
            return  # superseded in the meantime
        self.active_descriptor_id = None
        self._expiry_event = None
        if self.home is not None:
            self.home.deactivate_throttle()

    def cancel_boost(self) -> None:
        """Explicitly end the current boost event (user pressed stop)."""
        if self.active_descriptor_id is None:
            return
        if self._expiry_event is not None:
            self._expiry_event.cancel()
            self._expiry_event = None
        self.active_descriptor_id = None
        if self.home is not None:
            self.home.deactivate_throttle()

    def _current_throttle_rate(self) -> float:
        assert self.home is not None
        if self.capacity_estimator is not None:
            capacity = self.capacity_estimator.probe_once()
        else:
            capacity = self.home.downlink.rate_bps
        return self.throttle_plan.throttle_rate(capacity)

    @property
    def boost_active(self) -> bool:
        return self.active_descriptor_id is not None
