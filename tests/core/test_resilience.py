"""Resilience layer: retry schedules, breaker state machine, channel
semantics, and the degraded behaviours of the components that use them
(agent renewal grace, transport-failure diagnosis, middlebox fail-safe).
"""

import pytest

from repro.core.client import UserAgent
from repro.core.descriptor import CookieDescriptor
from repro.core.errors import AcquisitionDenied, ChannelUnavailable
from repro.core.generator import CookieGenerator
from repro.core.matcher import CookieMatcher
from repro.core.resilience import (
    ChannelStats,
    CircuitBreaker,
    ResilientChannel,
    RetryPolicy,
)
from repro.core.server import CookieServer, ServiceOffering
from repro.core.store import DescriptorStore
from repro.netsim.packet import make_tcp_packet, make_udp_packet
from repro.services.zerorate import ZeroRatingMiddlebox
from repro.telemetry import MetricsRegistry


class TestRetryPolicy:
    def test_schedule_is_deterministic(self):
        policy = RetryPolicy(max_attempts=6, seed=42)
        assert list(policy.delays()) == list(policy.delays())
        assert list(policy.delays()) == list(
            RetryPolicy(max_attempts=6, seed=42).delays()
        )

    def test_yields_attempts_minus_one_sleeps(self):
        assert len(list(RetryPolicy(max_attempts=4).delays())) == 3
        assert list(RetryPolicy(max_attempts=1).delays()) == []

    def test_exponential_growth_capped(self):
        policy = RetryPolicy(
            max_attempts=8, base_delay=1.0, multiplier=2.0,
            max_delay=4.0, jitter=0.0,
        )
        assert list(policy.delays()) == [1.0, 2.0, 4.0, 4.0, 4.0, 4.0, 4.0]

    def test_jitter_stretches_but_respects_cap(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay=1.0, max_delay=3.0, jitter=0.5
        )
        for base, jittered in zip([1.0, 2.0, 3.0, 3.0, 3.0], policy.delays()):
            assert base <= jittered <= min(base * 1.5, 3.0)

    def test_delay_at_repeats_final(self):
        policy = RetryPolicy(
            max_attempts=3, base_delay=1.0, multiplier=2.0, jitter=0.0
        )
        assert policy.delay_at(0) == 1.0
        assert policy.delay_at(1) == 2.0
        assert policy.delay_at(7) == 2.0  # past the end: keep the cap

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)


class TestCircuitBreaker:
    def _breaker(self, now, threshold=3, reset=10.0):
        return CircuitBreaker(
            failure_threshold=threshold, reset_timeout=reset,
            clock=lambda: now[0],
        )

    def test_trips_at_threshold(self):
        now = [0.0]
        breaker = self._breaker(now)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == breaker.CLOSED
        breaker.record_failure()
        assert breaker.state == breaker.OPEN
        assert breaker.opened == 1
        assert not breaker.allow()

    def test_half_open_probe_success_closes(self):
        now = [0.0]
        breaker = self._breaker(now)
        for _ in range(3):
            breaker.record_failure()
        now[0] = 10.0
        assert breaker.state == breaker.HALF_OPEN
        assert breaker.allow()       # the single probe
        assert not breaker.allow()   # second caller rejected
        breaker.record_success()
        assert breaker.state == breaker.CLOSED
        assert breaker.closed_from_half_open == 1

    def test_half_open_probe_failure_reopens(self):
        now = [0.0]
        breaker = self._breaker(now)
        for _ in range(3):
            breaker.record_failure()
        now[0] = 10.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == breaker.OPEN
        assert breaker.opened == 2

    def test_success_resets_failure_count(self):
        now = [0.0]
        breaker = self._breaker(now)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == breaker.CLOSED

    def test_telemetry_gauge_tracks_state(self):
        now = [0.0]
        breaker = self._breaker(now)
        registry = MetricsRegistry()
        breaker.register_telemetry(registry)
        assert registry.snapshot().gauges["breaker.state"] == 0
        for _ in range(3):
            breaker.record_failure()
        assert registry.snapshot().gauges["breaker.state"] == 2
        now[0] = 10.0
        assert registry.snapshot().gauges["breaker.state"] == 1


class _FlakyServer:
    """Raises ``fail_first`` transient errors, then answers."""

    def __init__(self, fail_first: int, error=ConnectionError):
        self.fail_first = fail_first
        self.error = error
        self.calls = 0

    def __call__(self, request):
        self.calls += 1
        if self.calls <= self.fail_first:
            raise self.error("flaky")
        return {"ok": True, "echo": request}


class TestResilientChannel:
    def _channel(self, target, **policy_kw):
        policy_kw.setdefault("max_attempts", 4)
        policy_kw.setdefault("base_delay", 0.0)
        policy_kw.setdefault("jitter", 0.0)
        now = [0.0]
        return ResilientChannel(
            target,
            policy=RetryPolicy(**policy_kw),
            breaker=CircuitBreaker(
                failure_threshold=10, reset_timeout=5.0,
                clock=lambda: now[0],
            ),
            clock=lambda: now[0],
            sleep=None,
        )

    def test_retries_until_success(self):
        server = _FlakyServer(fail_first=2)
        channel = self._channel(server)
        assert channel({"op": "ping"})["ok"] is True
        assert server.calls == 3
        assert channel.stats.retries == 2
        assert channel.stats.successes == 1

    def test_exhaustion_raises_channel_unavailable(self):
        channel = self._channel(_FlakyServer(fail_first=99))
        with pytest.raises(ChannelUnavailable):
            channel({"op": "ping"})
        assert channel.stats.exhausted == 1
        assert channel.stats.attempts == 4

    def test_application_refusal_is_not_retried(self):
        calls = []

        def refusing(request):
            calls.append(request)
            return {"ok": False, "error": "denied"}

        channel = self._channel(refusing)
        assert channel({"op": "acquire"})["ok"] is False
        assert len(calls) == 1  # a reachable "no" is a channel success

    def test_non_transient_errors_propagate(self):
        def broken(request):
            raise KeyError("bug, not weather")

        channel = self._channel(broken)
        with pytest.raises(KeyError):
            channel({"op": "ping"})

    def test_open_breaker_fails_fast(self):
        server = _FlakyServer(fail_first=99)
        now = [0.0]
        channel = ResilientChannel(
            server,
            policy=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
            breaker=CircuitBreaker(
                failure_threshold=2, reset_timeout=5.0, clock=lambda: now[0]
            ),
            clock=lambda: now[0],
            sleep=None,
        )
        with pytest.raises(ChannelUnavailable):
            channel({"op": "ping"})
        calls_before = server.calls
        with pytest.raises(ChannelUnavailable):
            channel({"op": "ping"})
        assert server.calls == calls_before  # breaker shed the call
        assert channel.stats.rejected_open >= 1

    def test_deadline_stops_retrying(self):
        now = [0.0]

        def slow_fail(request):
            now[0] += 3.0
            raise TimeoutError("slow")

        channel = ResilientChannel(
            slow_fail,
            policy=RetryPolicy(
                max_attempts=10, base_delay=1.0, jitter=0.0, deadline=4.0
            ),
            breaker=CircuitBreaker(
                failure_threshold=100, reset_timeout=5.0,
                clock=lambda: now[0],
            ),
            clock=lambda: now[0],
            sleep=None,
        )
        with pytest.raises(ChannelUnavailable):
            channel({"op": "ping"})
        assert channel.stats.attempts < 10

    def test_telemetry_names(self):
        registry = MetricsRegistry()
        channel = self._channel(_FlakyServer(fail_first=0))
        channel.register_telemetry(registry)
        channel({"op": "ping"})
        counters = registry.snapshot().counters
        for name in ChannelStats().as_dict():
            assert f"retry.{name}" in counters
        assert "breaker.opened" in counters


# ----------------------------------------------------------------------
# Agent degradation (renewal grace + transport diagnosis)
# ----------------------------------------------------------------------
class _OutageableServer:
    def __init__(self, clock, lifetime=10.0):
        self.server = CookieServer(clock=clock)
        self.server.offer(
            ServiceOffering(name="svc", lifetime=lifetime,
                            service_data="svc")
        )
        self.down = False

    def __call__(self, request):
        if self.down:
            raise ConnectionError("outage")
        return self.server.handle_request(request)


class TestAgentDegradation:
    def _agent(self, grace=30.0, lifetime=10.0):
        now = [0.0]
        upstream = _OutageableServer(lambda: now[0], lifetime=lifetime)
        agent = UserAgent(
            "alice", clock=lambda: now[0], channel=upstream,
            renewal_grace=grace,
        )
        return now, upstream, agent

    def test_grace_signing_within_window(self):
        now, upstream, agent = self._agent()
        agent.generate_cookie("svc")
        now[0] = 15.0  # expired at 10
        upstream.down = True
        cookie = agent.generate_cookie("svc")  # grace keeps signing
        assert cookie is not None
        assert agent.stats.grace_signings == 1
        assert agent.stats.renewals_failed == 1

    def test_outage_past_grace_raises_channel_unavailable(self):
        now, upstream, agent = self._agent(grace=5.0)
        agent.generate_cookie("svc")
        now[0] = 40.0  # past expiry (10) + grace (5)
        upstream.down = True
        with pytest.raises(ChannelUnavailable):
            agent.generate_cookie("svc")

    def test_revoked_descriptor_renews_when_reachable(self):
        now, upstream, agent = self._agent()
        descriptor = agent.acquire("svc")
        descriptor.revoke()
        fresh = agent.generate_cookie("svc")
        assert fresh.cookie_id != descriptor.cookie_id

    def test_revoked_descriptor_never_graced_during_outage(self):
        now, upstream, agent = self._agent(grace=1000.0)
        agent.acquire("svc").revoke()
        upstream.down = True
        # Revocation is a policy decision, not weather: no grace signing
        # even with a huge grace window — the outage propagates instead.
        with pytest.raises((ChannelUnavailable, ConnectionError)):
            agent.generate_cookie("svc")
        assert agent.stats.grace_signings == 0

    def test_policy_refusal_is_not_an_outage(self):
        now = [0.0]

        def refusing(request):
            return {"ok": False, "error": "payment required"}

        agent = UserAgent("alice", clock=lambda: now[0], channel=refusing,
                          renewal_grace=30.0)
        with pytest.raises(AcquisitionDenied):
            agent.generate_cookie("svc")

    def test_insert_cookie_never_raises_on_outage(self):
        now, upstream, agent = self._agent(grace=0.0)
        upstream.down = True  # no descriptor cached at all
        packet = make_tcp_packet("10.0.0.1", 1, "2.2.2.2", 443,
                                 payload_size=64)
        assert agent.insert_cookie(packet, "svc") is None
        assert agent.stats.insertions_failed == 1
        # Satellite: the failing transport is named in by_transport.
        assert agent.stats.by_transport["channel:failed"] == 1

    def test_no_carrier_fit_records_candidate_transports(self):
        from repro.core.transport import HttpHeaderCarrier, TransportRegistry

        now = [0.0]
        upstream = _OutageableServer(lambda: now[0])
        # An agent whose only transport is HTTP headers, handed a packet
        # with no HTTP content: attach must fail with a named transport.
        agent = UserAgent(
            "alice", clock=lambda: now[0], channel=upstream,
            registry=TransportRegistry([HttpHeaderCarrier()]),
        )
        packet = make_udp_packet("10.0.0.1", 1, "2.2.2.2", 53,
                                 payload_size=64)
        result = agent.insert_cookie(packet, "svc")
        assert result is None
        failed = {
            name for name in agent.stats.by_transport if
            name.endswith(":failed")
        }
        assert failed  # at least one named transport recorded
        assert "channel:failed" not in failed  # server was reachable

    def test_transport_failures_visible_in_telemetry(self):
        now, upstream, agent = self._agent()
        upstream.down = True
        registry = MetricsRegistry()
        agent.register_telemetry(registry)
        packet = make_tcp_packet("10.0.0.1", 1, "2.2.2.2", 443,
                                 payload_size=64)
        agent.insert_cookie(packet, "svc")
        counters = registry.snapshot().counters
        assert counters["agent.by_transport.channel:failed"] == 1
        assert counters["agent.insertions_failed"] == 1


# ----------------------------------------------------------------------
# Middlebox fail-safe: verifier failure ⇒ charged, never free
# ----------------------------------------------------------------------
class _ExplodingMatcher:
    def match(self, cookie, now):
        raise RuntimeError("verifier crashed")


class TestMiddleboxFailSafe:
    def _cookied_packet(self):
        descriptor = CookieDescriptor.create(service_data="svc")
        cookie = CookieGenerator(descriptor, clock=lambda: 1.0).generate()
        packet = make_tcp_packet("10.0.0.1", 40000, "1.2.3.4", 443,
                                 payload_size=100)
        from repro.core.transport import default_registry

        default_registry().attach(packet, cookie)
        return packet

    def test_failure_counter_in_telemetry(self):
        registry = MetricsRegistry()
        box = ZeroRatingMiddlebox(_ExplodingMatcher(), clock=lambda: 1.0)
        box.register_telemetry(registry)
        box.push(self._cookied_packet())
        assert (
            registry.snapshot().counters["middlebox.verifier_failures"] == 1
        )

    def test_healthy_matcher_unaffected(self):
        store = DescriptorStore()
        descriptor = store.add(CookieDescriptor.create(service_data="svc"))
        cookie = CookieGenerator(descriptor, clock=lambda: 1.0).generate()
        packet = make_tcp_packet("10.0.0.1", 40000, "1.2.3.4", 443,
                                 payload_size=100)
        from repro.core.transport import default_registry

        default_registry().attach(packet, cookie)
        box = ZeroRatingMiddlebox(CookieMatcher(store), clock=lambda: 1.0)
        box.push(packet)
        assert box.verifier_failures == 0
        assert box.counters["10.0.0.1"].free_bytes == packet.wire_length


def test_two_channels_one_registry_keep_both_breakers():
    """Two channels on one registry (different ``retry`` prefixes) both
    chain their breaker under ``breaker``: neither may vanish.  Driving
    the FIRST channel's breaker open must show in the snapshot."""
    registry = MetricsRegistry()

    def always_down(request):
        raise ConnectionError("down")

    def channel():
        return ResilientChannel(
            always_down,
            policy=RetryPolicy(max_attempts=1, base_delay=0.0, jitter=0.0),
            breaker=CircuitBreaker(
                failure_threshold=1, reset_timeout=60.0, clock=lambda: 0.0
            ),
            clock=lambda: 0.0,
            sleep=None,
        )

    first, second = channel(), channel()
    first.register_telemetry(registry, prefix="retry.a")
    second.register_telemetry(registry, prefix="retry.b")
    with pytest.raises(ChannelUnavailable):
        first({"op": "ping"})
    snapshot = registry.snapshot()
    assert first.breaker.state == CircuitBreaker.OPEN
    assert snapshot.counters["retry.a.failures"] == 1
    assert snapshot.counters["retry.b.failures"] == 0
    assert snapshot.counters["breaker.opened"] == 1
    assert snapshot.gauges["breaker.state"] == 2  # open + closed, summed
