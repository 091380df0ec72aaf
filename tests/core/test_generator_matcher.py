"""Cookie generation + verification tests (Listing 3 of the paper)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.attributes import CookieAttributes
from repro.core.descriptor import CookieDescriptor
from repro.core.errors import (
    DescriptorExpired,
    DescriptorRevoked,
    InvalidSignature,
    ReplayDetected,
    StaleTimestamp,
    UnknownDescriptor,
)
from repro.core.generator import CookieGenerator
from repro.core.matcher import CookieMatcher, ReplayCache
from repro.core.store import DescriptorStore


def _setup(nct=5.0, attributes=None):
    store = DescriptorStore()
    descriptor = store.add(
        CookieDescriptor.create(
            service_data="Boost", attributes=attributes or CookieAttributes()
        )
    )
    matcher = CookieMatcher(store, nct=nct)
    return store, descriptor, matcher


class TestGenerator:
    def test_generates_valid_cookie(self):
        _store, descriptor, matcher = _setup()
        cookie = CookieGenerator(descriptor, clock=lambda: 10.0).generate()
        assert matcher.verify(cookie, now=10.0) is descriptor

    def test_cookies_are_unique(self):
        _store, descriptor, _ = _setup()
        generator = CookieGenerator(descriptor, clock=lambda: 0.0)
        uuids = {generator.generate().uuid for _ in range(100)}
        assert len(uuids) == 100

    def test_timestamp_from_clock(self):
        _store, descriptor, _ = _setup()
        now = [5.0]
        generator = CookieGenerator(descriptor, clock=lambda: now[0])
        assert generator.generate().timestamp == 5.0
        now[0] = 7.5
        assert generator.generate().timestamp == 7.5

    def test_revoked_descriptor_raises(self):
        _store, descriptor, _ = _setup()
        descriptor.revoke()
        with pytest.raises(DescriptorRevoked):
            CookieGenerator(descriptor, clock=lambda: 0.0).generate()

    def test_expired_descriptor_raises(self):
        _store, descriptor, _ = _setup(
            attributes=CookieAttributes(expires_at=10.0)
        )
        generator = CookieGenerator(descriptor, clock=lambda: 20.0)
        with pytest.raises(DescriptorExpired):
            generator.generate()

    def test_usable_reflects_state(self):
        _store, descriptor, _ = _setup()
        generator = CookieGenerator(descriptor, clock=lambda: 0.0)
        assert generator.usable()
        descriptor.revoke()
        assert not generator.usable()

    def test_counts_generated(self):
        _store, descriptor, _ = _setup()
        generator = CookieGenerator(descriptor, clock=lambda: 0.0)
        for _ in range(3):
            generator.generate()
        assert generator.generated_count == 3


class TestVerification:
    def test_unknown_id(self):
        _store, descriptor, matcher = _setup()
        stranger = CookieDescriptor.create()
        cookie = CookieGenerator(stranger, clock=lambda: 0.0).generate()
        with pytest.raises(UnknownDescriptor):
            matcher.verify(cookie, now=0.0)
        assert matcher.stats.unknown_id == 1

    def test_forged_signature(self):
        _store, descriptor, matcher = _setup()
        forged_descriptor = CookieDescriptor(
            cookie_id=descriptor.cookie_id, key=b"attacker-key"
        )
        cookie = CookieGenerator(forged_descriptor, clock=lambda: 0.0).generate()
        with pytest.raises(InvalidSignature):
            matcher.verify(cookie, now=0.0)
        assert matcher.stats.bad_signature == 1

    def test_stale_timestamp(self):
        _store, descriptor, matcher = _setup(nct=5.0)
        cookie = CookieGenerator(descriptor, clock=lambda: 0.0).generate()
        with pytest.raises(StaleTimestamp):
            matcher.verify(cookie, now=6.0)
        assert matcher.stats.stale_timestamp == 1

    def test_future_timestamp_also_stale(self):
        _store, descriptor, matcher = _setup(nct=5.0)
        cookie = CookieGenerator(descriptor, clock=lambda: 100.0).generate()
        with pytest.raises(StaleTimestamp):
            matcher.verify(cookie, now=0.0)

    def test_within_nct_accepted(self):
        _store, descriptor, matcher = _setup(nct=5.0)
        cookie = CookieGenerator(descriptor, clock=lambda: 0.0).generate()
        assert matcher.verify(cookie, now=4.9) is descriptor

    def test_replay_rejected(self):
        _store, descriptor, matcher = _setup()
        cookie = CookieGenerator(descriptor, clock=lambda: 0.0).generate()
        matcher.verify(cookie, now=0.0)
        with pytest.raises(ReplayDetected):
            matcher.verify(cookie, now=0.5)
        assert matcher.stats.replayed == 1

    def test_revoked_rejected(self):
        _store, descriptor, matcher = _setup()
        cookie = CookieGenerator(descriptor, clock=lambda: 0.0).generate()
        descriptor.revoke()
        with pytest.raises(DescriptorRevoked):
            matcher.verify(cookie, now=0.0)

    def test_expired_rejected(self):
        _store, descriptor, matcher = _setup(
            attributes=CookieAttributes(expires_at=1.0)
        )
        cookie = CookieGenerator(descriptor, clock=lambda: 0.5).generate()
        with pytest.raises(DescriptorExpired):
            matcher.verify(cookie, now=2.0)

    def test_match_returns_none_instead_of_raising(self):
        _store, _descriptor, matcher = _setup()
        stranger = CookieGenerator(
            CookieDescriptor.create(), clock=lambda: 0.0
        ).generate()
        assert matcher.match(stranger, now=0.0) is None

    def test_stats_totals(self):
        _store, descriptor, matcher = _setup()
        generator = CookieGenerator(descriptor, clock=lambda: 0.0)
        matcher.match(generator.generate(), now=0.0)
        cookie = generator.generate()
        matcher.match(cookie, now=0.0)
        matcher.match(cookie, now=0.0)  # replay
        assert matcher.stats.accepted == 2
        assert matcher.stats.rejected == 1
        assert matcher.stats.total == 3
        assert matcher.stats.as_dict()["replayed"] == 1

    def test_bad_nct_rejected(self):
        with pytest.raises(ValueError):
            CookieMatcher(DescriptorStore(), nct=0)

    @given(times=st.lists(st.floats(0, 1000, allow_nan=False), min_size=1, max_size=30))
    def test_no_cookie_ever_accepted_twice(self, times):
        """Replay safety holds under arbitrary verification orderings."""
        _store, descriptor, matcher = _setup(nct=2000.0)
        cookie = CookieGenerator(descriptor, clock=lambda: 0.0).generate()
        accepted = sum(
            1 for t in sorted(times) if matcher.match(cookie, now=t) is not None
        )
        assert accepted <= 1


class TestReplayCache:
    def test_remembers_within_window(self):
        cache = ReplayCache(window=5.0)
        assert not cache.check_and_record(b"u" * 16, timestamp=0.0)
        assert cache.check_and_record(b"u" * 16, timestamp=4.0)

    def test_forgets_after_two_windows(self):
        cache = ReplayCache(window=5.0)
        cache.check_and_record(b"u" * 16, timestamp=0.0)
        assert not cache.check_and_record(b"u" * 16, timestamp=11.0)

    def test_memory_bounded_by_rotation(self):
        cache = ReplayCache(window=1.0)
        for i in range(10_000):
            cache.check_and_record(i.to_bytes(16, "big"), timestamp=i * 0.01)
        # 100 inserts per window, two generations retained.
        assert cache.size <= 250

    def test_check_and_record_atomicity(self):
        cache = ReplayCache(window=5.0)
        assert not cache.check_and_record(b"a" * 16, timestamp=0.0)
        assert cache.check_and_record(b"a" * 16, timestamp=0.1)

    def test_idle_fast_forward(self):
        cache = ReplayCache(window=1.0)
        cache.check_and_record(b"a" * 16, timestamp=0.0)
        assert not cache.check_and_record(b"a" * 16, timestamp=100.0)
        assert cache.size <= 1

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            ReplayCache(window=0)
