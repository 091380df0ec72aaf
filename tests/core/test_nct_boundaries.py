"""NCT boundary semantics and the skew × replay-cache interaction.

The freshness predicate is strict — ``abs(ts - now) > NCT`` rejects —
so a timestamp exactly NCT old (or exactly NCT in the *future*, from a
skewed-but-honest host clock) is still acceptable.  That symmetry has a
state consequence pinned here: honest cookies read at one instant span
2×NCT of timestamps, so the replay cache's window must be 2×NCT.  The
cache is aged by the timestamps it checks and the verifier rejects
anything below its floor, so no width lets a replay through; a plain
NCT-wide cache instead lets its floor pass an honest cookie from a
client NCT behind, which then reads stale.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from repro.core.descriptor import CookieDescriptor
from repro.core.generator import CookieGenerator
from repro.core.matcher import (
    NETWORK_COHERENCY_TIME,
    CookieMatcher,
    ReplayCache,
)
from repro.core.store import DescriptorStore

NCT = NETWORK_COHERENCY_TIME
BASE = 1_000.0


def _env():
    store = DescriptorStore()
    descriptor = store.add(
        CookieDescriptor.create(service_data="svc")
    )
    return store, descriptor


def _cookie_at(descriptor, timestamp):
    return CookieGenerator(descriptor, clock=lambda: timestamp).generate()


class TestExactBoundaries:
    def test_exactly_nct_old_accepted(self):
        store, descriptor = _env()
        cookie = _cookie_at(descriptor, BASE - NCT)
        assert CookieMatcher(store).match(cookie, BASE) is not None

    def test_exactly_nct_in_future_accepted(self):
        """A host clock running exactly NCT fast is the permitted
        extreme of clock skew; the predicate is symmetric."""
        store, descriptor = _env()
        cookie = _cookie_at(descriptor, BASE + NCT)
        assert CookieMatcher(store).match(cookie, BASE) is not None

    def test_just_beyond_nct_rejected_both_sides(self):
        store, descriptor = _env()
        matcher = CookieMatcher(store)
        past = _cookie_at(descriptor, BASE - NCT - 1e-3)
        future = _cookie_at(descriptor, BASE + NCT + 1e-3)
        assert matcher.match(past, BASE) is None
        assert matcher.match(future, BASE) is None
        assert matcher.stats.stale_timestamp == 2

    @pytest.mark.contract
    def test_matcher_cache_window_is_twice_nct(self):
        """The retention contract the skew tests below depend on."""
        store, _ = _env()
        matcher = CookieMatcher(store, nct=NCT)
        assert matcher.replay_cache.window == 2 * NCT


@pytest.mark.contract
class TestSkewTimesRotation:
    def test_future_skewed_replay_survives_cache_rotation(self):
        """Regression for the soak-found double spend: generation phase
        ~11.5, cookie stamped +0.9s ahead, verified at 16.0, replayed at
        21.7 while still timestamp-fresh (4.8 s < NCT).  An NCT-wide
        cache double-rotates the uuid away across that gap; the 2×NCT
        window must still remember it."""
        store, descriptor = _env()
        matcher = CookieMatcher(store, nct=5.0)
        # Set the cache's rotation phase with unrelated traffic.
        other = _cookie_at(descriptor, 11.5)
        assert matcher.match(other, 11.5) is not None
        skewed = _cookie_at(descriptor, 16.9)  # +0.9 s host skew
        assert matcher.match(skewed, 16.0) is not None
        assert matcher.match(skewed, 21.7) is None
        assert matcher.stats.replayed == 1

    def test_nct_wide_cache_exhibits_the_hole(self):
        """Documents *why* 2×NCT, for liveness rather than safety: once
        an explicitly NCT-wide cache has checked a cookie from a client
        NCT ahead, its floor passes an honest cookie from a client NCT
        behind, read at the same instant, and rejects it as stale.  The
        matcher's own 2×NCT cache accepts both.  If this test ever
        fails, the aging changed and the matcher's 2×NCT choice should
        be revisited."""
        store, descriptor = _env()
        now = 1_002.0
        narrow = CookieMatcher(
            store, nct=5.0, replay_cache=ReplayCache(window=5.0)
        )
        wide = CookieMatcher(store, nct=5.0)
        for matcher in (narrow, wide):
            ahead = _cookie_at(descriptor, now + 5.0)  # NCT-wide floor: 1000
            assert matcher.match(ahead, now) is not None
        behind = _cookie_at(descriptor, now - 5.0)
        assert narrow.match(behind, now) is None  # the hole
        assert narrow.stats.stale_timestamp == 1
        assert wide.match(behind, now) is not None

    @settings(max_examples=120, deadline=None)
    @given(
        skew=st.floats(-NCT, NCT, allow_nan=False),
        first_lag=st.floats(0.0, NCT, allow_nan=False),
        replay_gap=st.floats(0.0, 2 * NCT, allow_nan=False),
        drive=st.lists(
            st.floats(0.0, 2 * NCT, allow_nan=False), max_size=6
        ),
    )
    def test_replay_never_granted_while_fresh(
        self, skew, first_lag, replay_gap, drive
    ):
        """For any host skew within ±NCT, any first-spend time, any
        replay time while the cookie is still fresh, and any rotation
        pattern induced by interleaved traffic: the second spend is
        rejected."""
        store, descriptor = _env()
        matcher = CookieMatcher(store)
        mint = BASE + skew
        first_now = BASE + first_lag
        assume(abs(mint - first_now) <= NCT)
        cookie = _cookie_at(descriptor, mint)
        assert matcher.match(cookie, first_now) is not None

        replay_now = first_now + replay_gap
        assume(abs(mint - replay_now) <= NCT)
        # Interleaved traffic between the two spends drives rotations.
        for offset in sorted(drive):
            t = first_now + min(offset, replay_gap)
            filler = _cookie_at(descriptor, t)
            matcher.match(filler, t)

        assert matcher.match(cookie, replay_now) is None

    @settings(max_examples=80, deadline=None)
    @given(
        skew=st.floats(-3 * NCT, 3 * NCT, allow_nan=False),
    )
    def test_strict_predicate_over_the_skew_range(self, skew):
        """Acceptance is exactly ``abs(skew) <= NCT`` for a cookie
        verified the instant it was minted on a skewed clock."""
        store, descriptor = _env()
        matcher = CookieMatcher(store)
        cookie = _cookie_at(descriptor, BASE + skew)
        verdict = matcher.match(cookie, BASE)
        if abs(skew) <= NCT:
            assert verdict is not None
        else:
            assert verdict is None
            assert matcher.stats.stale_timestamp == 1
