"""ReplayCache rotation edge cases (§4.2's bounded replay state).

The cache covers at least one window with exactly two generation sets,
aged by the timestamps it is handed.  These tests pin the rotation's
boundary behaviour: what happens exactly *at* a window edge, across
multi-window gaps between timestamps, and on the first call of a
verifier whose timestamps are wall time (large ``timestamp``).
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.core.matcher import NETWORK_COHERENCY_TIME, ReplayCache


def _uuid(n: int) -> bytes:
    return n.to_bytes(16, "big")


@pytest.mark.contract
class TestExactWindowBoundaries:
    def test_still_seen_exactly_one_window_later(self):
        """At timestamp == record_time + window the uuid has moved to the
        previous generation but must still be remembered (coverage is
        *at least* NCT, via the two-generation overlap)."""
        cache = ReplayCache(window=5.0)
        assert not cache.check_and_record(_uuid(1), 0.0)
        assert cache.check_and_record(_uuid(1), 5.0)
        assert cache.rotations == 1

    def test_forgotten_exactly_two_windows_later(self):
        cache = ReplayCache(window=5.0)
        cache.check_and_record(_uuid(1), 0.0)
        assert not cache.check_and_record(_uuid(1), 10.0)

    def test_epsilon_before_boundary_no_rotation(self):
        cache = ReplayCache(window=5.0)
        cache.check_and_record(_uuid(1), 0.0)
        assert cache.check_and_record(_uuid(1), 4.999999)
        assert cache.rotations == 0

    def test_boundary_rotation_is_single(self):
        """timestamp == window rotates exactly once, not zero and not twice."""
        cache = ReplayCache(window=5.0)
        cache.check_and_record(_uuid(1), 0.0)
        cache.check_and_record(_uuid(2), 5.0)
        assert cache.rotations == 1
        # uuid(1) is in the previous generation, uuid(2) in the current.
        assert cache.check_and_record(_uuid(1), 5.0)
        assert cache.check_and_record(_uuid(2), 5.0)

    def test_consecutive_windows_rotate_incrementally(self):
        cache = ReplayCache(window=1.0)
        for t in range(6):
            cache.check_and_record(_uuid(t), float(t))
        assert cache.rotations == 5
        # Only the last two generations are held.
        assert cache.size == 2
        assert cache.check_and_record(_uuid(4), 5.0)
        assert not cache.check_and_record(_uuid(3), 5.0)


@pytest.mark.contract
class TestMultiWindowIdleFastForward:
    def test_idle_gap_forgets_everything(self):
        cache = ReplayCache(window=5.0)
        cache.check_and_record(_uuid(1), 0.0)
        cache.check_and_record(_uuid(2), 1.0)
        assert not cache.check_and_record(_uuid(3), 1000.0)
        assert cache.size == 1  # uuid(3) alone
        assert not cache.check_and_record(_uuid(1), 1000.0)
        assert not cache.check_and_record(_uuid(2), 1000.0)

    def test_idle_fast_forward_is_constant_time(self):
        """A gap of a million windows must not loop a million times: the
        cache enters the timestamp's generation in one step."""
        cache = ReplayCache(window=1.0)
        cache.check_and_record(_uuid(1), 0.0)
        cache.check_and_record(_uuid(2), 1_000_000.0)
        # One rotation, not 1e6.
        assert cache.rotations == 1

    def test_normal_cadence_resumes_after_idle_reset(self):
        cache = ReplayCache(window=5.0)
        cache.check_and_record(_uuid(1), 0.0)
        cache.check_and_record(_uuid(2), 100.0)  # enters generation 20
        assert cache.check_and_record(_uuid(2), 104.9)
        assert cache.check_and_record(_uuid(2), 105.0)  # previous generation
        assert not cache.check_and_record(_uuid(2), 110.0)

    def test_fractional_idle_gap_keeps_previous_generation(self):
        """A gap of between one and two windows enters the adjacent
        generation: the old current set must survive as previous."""
        cache = ReplayCache(window=5.0)
        cache.check_and_record(_uuid(1), 0.0)
        cache.check_and_record(_uuid(2), 8.0)  # 1.6 windows later
        assert cache.check_and_record(_uuid(1), 8.0)


@pytest.mark.contract
class TestLargeWallClockFirstCall:
    def test_first_record_with_epoch_now(self):
        """A verifier running on wall time hands the cache a timestamp
        around 1.7e9 on its very first call; construction put the cache
        in generation 0, so the first rotation must jump there instead
        of looping ~3e8 times."""
        cache = ReplayCache(window=5.0)
        wall = 1_700_000_000.0
        assert not cache.check_and_record(_uuid(1), wall)
        assert cache.rotations == 1
        assert cache.check_and_record(_uuid(1), wall + 1.0)
        assert cache.check_and_record(_uuid(1), wall + 2.0)

    def test_replay_protection_works_on_wall_clock(self):
        cache = ReplayCache(window=5.0)
        wall = 1_700_000_000.0
        assert not cache.check_and_record(_uuid(7), wall)
        assert cache.check_and_record(_uuid(7), wall + 4.0)
        assert not cache.check_and_record(_uuid(7), wall + 14.0)


@pytest.mark.contract
class TestFloor:
    """The floor trails the newest generation by one window, and every
    key whose timestamp is at or above it is still held: the guarantee
    a verifier's stale rung leans on."""

    def test_floor_trails_the_generation_by_one_window(self):
        cache = ReplayCache(window=10.0)
        assert (cache.generation, cache.floor) == (0, -10.0)
        cache.check_and_record(_uuid(1), 1004.0)
        assert (cache.generation, cache.floor) == (100, 990.0)

    def test_an_older_timestamp_does_not_move_the_cache_back(self):
        cache = ReplayCache(window=10.0)
        cache.check_and_record(_uuid(1), 1100.0)
        assert not cache.check_and_record(_uuid(2), 1004.0)
        assert (cache.generation, cache.floor, cache.rotations) == (110, 1090.0, 1)

    def test_enter_moves_up_only(self):
        cache = ReplayCache(window=10.0)
        cache.check_and_record(_uuid(1), 45.0)
        cache.enter(5)
        cache.enter(3)
        assert (cache.generation, cache.floor, cache.rotations) == (5, 40.0, 2)
        assert cache.check_and_record(_uuid(1), 45.0)  # adjacent: kept
        cache.enter(7)
        assert not cache.check_and_record(_uuid(1), 45.0)

    @given(
        timestamps=st.lists(
            st.floats(0.0, 100.0, allow_nan=False), min_size=1, max_size=40
        )
    )
    def test_every_key_at_or_above_the_floor_is_held(self, timestamps):
        """In any order, not just a rising one."""
        cache = ReplayCache(window=5.0)
        for tag, timestamp in enumerate(timestamps):
            cache.check_and_record(_uuid(tag), timestamp)
        generation = cache.generation
        for tag, timestamp in enumerate(timestamps):
            if timestamp >= cache.floor:
                assert cache.check_and_record(_uuid(tag), timestamp)
        assert cache.generation == generation


class TestTelemetryLevels:
    def test_size_tracks_both_generations(self):
        cache = ReplayCache(window=5.0)
        cache.check_and_record(_uuid(1), 0.0)
        cache.check_and_record(_uuid(2), 5.0)
        assert cache.size == 2
        cache.check_and_record(_uuid(3), 10.0)
        assert cache.size == 2  # uuid(1)'s generation aged out

    def test_rotation_counter_monotonic(self):
        cache = ReplayCache(window=1.0)
        last = 0
        for t in (0.0, 0.5, 1.0, 2.5, 50.0, 50.2, 51.0):
            cache.check_and_record(_uuid(0), t)
            assert cache.rotations >= last
            last = cache.rotations
