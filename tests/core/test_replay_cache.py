"""ReplayCache rotation edge cases (§4.2's bounded replay state).

The cache covers at least one NCT window with exactly two generation
sets.  These tests pin the rotation machinery's boundary behaviour: what
happens exactly *at* a window edge, across multi-window idle gaps, and on
the first call of a process whose clock is wall time (large ``now``).
"""

from repro.core.matcher import NETWORK_COHERENCY_TIME, ReplayCache


def _uuid(n: int) -> bytes:
    return n.to_bytes(16, "big")


class TestExactWindowBoundaries:
    def test_still_seen_exactly_one_window_later(self):
        """At now == record_time + window the uuid has moved to the
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
        """now == window rotates exactly once, not zero and not twice."""
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
        assert cache.idle_resets == 0
        # Only the last two generations are held.
        assert cache.size == 2
        assert cache.check_and_record(_uuid(4), 5.0)
        assert not cache.check_and_record(_uuid(3), 5.0)


class TestMultiWindowIdleFastForward:
    def test_idle_gap_forgets_everything(self):
        cache = ReplayCache(window=5.0)
        cache.check_and_record(_uuid(1), 0.0)
        cache.check_and_record(_uuid(2), 1.0)
        assert not cache.check_and_record(_uuid(3), 1000.0)
        assert cache.size == 1  # uuid(3) alone
        assert cache.idle_resets == 1
        assert not cache.check_and_record(_uuid(1), 1000.0)
        assert not cache.check_and_record(_uuid(2), 1000.0)

    def test_idle_fast_forward_is_constant_time(self):
        """A gap of a million windows must not loop a million times; the
        fast-forward snaps the generation start to ``now`` in one step."""
        cache = ReplayCache(window=1.0)
        cache.check_and_record(_uuid(1), 0.0)
        cache.check_and_record(_uuid(2), 1_000_000.0)
        # One boundary rotation plus one fast-forward reset — not 1e6.
        assert cache.rotations == 1
        assert cache.idle_resets == 1
        assert cache.generation_age == 1_000_000.0

    def test_normal_cadence_resumes_after_idle_reset(self):
        cache = ReplayCache(window=5.0)
        cache.check_and_record(_uuid(1), 0.0)
        cache.check_and_record(_uuid(2), 100.0)  # idle reset; start snaps to 100
        assert cache.check_and_record(_uuid(2), 104.9)
        assert cache.check_and_record(_uuid(2), 105.0)  # previous generation
        assert not cache.check_and_record(_uuid(2), 110.0)

    def test_fractional_idle_gap_keeps_previous_generation(self):
        """A gap of between one and two windows rotates without the
        fast-forward: the old current set must survive as previous."""
        cache = ReplayCache(window=5.0)
        cache.check_and_record(_uuid(1), 0.0)
        cache.check_and_record(_uuid(2), 8.0)  # 1.6 windows later
        assert cache.idle_resets == 0
        assert cache.check_and_record(_uuid(1), 8.0)


class TestLargeWallClockFirstCall:
    def test_first_record_with_epoch_now(self):
        """A verifier running on wall time hands the cache ``now`` around
        1.7e9 on its very first call; construction pinned the generation
        start at 0.0, so the first rotation must fast-forward instead of
        looping ~3e8 times."""
        cache = ReplayCache(window=5.0)
        wall = 1_700_000_000.0
        assert not cache.check_and_record(_uuid(1), wall)
        assert cache.rotations == 1
        assert cache.idle_resets == 1
        assert cache.generation_age == wall
        assert cache.check_and_record(_uuid(1), wall + 1.0)
        assert cache.check_and_record(_uuid(1), wall + 2.0)

    def test_replay_protection_works_on_wall_clock(self):
        cache = ReplayCache(window=5.0)
        wall = 1_700_000_000.0
        assert not cache.check_and_record(_uuid(7), wall)
        assert cache.check_and_record(_uuid(7), wall + 4.0)
        assert not cache.check_and_record(_uuid(7), wall + 14.0)


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
