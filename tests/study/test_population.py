"""Synthetic subscriber population (PR 8): seeded, skewed, Poisson."""

import hashlib
import sys
from collections import Counter

import pytest

from repro.study.population import (
    DEFAULT_EVENT_MIX,
    SubscriberPopulation,
)


class TestPopulation:
    def test_deterministic_per_seed(self):
        a = SubscriberPopulation(2_000, seed=7)
        b = SubscriberPopulation(2_000, seed=7)
        c = SubscriberPopulation(2_000, seed=8)
        assert a.take_events(200) == b.take_events(200)
        assert a._preference == b._preference
        assert c._preference != a._preference

    def test_preferences_follow_catalog_heavy_tail(self):
        population = SubscriberPopulation(5_000)
        counts = Counter(population.service_names[i] for i in population._preference)
        assert sum(counts.values()) == 5_000
        head = max(counts.values())
        # The Fig. 2 skew: the head app dwarfs a uniform share.
        assert head > 5 * (5_000 / len(population.service_names))

    def test_event_stream_shape(self):
        population = SubscriberPopulation(10_000)
        events = population.take_events(3_000, rate=1_000.0)
        assert len(events) == 3_000
        times = [event.time for event in events]
        assert times == sorted(times)
        kinds = [event.kind for event in events]
        for kind, share in zip(("acquire", "renew", "revoke"),
                               DEFAULT_EVENT_MIX):
            observed = kinds.count(kind) / len(kinds)
            assert abs(observed - share) < 0.05, (kind, observed)
        for event in events:
            assert 0 <= event.subscriber < population.size
            assert event.service == population.service_of(event.subscriber)

    def test_activity_is_zipf_skewed(self):
        population = SubscriberPopulation(50_000)
        events = population.take_events(2_000)
        subscribers = [event.subscriber for event in events]
        # The head of the Zipf curve dominates the schedule.
        top_decile = population.size // 10
        head_share = sum(
            1 for s in subscribers if s < top_decile
        ) / len(subscribers)
        assert head_share > 0.5


#: SHA-256 over ``bytes(_preference)`` then each of ``take_events(512)``
#: as ``time!r:kind:subscriber:service;``, recorded before the
#: population stopped keeping a float per subscriber.
GOLDEN = {
    (1_000, 7): "802eec0d64cd9157e21df46cfef157945917d5164a8c86f974e07fbef266a2e0",
    (1_000, 20160822): "a9d891713b5a392da5f8a8a6f787554cf63f875905ca33c55583346e04071b1e",
    (100_003, 7): "7c294a6c5f2ad608b00ee8fa29032421ef0102f5b6b8758869d76452241f8242",
    (100_003, 20160822): "2da7c9fbb936d6ff3d952bddfca4247995c7dc92e1b2eed518d515a561832341",
}


@pytest.mark.contract
@pytest.mark.parametrize("size, seed", sorted(GOLDEN))
def test_schedule_is_the_recorded_one(size, seed):
    population = SubscriberPopulation(size, seed=seed)
    digest = hashlib.sha256(bytes(population._preference))
    for event in population.take_events(512):
        digest.update(
            f"{event.time!r}:{event.kind}:{event.subscriber}:{event.service};".encode()
        )
    assert digest.hexdigest() == GOLDEN[size, seed]


@pytest.mark.contract
def test_holds_under_three_bytes_per_subscriber():
    population = SubscriberPopulation(50_000)
    held = sum(sys.getsizeof(value) for value in vars(population).values())
    assert held < 3 * population.size
