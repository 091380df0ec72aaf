"""Synthetic subscriber populations for control-plane load (PR 8).

Scales the study's calibrated samplers from survey size (161 homes,
1000 respondents) to operator size (a million subscribers), producing
the descriptor-lifecycle churn the sharded control plane is benchmarked
under:

* Each subscriber's zero-rated app is drawn from
  :class:`~repro.study.preferences.AppPreferenceSampler`'s weighted
  catalog — the Fig. 2 heavy tail, so offerings see realistic skew.
* Subscriber *activity* is Zipf-distributed (exponent
  ``activity_exponent``): a small head of subscribers churns
  constantly, the tail barely at all — the EU zero-rating study's
  constant-policy-churn picture.
* Op arrivals form a Poisson process (exponential inter-arrivals) at a
  configurable rate, which is exactly what an open-loop load generator
  should replay: arrivals do not slow down because the server did.

Everything is seeded and deterministic.  A population stores one small
int per subscriber (its preferred service, an unsigned short) plus one
float per :data:`ZIPF_BLOCK` subscribers (the Zipf activity curve's
running sum at each block's end): 2.25 B a subscriber, and a
million-subscriber population builds in well under a second.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, islice, repeat
from typing import Iterator

from .appstore import AppCatalog
from .preferences import AppPreferenceSampler

__all__ = ["ChurnEvent", "SubscriberPopulation", "DEFAULT_EVENT_MIX"]

#: acquire / renew / revoke shares of the churn stream.
DEFAULT_EVENT_MIX = (0.70, 0.20, 0.10)
#: Subscribers per stored Zipf mark; a draw recomputes one block.
ZIPF_BLOCK = 32


@dataclass(frozen=True)
class ChurnEvent:
    """One descriptor-lifecycle intent in the open-loop schedule.

    ``renew``/``revoke`` name the *subscriber*, not a cookie id — the
    load generator resolves them against whatever descriptor that
    subscriber holds at replay time (a schedule cannot know ids the
    server has not minted yet).
    """

    time: float
    kind: str  # "acquire" | "renew" | "revoke"
    subscriber: int
    service: str


class SubscriberPopulation:
    """``size`` subscribers with app preferences and Zipf activity."""

    def __init__(
        self,
        size: int,
        seed: int = 20160822,
        catalog: AppCatalog | None = None,
        activity_exponent: float = 1.1,
    ) -> None:
        if size < 1:
            raise ValueError("population size must be >= 1")
        self.size = size
        self.seed = seed
        self.rng = random.Random(seed)
        sampler = AppPreferenceSampler(catalog=catalog, seed=seed)
        self.service_names: list[str] = [
            app.name for app in sampler.catalog.apps
        ]
        index_of = {name: i for i, name in enumerate(self.service_names)}
        codes = [index_of[name] for name in self.service_names]
        # One unsigned short per subscriber: the preferred service.
        self._preference = array(
            "H", map(codes.__getitem__, sampler.draw_indices(size))
        )
        # Zipf activity: the running sum of rank ** -s is kept at every
        # block boundary only (mark k: ranks 1 .. k * ZIPF_BLOCK), and
        # the last mark is the curve's total.
        self._exponent = -activity_exponent
        sums = accumulate(
            map(pow, range(1, size + 1), repeat(self._exponent)), initial=0.0
        )
        self._marks = array("d", islice(sums, 0, None, ZIPF_BLOCK))
        if size % ZIPF_BLOCK:
            self._marks.append(self._block(len(self._marks) - 1)[-1])

    def _block(self, index: int) -> list[float]:
        """The running sums over block ``index``'s ranks, led by the mark
        the block starts from.  Recomputed from that exact mark, they are
        the very floats one running sum over every rank produces."""
        first = index * ZIPF_BLOCK + 1
        ranks = range(first, min(first + ZIPF_BLOCK, self.size + 1))
        return list(
            accumulate(
                map(pow, ranks, repeat(self._exponent)), initial=self._marks[index]
            )
        )

    def service_of(self, subscriber: int) -> str:
        return self.service_names[self._preference[subscriber]]

    def draw_subscriber(self) -> int:
        """One Zipf-weighted active subscriber: the first whose running
        sum reaches the point, found in the marks, then in one block."""
        point = self.rng.random() * self._marks[-1]
        index = bisect_left(self._marks, point, 1) - 1
        return index * ZIPF_BLOCK + bisect_left(self._block(index), point, 1) - 1

    def events(
        self,
        rate: float,
        duration: float,
        start: float = 0.0,
        mix: tuple[float, float, float] = DEFAULT_EVENT_MIX,
    ) -> Iterator[ChurnEvent]:
        """Open-loop Poisson churn: ``rate`` ops/s for ``duration``
        seconds of schedule time, in arrival order."""
        if rate <= 0:
            raise ValueError("rate must be positive")
        acquire_share, renew_share, _ = mix
        if min(mix) < 0 or abs(sum(mix) - 1.0) > 1e-9:
            raise ValueError("mix must be non-negative and sum to 1")
        t = start
        end = start + duration
        while True:
            t += self.rng.expovariate(rate)
            if t >= end:
                return
            subscriber = self.draw_subscriber()
            roll = self.rng.random()
            if roll < acquire_share:
                kind = "acquire"
            elif roll < acquire_share + renew_share:
                kind = "renew"
            else:
                kind = "revoke"
            yield ChurnEvent(
                time=t,
                kind=kind,
                subscriber=subscriber,
                service=self.service_of(subscriber),
            )

    def take_events(
        self,
        count: int,
        rate: float = 1000.0,
        start: float = 0.0,
        mix: tuple[float, float, float] = DEFAULT_EVENT_MIX,
    ) -> list[ChurnEvent]:
        """Exactly ``count`` events (duration stretched as needed)."""
        out: list[ChurnEvent] = []
        t = start
        while len(out) < count:
            for event in self.events(
                rate, duration=max(1.0, count / rate), start=t, mix=mix
            ):
                out.append(event)
                if len(out) == count:
                    break
            t += max(1.0, count / rate)
        return out
