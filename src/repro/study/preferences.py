"""Preference samplers: how synthetic users pick what to boost/zero-rate.

The paper's empirical finding is that preferences are heavy-tailed — a
head of very popular services plus a long tail of picks no one else made.
Both samplers here are head/tail mixtures whose default parameters were
calibrated so the published aggregates emerge:

- :class:`WebsitePreferenceSampler` (Fig. 1): ≈43 % of expressed
  preferences unique, median popularity index ≈223 over 161 homes;
- :class:`AppPreferenceSampler` (Fig. 2): facebook ≈50 respondents at the
  head, singletons in the tail, 106 distinct apps named.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import accumulate, islice, repeat
from operator import mul
from typing import Iterator

from .alexa import AlexaIndex, RankedSite
from .appstore import App, AppCatalog

__all__ = ["WeightedSampler", "WebsitePreferenceSampler", "AppPreferenceSampler"]


class WeightedSampler:
    """Weighted random choice with O(log n) draws over fixed weights."""

    def __init__(self, items: list, weights: list[float], rng: random.Random) -> None:
        if len(items) != len(weights) or not items:
            raise ValueError("items and weights must be equal-length, non-empty")
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ValueError("weights must be non-negative with positive sum")
        self.items = list(items)
        self._cumulative = list(accumulate(weights))
        self.rng = rng

    def draw(self):
        point = self.rng.random() * self._cumulative[-1]
        return self.items[bisect_left(self._cumulative, point)]

    def draw_indices(self, count: int) -> Iterator[int]:
        """The item indices of ``count`` :meth:`draw` calls — the same
        ``random()`` calls in the same order — in one C-level pass."""
        cumulative = self._cumulative
        points = map(
            mul, islice(iter(self.rng.random, None), count), repeat(cumulative[-1])
        )
        return map(bisect_left, repeat(cumulative), points)


class WebsitePreferenceSampler:
    """Samples a home user's "always boost" website.

    With probability ``head_mass`` the pick comes from the named catalog
    weighted by ``rank ** -head_exponent`` (popular sites dominate);
    otherwise it is a uniform draw from the synthetic tail — the VoIP
    service, the foreign on-demand video site, the ticketing auction no
    one else picked.
    """

    def __init__(
        self,
        index: AlexaIndex | None = None,
        head_mass: float = 0.52,
        head_exponent: float = 0.40,
        seed: int = 161,
    ) -> None:
        if not 0 < head_mass < 1:
            raise ValueError("head_mass must be in (0, 1)")
        self.index = index or AlexaIndex()
        self.rng = random.Random(seed)
        self.head_mass = head_mass
        named = self.index.named_sites()
        tail = [s for s in self.index.sites() if s.category == "tail"]
        self._head = WeightedSampler(
            named, [s.rank**-head_exponent for s in named], self.rng
        )
        self._tail = WeightedSampler(tail, [1.0] * len(tail), self.rng)

    def draw(self) -> RankedSite:
        if self.rng.random() < self.head_mass:
            return self._head.draw()
        return self._tail.draw()

    def draw_user_preferences(self) -> list[RankedSite]:
        """One home's preference set: mostly one site, sometimes more.

        Distribution: 70 % one site, 22 % two, 8 % three (distinct).
        """
        roll = self.rng.random()
        count = 1 if roll < 0.70 else (2 if roll < 0.92 else 3)
        picks: dict[str, RankedSite] = {}
        while len(picks) < count:
            site = self.draw()
            picks[site.domain] = site
        return list(picks.values())


class AppPreferenceSampler:
    """Samples which app a survey respondent would zero-rate.

    Draws proportionally to each catalog app's calibrated ``weight``.
    """

    def __init__(self, catalog: AppCatalog | None = None, seed: int = 1000) -> None:
        self.catalog = catalog or AppCatalog()
        self.rng = random.Random(seed)
        self._sampler = WeightedSampler(
            self.catalog.apps, [a.weight for a in self.catalog.apps], self.rng
        )

    def draw(self) -> App:
        return self._sampler.draw()

    def draw_indices(self, count: int) -> Iterator[int]:
        """Catalog indices of ``count`` :meth:`draw` calls, in one pass."""
        return self._sampler.draw_indices(count)
