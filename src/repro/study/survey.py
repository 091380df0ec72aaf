"""The 1000-user zero-rating survey (Fig. 2).

"We asked 1,000 smartphone users their preferences on zero-rating through
an online survey.  65 % of users expressed interest in a service that lets
them choose one application that does not count against their monthly
cellular data cap ... responses were heavy-tailed", naming 106 distinct
applications across every category.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from .appstore import App, AppCatalog
from .preferences import AppPreferenceSampler

__all__ = ["SurveyResult", "ZeroRatingSurvey", "PUBLISHED_FIG2"]

#: The aggregates the paper reports for Fig. 2.
PUBLISHED_FIG2 = {
    "respondents": 1000,
    "interest_rate": 0.65,
    "distinct_apps": 106,
    "top_app": "facebook",
    "top_app_users": 50,
}


@dataclass
class SurveyResult:
    """Responses plus the aggregates Fig. 2 reports."""

    respondents: int
    interested: int
    choices: Counter = field(default_factory=Counter)
    catalog: AppCatalog = field(default_factory=AppCatalog)

    @property
    def interest_rate(self) -> float:
        return self.interested / self.respondents if self.respondents else 0.0

    @property
    def distinct_apps(self) -> int:
        return len(self.choices)

    @property
    def top_app(self) -> tuple[str, int]:
        name, count = self.choices.most_common(1)[0]
        return name, count

    def preference_fraction(self, app_names: set[str]) -> float:
        """Fraction of expressed preferences landing on ``app_names`` —
        the quantity zero-rating coverage is measured in."""
        covered = sum(count for name, count in self.choices.items() if name in app_names)
        total = sum(self.choices.values())
        return covered / total if total else 0.0

    def figure2_bars(self, limit: int = 30) -> list[tuple[str, int]]:
        """The bar chart: apps by respondent count, descending."""
        return self.choices.most_common(limit)

    def summary(self) -> dict[str, object]:
        top_name, top_count = self.top_app
        return {
            "respondents": self.respondents,
            "interested": self.interested,
            "interest_rate": round(self.interest_rate, 3),
            "distinct_apps": self.distinct_apps,
            "top_app": top_name,
            "top_app_users": top_count,
        }


class ZeroRatingSurvey:
    """Runs the survey: interest roll, then one app pick per interested
    respondent."""

    def __init__(
        self,
        respondents: int = 1000,
        interest_rate: float = 0.65,
        sampler: AppPreferenceSampler | None = None,
        seed: int = 2015,
    ) -> None:
        if respondents <= 0:
            raise ValueError("need at least one respondent")
        if not 0 < interest_rate <= 1:
            raise ValueError("interest_rate must be in (0, 1]")
        self.respondents = respondents
        self.interest_rate = interest_rate
        self.rng = random.Random(seed)
        self.sampler = sampler or AppPreferenceSampler(seed=seed)

    def run(self) -> SurveyResult:
        interested = sum(
            1 for _ in range(self.respondents) if self.rng.random() < self.interest_rate
        )
        result = SurveyResult(
            respondents=self.respondents,
            interested=interested,
            catalog=self.sampler.catalog,
        )
        for _ in range(interested):
            app: App = self.sampler.draw()
            result.choices[app.name] += 1
        return result
