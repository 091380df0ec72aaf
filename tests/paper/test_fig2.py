"""Fig. 2 — "If you could choose a single application to not count
against your data caps, which one would you choose?"

Paper: 1000 respondents, 65 % interested, 106 distinct applications named,
facebook at the head (~50 users), heavy tail of singletons; category and
popularity breakdown tables.
"""

import pytest

from repro.__main__ import main
from repro.analysis import head_coverage
from repro.study import (
    CATEGORY_COUNTS,
    POPULARITY_COUNTS,
    ZeroRatingSurvey,
)


@pytest.fixture(scope="module")
def survey():
    return ZeroRatingSurvey(seed=2015).run()


def test_65_percent_of_1000_interested(survey):
    assert survey.respondents == 1000
    assert survey.interest_rate == pytest.approx(0.65, abs=0.05)
    assert survey.distinct_apps >= 90  # paper: 106 named


def test_exactly_106_apps(survey):
    assert len(survey.catalog) == 106


def test_total_weight_is_650(survey):
    """650 of the 1000 respondents were interested."""
    assert survey.catalog.total_weight == pytest.approx(650.0)


def test_category_marginals_match_fig2(survey):
    assert survey.catalog.category_breakdown() == CATEGORY_COUNTS


def test_popularity_marginals_match_fig2(survey):
    assert survey.catalog.popularity_breakdown() == POPULARITY_COUNTS


def test_facebook_heads_the_bars(survey):
    name, count = survey.top_app
    assert name == "facebook"
    assert 35 <= count <= 70  # paper: ~50


def test_heavy_tail(survey):
    """A 10-app shortlist leaves ~half the preferences unserved, and many
    apps were named by just one or two respondents.  (Fig. 1's uniqueness
    metric doesn't transfer: with 650 draws over 106 apps, singleton
    *preferences* are naturally rare.)"""
    assert head_coverage(survey.choices, 10) < 0.60
    rare_apps = sum(1 for count in survey.choices.values() if count <= 2)
    assert rare_apps / survey.distinct_apps > 0.30


def test_cli_prints_the_bars(survey, monkeypatch, capsys):
    monkeypatch.setattr(ZeroRatingSurvey, "run", lambda self: survey)
    assert main(["fig2"]) == 0
    out = capsys.readouterr().out
    for key, value in survey.summary().items():
        assert f"  {key}: {value}" in out
    for name, count in survey.figure2_bars(limit=20):
        assert f"{name:<22}{count:>6}" in out
