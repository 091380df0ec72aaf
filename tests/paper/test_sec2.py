"""§2 — how little of what users want do curated programs cover?

Paper: "Wikipedia Zero covers only 0.4% of our users' preferences, and
Music Freedom just 11.5%"; Music Freedom worked with 17 of 51 music apps
named in the survey and included 44 of >2500 licensed stations.
"""

import pytest

from repro.__main__ import main
from repro.analysis import head_coverage
from repro.study import ZeroRatingSurvey, analyze_coverage
from repro.study.coverage import (
    MUSIC_FREEDOM_COVERED_MUSIC_APPS,
    MUSIC_SURVEY_APPS,
)


@pytest.fixture(scope="module")
def survey():
    return ZeroRatingSurvey(seed=2015).run()


@pytest.fixture(scope="module")
def coverage(survey):
    return analyze_coverage(survey)


def test_wikipedia_zero_covers_0_4_percent(coverage):
    assert coverage.program_coverage["Wikipedia Zero"] == pytest.approx(
        0.004, abs=0.006
    )


def test_music_freedom_covers_11_5_percent(coverage):
    assert coverage.program_coverage["Music Freedom"] == pytest.approx(
        0.115, abs=0.04
    )


def test_music_freedom_music_apps_17_of_51(coverage):
    assert len(MUSIC_SURVEY_APPS) == 51
    assert len(MUSIC_FREEDOM_COVERED_MUSIC_APPS) == 17
    assert set(MUSIC_FREEDOM_COVERED_MUSIC_APPS) <= set(MUSIC_SURVEY_APPS)
    assert (coverage.music_survey_covered, coverage.music_survey_total) == (17, 51)


def test_report_summary(coverage):
    summary = coverage.summary()
    assert summary["ndpi_known_apps"] == "23/106"
    assert summary["music_freedom_music_apps"] == "17/51"
    assert summary["music_freedom_stations"] == "44/2500"


def test_shortlists_cannot_cover_the_tail(survey):
    """Ablation of curation breadth: even a 20-app shortlist leaves a
    fifth of preferences unserved."""
    assert head_coverage(survey.choices, 1) < 0.15
    assert head_coverage(survey.choices, 20) < 0.80


def test_cli_prints_the_coverage(survey, coverage, monkeypatch, capsys):
    monkeypatch.setattr(ZeroRatingSurvey, "run", lambda self: survey)
    assert main(["fig2"]) == 0
    out = capsys.readouterr().out
    for program, fraction in coverage.program_coverage.items():
        assert f"  {program:<18}{fraction:>7.1%}" in out
