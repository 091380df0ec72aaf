"""Fig. 1 — which websites would home users prioritize?

Paper: 161 of 400 homes (40 %) installed Boost; 43 % of expressed
preferences were unique; the median popularity index of prioritized
websites was 223; the head holds popular US video sites, the tail a VoIP
service, foreign on-demand video, and a ticketing site.
"""

import pytest

from repro.__main__ import main
from repro.study import PUBLISHED_FIG1, BoostStudy


@pytest.fixture(scope="module")
def study():
    return BoostStudy(seed=2016).run()


def test_four_in_ten_homes_install(study):
    assert study.homes_offered == 400
    assert 140 <= study.homes_installed <= 185
    assert study.install_rate == pytest.approx(
        PUBLISHED_FIG1["install_rate"], abs=0.06
    )


def test_43_percent_of_preferences_unique(study):
    assert study.unique_preference_fraction == pytest.approx(
        PUBLISHED_FIG1["unique_preference_fraction"], abs=0.07
    )


def test_median_popularity_index_near_223(study):
    assert 120 <= study.median_popularity_index <= 400


def test_heavy_tail_holds_across_seeds(study):
    """The heavy tail is not a seed artifact: it holds for every seed."""
    for result in [study] + [BoostStudy(seed=s).run() for s in range(2017, 2021)]:
        assert 0.3 <= result.unique_preference_fraction <= 0.6
        assert 100 <= result.median_popularity_index <= 500


def test_cli_prints_the_study(study, monkeypatch, capsys):
    monkeypatch.setattr(BoostStudy, "run", lambda self: study)
    assert main(["fig1"]) == 0
    out = capsys.readouterr().out
    for key, value in study.summary().items():
        assert f"  {key}: {value}" in out
    for domain, homes, rank in study.figure1_rows():
        if not domain.startswith("tail-site-"):
            assert f"{domain:<28}{homes:>6}{rank:>8}" in out
