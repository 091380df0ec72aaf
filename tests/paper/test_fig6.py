"""Fig. 6 — matching accuracy for three user preferences.

Paper panels (cnn.com / youtube.com / skai.gr):

- cookies boost >90 % of traffic in all three cases, no false positives;
- nDPI identifies only 18 % of cnn.com, nothing of skai.gr, and marks 12 %
  of skai.gr's packets when boosting youtube.com (the embedded player);
- OOB detects the same flows as cookies but destination-only rules yield
  ~40 % false positives on cnn.com.

The outcome is a property of the page/NAT structure, not a seed
artifact: the ``paper`` runs repeat every claim under three more browser
seeds.
"""

import pytest

from repro.__main__ import main
from repro.experiments import TARGET_SITES, run_all_targets, run_oob


@pytest.fixture(
    scope="module",
    params=[0] + [pytest.param(seed, marks=pytest.mark.paper) for seed in (1, 7, 42)],
    ids=lambda seed: f"seed{seed}",
)
def seed(request):
    return request.param


@pytest.fixture(scope="module")
def grid(seed):
    return run_all_targets(seed)


def test_cookies_boost_over_90_percent(grid):
    for target in TARGET_SITES:
        assert grid[target]["cookies"].matched_fraction > 0.90


def test_cookies_no_false_positives(grid):
    for target in TARGET_SITES:
        assert grid[target]["cookies"].false_packets == 0


def test_cookies_match_at_least_what_ndpi_matches(grid):
    for target in TARGET_SITES:
        assert (grid[target]["cookies"].matched_fraction
                >= grid[target]["ndpi"].matched_fraction)


def test_ndpi_cnn_near_18_percent(grid):
    assert grid["cnn.com"]["ndpi"].matched_fraction == pytest.approx(0.18, abs=0.03)


def test_ndpi_skai_matches_nothing(grid):
    assert grid["skai.gr"]["ndpi"].matched_fraction == 0.0


def test_ndpi_youtube_false_positive_on_skai_12_percent(grid):
    youtube = grid["youtube.com"]["ndpi"]
    assert youtube.false_fraction_of_site("skai.gr") == pytest.approx(
        0.12, abs=0.02
    )


def test_oob_matches_like_cookies_with_false_positives(grid):
    for target in TARGET_SITES:
        oob = grid[target]["oob"]
        assert oob.matched_fraction == pytest.approx(
            grid[target]["cookies"].matched_fraction, abs=0.01
        )
        assert oob.false_packets > 0


def test_oob_cnn_false_positives_near_40_percent(grid):
    assert grid["cnn.com"]["oob"].false_fraction_of_marked == pytest.approx(
        0.40, abs=0.06
    )


def test_full_tuple_oob_broken_by_nat(seed):
    """Ablation: without the dst-only workaround, NAT invalidates every
    rule."""
    assert run_oob("cnn.com", seed, mode="full_tuple").matched_fraction < 0.05


def test_result_summary_shape(grid):
    summary = grid["cnn.com"]["cookies"].summary()
    assert {"mechanism", "target", "matched", "false_of_marked"} <= set(summary)


def test_cli_prints_the_grid(grid, monkeypatch, capsys):
    monkeypatch.setattr("repro.experiments.run_all_targets", lambda: grid)
    assert main(["fig6"]) == 0
    out = capsys.readouterr().out
    for target in TARGET_SITES:
        for mechanism, result in grid[target].items():
            assert (f"{target:<14}{mechanism:<12}"
                    f"{result.matched_fraction:>8.1%}"
                    f"{result.false_fraction_of_marked:>13.1%}") in out
