"""§3 — why DPI cannot express user preferences.

Paper: loading cnn.com generates 255 flows / 6741 packets / 71 servers;
only 605 packets (<10 %) come from CNN-operated servers; nDPI recognizes
23 of the survey's 106 applications.
"""

import pytest

from repro.__main__ import main
from repro.experiments import run_sec3
from repro.study import ndpi_app_coverage


@pytest.fixture(scope="module")
def result():
    return run_sec3()


def test_cnn_page_structure(result):
    assert (result.cnn_flows, result.cnn_packets, result.cnn_servers) == (
        255, 6741, 71,
    )


def test_605_packets_from_cnn_servers_under_10_percent(result):
    assert result.packets_from_cnn_servers == 605
    assert result.cnn_server_fraction < 0.10


def test_ndpi_sni_marks_18_percent(result):
    """Fig. 6's SNI-based marking of the same page."""
    assert result.ndpi_marked_fraction == pytest.approx(0.18, abs=0.02)


def test_coverage_numbers(result):
    assert (result.ndpi_known_survey_apps, result.survey_apps_total) == (23, 106)
    assert (result.music_freedom_covered, result.music_survey_apps) == (17, 51)


def test_ndpi_coverage_is_23_of_106():
    """The rule base on its own, without the page load."""
    assert ndpi_app_coverage() == (23, 106)


def test_cli_prints_the_measurements(result, monkeypatch, capsys):
    monkeypatch.setattr("repro.experiments.run_sec3", lambda: result)
    assert main(["sec3"]) == 0
    out = capsys.readouterr().out
    for key, value in result.summary().items():
        assert f"  {key}: {value}" in out
