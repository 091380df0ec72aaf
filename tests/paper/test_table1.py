"""Table 1 — properties of cookies vs DPI, OOB, and DiffServ.

Every cell the paper prints is recomputed, probe-backed where the
property is checkable by running this repository's implementations, and
asserted equal to the published matrix.
"""

import pytest

from repro.__main__ import main
from repro.baselines import (
    MECHANISMS,
    PAPER_TABLE1,
    evaluate_table1,
    format_table1,
)


@pytest.fixture(scope="module")
def rows():
    return evaluate_table1()


def test_matches_paper_exactly(rows):
    for name, expected in PAPER_TABLE1.items():
        got = tuple(rows[name][mechanism] for mechanism in MECHANISMS)
        assert got == expected, f"row {name!r}: got {got}, paper says {expected}"


def test_all_rows_present(rows):
    assert set(rows) == set(PAPER_TABLE1)


def test_cookies_pass_every_property(rows):
    assert all(cells["cookies"] for cells in rows.values())


def test_every_baseline_fails_something(rows):
    for mechanism in ("dpi", "oob", "diffserv"):
        assert not all(cells[mechanism] for cells in rows.values())


def test_format_renders_all_rows(rows):
    text = format_table1(rows)
    for name in PAPER_TABLE1:
        assert name in text
    for mechanism in MECHANISMS:
        assert mechanism in text


def test_cli_prints_the_matrix(rows, monkeypatch, capsys):
    monkeypatch.setattr("repro.baselines.format_table1", lambda: format_table1(rows))
    assert main(["table1"]) == 0
    assert format_table1(rows) in capsys.readouterr().out
