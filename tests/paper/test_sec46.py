"""§4.6 — can the middlebox process all wireless traffic of a campus?

Paper: the trace holds 11.3 M flows from 73 613 IPs over 15 h (median flow
50 packets, p99 new-flows/s 442), and the middlebox's sustainable rate
("~48000 new flows per second" at its operating point) is "much more than
required by the university trace".

A scaled synthetic trace matched to the published marginals is
generated, its marginals checked, and it is replayed through the
middlebox to compare capacity against the published p99 demand.
"""

from dataclasses import dataclass

import pytest

from repro.__main__ import main
from repro.experiments import run_sec46
from repro.trace import PUBLISHED_TRACE, CampusTraceGenerator


@dataclass(frozen=True)
class Scale:
    replay: float  # the trace scale run_sec46 replays
    trace: float  # the trace scale whose marginals are checked
    median_rel: float
    p99_rel: float


#: Tier-1 replays a small trace but checks the marginals on a larger
#: one: generating it costs a fraction of a second, replaying it seconds.
TIER1 = Scale(replay=0.0002, trace=0.001, median_rel=0.15, p99_rel=0.25)
PAPER = Scale(replay=0.0004, trace=0.0004, median_rel=0.15, p99_rel=0.30)


@pytest.fixture(
    scope="module",
    params=[TIER1, pytest.param(PAPER, marks=pytest.mark.paper)],
    ids=["tier1", "paper"],
)
def scale(request):
    return request.param


@pytest.fixture(scope="module")
def result(scale):
    return run_sec46(scale=scale.replay)


@pytest.fixture(scope="module")
def trace(scale, result):
    if scale.trace == scale.replay:
        return result.trace
    generator = CampusTraceGenerator(scale=scale.trace)
    return generator.summarize(list(generator.generate()))


def test_median_flow_size_matches_paper(trace, scale):
    assert trace.median_flow_packets == pytest.approx(
        PUBLISHED_TRACE["median_flow_packets"], rel=scale.median_rel
    )


def test_p99_arrival_rate_matches_paper(trace, scale):
    assert trace.p99_new_flows_per_second == pytest.approx(
        PUBLISHED_TRACE["p99_new_flows_per_second"], rel=scale.p99_rel
    )


def test_mean_rate_near_published_ratio(trace):
    expected = PUBLISHED_TRACE["flows"] / (PUBLISHED_TRACE["duration_hours"] * 3600)
    assert trace.mean_new_flows_per_second == pytest.approx(expected, rel=0.2)


def test_flow_count_scales(trace, scale):
    assert trace.flows == pytest.approx(
        PUBLISHED_TRACE["flows"] * scale.trace, rel=0.2
    )


def test_trace_marginals(result):
    """The trace actually replayed, at its own (smaller) scale."""
    assert result.trace.median_flow_packets == pytest.approx(
        PUBLISHED_TRACE["median_flow_packets"], rel=0.2
    )
    assert result.trace.p99_new_flows_per_second == pytest.approx(
        PUBLISHED_TRACE["p99_new_flows_per_second"], rel=0.35
    )


def test_all_cookies_verified(result):
    assert result.cookie_hits == result.cookie_flows


def test_subscribers_accounted(result):
    assert result.subscribers_accounted > 0


def test_headroom_over_published_demand(result):
    """The paper's "much more than required by the university trace"."""
    assert result.headroom_over_p99 > 1.0


def test_cli_prints_the_replay(result, scale, monkeypatch, capsys):
    monkeypatch.setattr("repro.experiments.run_sec46", lambda scale: result)
    assert main(["sec46", "--scale", str(scale.replay)]) == 0
    out = capsys.readouterr().out
    for key, value in result.summary().items():
        assert f"  {key}: {value}" in out
