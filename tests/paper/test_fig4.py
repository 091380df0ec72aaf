"""Fig. 4 — middlebox matching performance: the sweep's shape holds on
small runs.  The timed sweep is ``benchmarks/test_fig4_middlebox_throughput.py``
and the perf ledger's ``fig4-*`` workloads."""

from repro.__main__ import main
from repro.experiments import run_point
from repro.trace.stats import throughput_report


class TestFig4:
    def test_gbps_grows_with_packet_size(self):
        small = run_point(64, 50, descriptors=50, flows=40)
        large = run_point(1500, 50, descriptors=50, flows=40)
        assert large.sample.gbps > small.sample.gbps * 3

    def test_pps_grows_with_flow_length(self):
        """Per-flow cookie work amortizes over longer flows."""
        short = run_point(512, 10, descriptors=50, flows=60)
        long = run_point(512, 100, descriptors=50, flows=6)
        assert long.sample.packets_per_second > short.sample.packets_per_second

    def test_all_cookies_hit(self):
        point = run_point(512, 50, descriptors=50, flows=40)
        assert point.cookie_hits == point.flows


def test_cli_prints_the_sweep(monkeypatch, capsys):
    point = run_point(512, 50, descriptors=50, flows=40)
    monkeypatch.setattr(
        "repro.experiments.run_sweep", lambda flows, descriptors: [point]
    )
    assert main(["fig4", "--quick"]) == 0
    assert throughput_report([point.sample]) in capsys.readouterr().out
