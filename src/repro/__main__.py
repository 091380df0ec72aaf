"""Command-line entry point: regenerate any of the paper's results.

Usage::

    python -m repro list                 # what can be regenerated
    python -m repro fig1                 # the 161-home preference study
    python -m repro fig2                 # the 1000-user survey
    python -m repro fig4 [--quick]      # middlebox throughput sweep
    python -m repro fig5b [--trials N]  # Boost FCT CDFs
    python -m repro fig6                 # matching accuracy grid
    python -m repro table1               # the property matrix
    python -m repro sec3                 # DPI limitations on cnn.com
    python -m repro sec46 [--scale S]   # campus trace replay
    python -m repro audit [--json]      # adversarial neutrality audit
    python -m repro controlplane        # sharded cookie server at scale
    python -m repro linklab [--json]    # cable/LTE/satellite scenario lab
    python -m repro billing [--json]    # multi-operator billing + crash drill

The paper's claims are asserted by `pytest tests/paper` (tier-1 scale)
and `pytest -m paper` (paper scale); this runner just prints the results
for a human.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_fig1(_args) -> None:
    from repro.study import BoostStudy

    result = BoostStudy(seed=2016).run()
    print("Fig. 1 — boosted websites across 400 offered homes")
    for key, value in result.summary().items():
        print(f"  {key}: {value}")
    print(f"\n{'site':<28}{'homes':>6}{'rank':>8}")
    for domain, homes, rank in result.figure1_rows():
        if not domain.startswith("tail-site-"):
            print(f"{domain:<28}{homes:>6}{rank:>8}")


def _cmd_fig2(_args) -> None:
    from repro.study import ZeroRatingSurvey, analyze_coverage

    result = ZeroRatingSurvey(seed=2015).run()
    print("Fig. 2 — zero-rating survey")
    for key, value in result.summary().items():
        print(f"  {key}: {value}")
    print(f"\n{'app':<22}{'users':>6}")
    for name, count in result.figure2_bars(limit=20):
        print(f"{name:<22}{count:>6}")
    print("\n§2 coverage of curated programs:")
    for program, fraction in analyze_coverage(result).program_coverage.items():
        print(f"  {program:<18}{fraction:>7.1%}")


def _cmd_fig4(args) -> None:
    from repro.experiments import run_sweep
    from repro.trace.stats import throughput_report

    flows = 60 if args.quick else 200
    descriptors = 200 if args.quick else 2000
    points = run_sweep(flows=flows, descriptors=descriptors)
    print("Fig. 4 — middlebox matching performance (pure Python)")
    print(throughput_report([p.sample for p in points]))


def _cmd_fig5b(args) -> None:
    from repro.experiments import run_fig5b

    result = run_fig5b(trials=args.trials, seed=100)
    print(f"Fig. 5(b) — 300 KB flow completion time ({args.trials} trials/class)")
    print(f"{'class':<14}{'median':>8}{'p90':>8}{'min':>8}{'max':>8}")
    for name, stats in result.summary().items():
        print(f"{name:<14}{stats['median_s']:>7.2f}s{stats['p90_s']:>7.2f}s"
              f"{stats['min_s']:>7.2f}s{stats['max_s']:>7.2f}s")


def _cmd_fig6(_args) -> None:
    from repro.experiments import TARGET_SITES, run_all_targets

    grid = run_all_targets()
    print("Fig. 6 — matching accuracy")
    print(f"{'target':<14}{'mechanism':<12}{'matched':>9}{'false/marked':>14}")
    for target in TARGET_SITES:
        for mechanism, result in grid[target].items():
            print(f"{target:<14}{mechanism:<12}"
                  f"{result.matched_fraction:>8.1%}"
                  f"{result.false_fraction_of_marked:>13.1%}")


def _cmd_table1(_args) -> None:
    from repro.baselines import format_table1

    print("Table 1 — mechanism property matrix")
    print(format_table1())


def _cmd_sec3(_args) -> None:
    from repro.experiments import run_sec3

    print("§3 — DPI limitations")
    for key, value in run_sec3().summary().items():
        print(f"  {key}: {value}")


def _cmd_sec46(args) -> None:
    from repro.experiments import run_sec46

    print(f"§4.6 — campus trace replay (scale={args.scale})")
    for key, value in run_sec46(scale=args.scale).summary().items():
        print(f"  {key}: {value}")


def _cmd_stats(args) -> None:
    """One merged telemetry snapshot for a synthetic data-path workload."""
    snapshot = run_stats_workload(flows=args.flows, packets_per_flow=6)
    if args.json:
        print(snapshot.to_json())
    else:
        print(f"telemetry snapshot — {args.flows} flows through "
              f"cookie switch + zero-rating middlebox + journal-backed "
              f"billing, neutrality-audit campaign, sharded control plane "
              f"and grid-sweep executor")
        print(snapshot.format_text())


def _cmd_audit(args) -> None:
    """Adversarial neutrality audit: honest stack + malicious personas."""
    from repro.experiments import AuditCampaignConfig, run_audit

    config = AuditCampaignConfig(
        seed=args.seed,
        trials=args.trials,
        personas=tuple(args.personas) if args.personas else None,
    )
    try:
        report = run_audit(config)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    if args.json:
        print(report.to_json())
    else:
        print(f"neutrality audit — seed {config.seed}, "
              f"{config.trials} matched trials per element, "
              f"alpha {config.alpha}")
        for key, value in report.summary().items():
            print(f"  {key}: {value}")
        print(f"\n{'persona':<23}{'element':<21}{'expected':<10}"
              f"{'verdict':<10}{'flagged dimensions'}")
        for row in report.table_rows():
            print(f"{row['persona']:<23}{row['element']:<21}"
                  f"{row['expected']:<10}{row['verdict']:<10}"
                  f"{row['dimensions']}")
        for violation in report.violations:
            print(f"  VIOLATION: {violation}")
    if not report.ok:
        raise SystemExit(1)


def _cmd_chaos(args) -> None:
    """Fault-injection soak + control-plane outage drills."""
    from repro.experiments import ChaosConfig, run_chaos

    config = ChaosConfig(seed=args.seed, homes=args.homes,
                         duration_s=args.duration)
    report = run_chaos(config)
    if args.json:
        print(report.to_json())
    else:
        print(f"chaos soak — seed {config.seed}, {config.homes} homes, "
              f"{config.duration_s:.0f}s, all fault classes at "
              f"{config.drop_rate:.0%}")
        for key, value in report.summary().items():
            print(f"  {key}: {value}")
        for violation in report.violations:
            print(f"  VIOLATION: {violation.splitlines()[0]}")

    if not args.skip_drills:
        from repro.experiments import run_outage_drill

        for mode in ("fail-open", "fail-closed"):
            drill = run_outage_drill(mode, seed=args.seed)
            print(f"\noutage drill ({mode}) — 30s control-plane outage")
            print(f"  boost before/during/after: "
                  f"{drill['before_outage']['boost_active']}/"
                  f"{drill['during_outage']['boost_active']}/"
                  f"{drill['after_recovery']['boost_active']}")
            print(f"  breaker opened {drill['breaker_opened']}x, "
                  f"{drill['grace_signings']} grace signings, "
                  f"{drill['rejected_open']} calls shed while open")

    if not report.ok:
        raise SystemExit(1)


def _cmd_billing(args) -> None:
    """Multi-operator zero-rating billing: journal, reconcile, crash drill."""
    from repro.experiments import BillingConfig, run_billing, run_crash_drill

    config = BillingConfig(seed=args.seed)
    report = run_billing(config)
    drill = None if args.skip_drill else run_crash_drill(seed=args.seed)
    if args.json:
        print(report.to_json())
        if drill is not None:
            print(drill.to_json())
    else:
        print(f"billing soak — seed {config.seed}, "
              f"{config.subscribers} subscribers across "
              f"{len(report.operators)} operator catalogs")
        for key, value in report.summary().items():
            print(f"  {key}: {value}")
        print()
        print(report.table())
        for violation in report.violations:
            print(f"  VIOLATION: {violation}")
        if drill is not None:
            print(f"\ncrash drill — SIGKILL mid-append at "
                  f"{len(drill.points)} injection points "
                  f"(digest {drill.digest[:16]}…)")
            for point in drill.points:
                print(f"  {point['point']:<20} "
                      f"acked {point['records_acked']:>2}  "
                      f"recovered {point['recovered_offset']:>2}  "
                      f"torn-tail {point['torn_tail_truncated']}  "
                      f"reconciled {point['records_reconciled']}")
            for violation in drill.violations:
                print(f"  VIOLATION: {violation}")
    if not report.ok or (drill is not None and not drill.ok):
        raise SystemExit(1)


def _axis_values(token: str) -> list[float]:
    """One grid-axis argument: a float, or a comma-separated run of them."""
    return [float(part) for part in token.split(",") if part]


def _flatten_axis(tokens: list[list[float]]) -> tuple[float, ...]:
    return tuple(value for token in tokens for value in token)


def _cmd_linklab(args) -> None:
    """Link-condition lab: boost/zero-rating/NCT across link profiles."""
    from repro.experiments import format_linklab_report, run_linklab

    kwargs = {}
    if args.rates:
        kwargs["rates_mbps"] = _flatten_axis(args.rates)
    if args.latencies:
        kwargs["latencies_s"] = _flatten_axis(args.latencies)
    if args.loss:
        kwargs["loss_rates"] = _flatten_axis(args.loss)
    report = run_linklab(seed=args.seed, workers=args.workers, **kwargs)
    if args.json:
        print(report.to_json(include_sweep=args.include_sweep))
    else:
        grid = (f"{len(report.rates_mbps)}x{len(report.latencies_s)}"
                f"x{len(report.loss_rates)}")
        stats = report.sweep_stats
        how = ("in-process" if stats.in_process
               else f"{stats.workers} workers")
        print(f"link-condition lab — {grid} grid "
              f"({len(report.cells)} cells), seed {report.campaign_seed}, "
              f"swept {how}")
        for key, value in report.summary().items():
            print(f"  {key}: {value}")
        print(format_linklab_report(report))


def _cmd_controlplane(args) -> None:
    """Sharded control plane vs CookieServer at subscriber scale."""
    import json as json_module

    from repro.experiments import (
        format_controlplane_report,
        run_controlplane,
    )

    shard_counts = tuple(args.shards) if args.shards else (1, 2, 4)
    report = run_controlplane(
        subscribers=args.subscribers,
        shard_counts=shard_counts,
        churn_events=args.churn_events,
        open_loop_ops=args.open_loop_ops,
    )
    if args.json:
        print(json_module.dumps(report, indent=2))
    else:
        print("§4.2 control plane — sharded cookie server, delta-log "
              "replication, live revocation drill")
        print(format_controlplane_report(report))


def run_stats_workload(flows: int = 200, packets_per_flow: int = 6):
    """Drive a cookie switch and a zero-rating middlebox (each with its
    own matcher) through one registry and return the merged snapshot.

    The traffic mix exercises every counter family: valid cookies,
    forged cookies, replays, and bare flows, over enough simulated time
    for the replay cache to rotate.

    The same snapshot also holds, each under its own prefix:

    - ``billing.*`` and ``billing.journal.*``: the middlebox is backed
      by a journal-backed
      :class:`~repro.services.billing.BillingAccountant` over a
      one-operator catalog (bytes accounted free/charged, flushes,
      appends, fsyncs, recovery stats);
    - ``audit.*``: the neutrality-audit campaign
      (:func:`repro.experiments.run_audit`) and its verdict counts;
    - ``cp.*``: a 2-shard :class:`~repro.core.cp.ShardedControlPlane`
      driven through acquire/renew/revoke churn against a registered
      verifier replica (per-shard ops, log lengths, the broadcast-lag
      histogram, shed counts);
    - ``sweep.*``: a small in-process grid sweep through
      :func:`~repro.core.sweep.run_sweep` (cells total/completed,
      re-dispatches, pool rebuilds).
    """
    import shutil
    import tempfile

    from repro.core import (
        CookieDescriptor,
        CookieGenerator,
        CookieMatcher,
        DescriptorStore,
    )
    from repro.core.cp import ShardedControlPlane, VerifierReplica
    from repro.core.server import ServiceOffering
    from repro.core.sweep import SweepCell, run_sweep
    from repro.core.switch import CookieSwitch
    from repro.core.transport import default_registry
    from repro.experiments import AuditCampaignConfig, run_audit
    from repro.netsim.middlebox import Sink
    from repro.netsim.packet import make_tcp_packet
    from repro.services.billing import BillingAccountant, BillingJournal
    from repro.services.zerorate import (
        AppCoverage,
        CatalogSet,
        OperatorCatalog,
        ZeroRatingMiddlebox,
    )
    from repro.telemetry import MetricsRegistry

    clock_now = 0.0
    clock = lambda: clock_now  # noqa: E731

    store = DescriptorStore()
    descriptor = store.add(CookieDescriptor.create(service_data="zero-rate"))
    forged = CookieDescriptor.create(service_data="forged")

    registry = MetricsRegistry()
    switch = CookieSwitch(CookieMatcher(store), clock=clock)
    switch.register_telemetry(registry)
    switch.matcher.register_telemetry(registry)
    billing_dir = tempfile.mkdtemp(prefix="repro-stats-billing-")
    catalogs = CatalogSet(
        [OperatorCatalog(
            operator="op-stats",
            apps=(AppCoverage(
                app="zero-rate",
                origin_ips=frozenset({"93.184.216.34"}),
            ),),
        )],
        default_operator="op-stats",
    )
    accountant = BillingAccountant(
        catalogs,
        BillingJournal(billing_dir, source="stats", fsync="never"),
    )
    accountant.register_telemetry(registry)
    middlebox = ZeroRatingMiddlebox(
        CookieMatcher(store), clock=clock, billing=accountant
    )
    middlebox.register_telemetry(registry)
    middlebox.matcher.register_telemetry(registry, prefix="middlebox.matcher")
    switch >> middlebox >> Sink()
    flow_sizes = registry.histogram(
        "workload.flow_packets", buckets=(1, 2, 4, 8, 16)
    )

    transports = default_registry()
    replay_cookie = None
    for i in range(flows):
        # ~10 new flows per simulated second: the default 120-flow run
        # spans 12 s, past the replay cache's 2×NCT (10 s) window, so
        # the rotation counters are exercised.
        clock_now = i * 0.1
        sport = 20000 + i
        subscriber = f"10.0.{(i >> 8) & 255}.{i & 255}"
        first = make_tcp_packet(subscriber, sport, "93.184.216.34", 443,
                                payload_size=200)
        if i % 2 == 0:  # valid cookie
            cookie = CookieGenerator(descriptor, clock).generate()
            transports.attach(first, cookie)
            if replay_cookie is None:
                replay_cookie = cookie
        elif i % 10 == 1:  # forged cookie: verifies against no descriptor
            transports.attach(
                first, CookieGenerator(forged, clock).generate()
            )
        elif i % 10 == 3 and replay_cookie is not None:  # replayed uuid
            transports.attach(first, replay_cookie)
        count = 1 + (i % packets_per_flow)
        switch.push(first)
        for _ in range(count - 1):
            switch.push(
                make_tcp_packet("93.184.216.34", 443, subscriber, sport,
                                payload_size=1200)
            )
        flow_sizes.observe(count)

    run_audit(AuditCampaignConfig(), telemetry=registry)

    controlplane = ShardedControlPlane(clock=clock, shards=2)
    controlplane.offer(ServiceOffering(name="zero-rate"))
    controlplane.register_replica(VerifierReplica("stats-verifier"))
    issued = [
        controlplane.acquire(f"sub-{i}", "zero-rate")
        for i in range(24)
    ]
    controlplane.renew("sub-0", issued[0].cookie_id)
    controlplane.revoke_batch([d.cookie_id for d in issued[:6]])
    # One shed of each flavor so the counters are non-zero.
    controlplane.inflight = controlplane.max_pending
    controlplane.admit()
    controlplane.inflight = 0
    controlplane.register_telemetry(registry, prefix="cp")

    def sweep_cell(params, seed):
        # A stand-in cell: enough work to produce honest counters.
        return sum(range(params["n"])) ^ seed

    # In-process mode (workers=0): the cell function never crosses a
    # process boundary, so the CLI needs no picklable module-level fn.
    run_sweep(
        sweep_cell,
        [SweepCell(labels=("stats", i), params={"n": 1000})
         for i in range(8)],
        campaign_seed=7,
        workers=0,
        telemetry=registry,
    )

    # Journal every pending delta so the snapshot's billing.* and
    # billing.journal.* counters reflect the whole workload.
    accountant.flush_all(now=clock_now)

    snapshot = registry.snapshot()
    accountant.journal.close()
    shutil.rmtree(billing_dir, ignore_errors=True)
    return snapshot


COMMANDS = {
    "fig1": _cmd_fig1,
    "fig2": _cmd_fig2,
    "fig4": _cmd_fig4,
    "fig5b": _cmd_fig5b,
    "fig6": _cmd_fig6,
    "table1": _cmd_table1,
    "sec3": _cmd_sec3,
    "sec46": _cmd_sec46,
    "stats": _cmd_stats,
    "controlplane": _cmd_controlplane,
    "chaos": _cmd_chaos,
    "audit": _cmd_audit,
    "linklab": _cmd_linklab,
    "billing": _cmd_billing,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate results from 'Neutral Net Neutrality' "
                    "(SIGCOMM 2016).",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list regenerable results")
    sub.add_parser("fig1", help="161-home Boost preference study")
    sub.add_parser("fig2", help="1000-user zero-rating survey + §2 coverage")
    fig4 = sub.add_parser("fig4", help="middlebox throughput sweep")
    fig4.add_argument("--quick", action="store_true",
                      help="smaller sweep for a fast look")
    fig5b = sub.add_parser("fig5b", help="Boost flow-completion-time CDFs")
    fig5b.add_argument("--trials", type=int, default=8)
    sub.add_parser("fig6", help="matching accuracy: cookies vs nDPI vs OOB")
    sub.add_parser("table1", help="mechanism property matrix")
    sub.add_parser("sec3", help="DPI limitations on cnn.com")
    sec46 = sub.add_parser("sec46", help="campus trace replay")
    sec46.add_argument("--scale", type=float, default=0.0004)
    stats = sub.add_parser(
        "stats",
        help="merged telemetry snapshot (data path, billing, audit, "
             "control plane, sweep)",
    )
    stats.add_argument("--flows", type=int, default=200,
                       help="synthetic flows to drive through the path")
    stats.add_argument("--json", action="store_true",
                       help="print the snapshot as JSON")
    controlplane = sub.add_parser(
        "controlplane",
        help="sharded async cookie server vs CookieServer at subscriber "
             "scale, with the live revocation drill",
    )
    controlplane.add_argument("--subscribers", type=int, default=100_000,
                              help="population size (the checked-in report "
                                   "uses 1,000,000)")
    controlplane.add_argument("--shards", type=int, nargs="*",
                              help="shard counts to measure (default: 1 2 4)")
    controlplane.add_argument("--churn-events", type=int, default=30_000)
    controlplane.add_argument("--open-loop-ops", type=int, default=4_000)
    controlplane.add_argument("--json", action="store_true",
                              help="print the full report as JSON")
    chaos = sub.add_parser(
        "chaos",
        help="fault-injection soak + control-plane outage drills",
    )
    chaos.add_argument("--seed", type=int, default=20160822,
                       help="PRNG seed; a run replays bit-identically")
    chaos.add_argument("--homes", type=int, default=8)
    chaos.add_argument("--duration", type=float, default=60.0,
                       help="simulated seconds of traffic")
    chaos.add_argument("--json", action="store_true",
                       help="print the full soak report as JSON")
    chaos.add_argument("--skip-drills", action="store_true",
                       help="soak only; skip the outage drills")
    audit = sub.add_parser(
        "audit",
        help="adversarial neutrality audit: record/replay matched pairs "
             "against the honest stack and six malicious personas",
    )
    audit.add_argument("--seed", type=int, default=20160822,
                       help="audit seed; verdicts replay bit-identically")
    audit.add_argument("--trials", type=int, default=12,
                       help="matched-pair trials per element audit")
    audit.add_argument("--personas", nargs="*",
                       help="restrict to these persona names "
                            "(default: all six)")
    audit.add_argument("--json", action="store_true",
                       help="print the full verdict report as JSON")
    linklab = sub.add_parser(
        "linklab",
        help="link-condition scenario lab: boost FCT gain, zero-rating "
             "accounting, and NCT renewal across a rate x latency x loss "
             "grid (cable / LTE / satellite)",
    )
    linklab.add_argument("--seed", type=int, default=20160822,
                         help="campaign seed; the report replays "
                              "bit-identically at any worker count")
    linklab.add_argument("--workers", type=int, default=None,
                         help="sweep worker processes (default: sized to "
                              "the box; 0 forces in-process)")
    linklab.add_argument("--rates", type=_axis_values, nargs="*",
                         help="downlink rates in Mb/s, space- or "
                              "comma-separated (default: 2 6 12 20)")
    linklab.add_argument("--latencies", type=_axis_values, nargs="*",
                         help="one-way latencies in seconds "
                              "(default: 0.005 0.035 0.12 0.28)")
    linklab.add_argument("--loss", type=_axis_values, nargs="*",
                         help="loss rates (default: 0 0.005 0.02)")
    linklab.add_argument("--json", action="store_true",
                         help="print the heatmap report as JSON")
    linklab.add_argument("--include-sweep", action="store_true",
                         help="with --json, include sweep execution "
                              "stats (non-deterministic across configs)")
    billing = sub.add_parser(
        "billing",
        help="multi-operator zero-rating billing soak: crash-safe "
             "journal, exactly-once reconciliation, SIGKILL crash drill",
    )
    billing.add_argument("--seed", type=int, default=20160822,
                         help="billing seed; invoices and the drill "
                              "digest replay bit-identically")
    billing.add_argument("--json", action="store_true",
                         help="print the full report(s) as JSON")
    billing.add_argument("--skip-drill", action="store_true",
                         help="soak only; skip the SIGKILL crash drill")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in (None, "list"):
        print("regenerable results:")
        for name, func in COMMANDS.items():
            print(f"  {name:<8} {func.__doc__ or ''}".rstrip())
        print("\nrun: python -m repro <name>")
        return 0
    COMMANDS[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
