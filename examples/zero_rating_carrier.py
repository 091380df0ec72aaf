#!/usr/bin/env python3
"""A carrier zero-rating service built on cookies, end to end.

A cellular operator lets each subscriber pick ONE application to zero-rate
— the service 65 % of the paper's survey respondents wanted.  Unlike
Music Freedom's curated shortlist, *any* application works: the subscriber
just gives its client her descriptor.

The script runs the whole pipeline: authenticated descriptor acquisition,
cookie-tagged flows through the two-counter middlebox billed under the
carrier's catalog, a flow of a different app that is charged, the
invoice reconciled from the billing journal, and the audit trail a
regulator would inspect.  It closes by scoring real curated programs
against simulated user demand (§2's coverage numbers).

Run:  python examples/zero_rating_carrier.py
"""

import tempfile

from repro.core import (
    AuthenticatedUsersPolicy,
    CookieMatcher,
    CookieServer,
    DescriptorStore,
    ServiceOffering,
    UserAgent,
)
from repro.netsim.appmsg import TLSClientHello
from repro.netsim.packet import make_tcp_packet
from repro.services.billing import (
    BillingAccountant,
    BillingJournal,
    reconcile_directories,
)
from repro.services.zerorate import (
    AppCoverage,
    CatalogSet,
    OperatorCatalog,
    ZeroRatingMiddlebox,
)
from repro.study import ZeroRatingSurvey, analyze_coverage


def main() -> None:
    clock_value = [0.0]
    clock = lambda: clock_value[0]  # noqa: E731

    # The carrier authenticates subscribers before issuing descriptors.
    server = CookieServer(
        clock=clock,
        policy=AuthenticatedUsersPolicy(accounts={"sub-4471": "pin1234"}),
    )
    server.offer(
        ServiceOffering(
            name="pick-your-app",
            description="zero-rate any one application of your choice",
            lifetime=30 * 86400.0,
            service_data="zero-rate",
        )
    )
    store = DescriptorStore()
    server.attach_enforcement_store(store)

    subscriber = UserAgent(
        "sub-4471", clock=clock, channel=server.handle_request,
        credentials={"secret": "pin1234"},
    )
    subscriber.acquire("pick-your-app")
    print("subscriber sub-4471 zero-rates her pick: an obscure web radio\n")

    # One operator, one catalog: whatever app a subscriber picked rides
    # free from its own servers, up to a cap; everything else is charged.
    catalog = OperatorCatalog(
        "carrier",
        apps=(AppCoverage("zero-rate", origin_ips=frozenset({"185.33.10.9"})),),
        cap_bytes=250_000,
    )
    journal_dir = tempfile.TemporaryDirectory(prefix="carrier-journal-")
    accountant = BillingAccountant(
        CatalogSet([catalog], default_operator="carrier"),
        BillingJournal(journal_dir.name, source="carrier"),
    )
    middlebox = ZeroRatingMiddlebox(
        CookieMatcher(store), clock=clock, billing=accountant
    )

    # Her radio app tags its flows; note the carrier never learns WHICH
    # app this is — the SNI below could be anything, even absent.
    radio_first = make_tcp_packet(
        "10.20.0.7", 40_001, "185.33.10.9", 443,
        content=TLSClientHello(sni="stream.tiny-radio.example"),
        payload_size=250,
    )
    subscriber.insert_cookie(radio_first, "pick-your-app")
    middlebox.handle(radio_first)
    for _ in range(200):
        middlebox.handle(make_tcp_packet(
            "185.33.10.9", 443, "10.20.0.7", 40_001, payload_size=1400,
        ))

    # Everything else is charged.
    for _ in range(120):
        middlebox.handle(make_tcp_packet(
            "104.16.1.1", 443, "10.20.0.7", 40_002, payload_size=1400,
        ))

    counters = middlebox.counters_for("10.20.0.7")
    print(f"free bytes:    {counters.free_bytes:>10,}")
    print(f"charged bytes: {counters.charged_bytes:>10,}")
    print(f"zero-rated fraction: {counters.free_fraction:.0%}\n")

    # The invoice is what the journal says, not what the counters say.
    accountant.flush_all(now=clock())
    accountant.journal.close()
    report = reconcile_directories(
        [journal_dir.name], rates={"carrier": catalog.charged_rate_per_gb}
    )
    journal_dir.cleanup()
    invoice = report.invoices["carrier"]
    for line in invoice.statements["10.20.0.7"].sorted_lines():
        print(f"  {'free' if line.free else 'charged':<8}{line.byte_class:<14}"
              f"{line.nbytes:>10,} B")
    print(f"invoice: {invoice.charged_bytes:,} charged bytes at "
          f"${invoice.charged_rate_per_gb:.2f}/GB = ${invoice.amount_due:.4f}")
    print(f"(zero-rating cap used: "
          f"{accountant.cap_used('10.20.0.7') / catalog.cap_bytes:.0%}; "
          f"past it the radio stream is charged as cap_exhausted)\n")

    print("regulator's view (who got descriptors, ever):")
    print(" ", server.audit_log.regulator_report()["services"])

    # Why this beats curated programs: §2's coverage numbers.
    survey = ZeroRatingSurvey(seed=2015).run()
    coverage = analyze_coverage(survey)
    print("\ncurated programs vs. what surveyed users actually want:")
    for program, fraction in sorted(coverage.program_coverage.items()):
        print(f"  {program:<18}{fraction:>7.1%} of preferences covered")
    print("  cookies            100.0% (any app the user names)")


if __name__ == "__main__":
    main()
