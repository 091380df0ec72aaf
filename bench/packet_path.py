"""The four packet-path workloads: ``fig4-steady``, ``fig4-newflow``,
``fig4-hostile`` and ``billing-on``.

All four push 256-packet bursts through
``ZeroRatingMiddlebox.process_batch`` on one core; they differ in which
layer the packets make do the work (see bench/README.md).
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.matcher import NETWORK_COHERENCY_TIME, CookieMatcher, ReplayCache
from repro.core.transport import default_registry
from repro.services.billing import (
    BillingAccountant,
    BillingJournal,
    reconcile_directories,
)
from repro.services.zerorate import ZeroRatingMiddlebox
from repro.services.zerorate.catalog import (
    AppCoverage,
    CatalogSet,
    OperatorCatalog,
)

from .common import BURST_TICK, T0, VirtualClock, work_dir
from .corpus import APP, SERVER_IP, CorpusSpec, PacketCorpus, build_corpus
from .tracing import Tracer, traced
from .workload import RoundSample, RoundTimer, Verdict, Workload

STEADY = CorpusSpec(flows=1_000, packets_per_flow=50, packet_size=512)
NEWFLOW = CorpusSpec(flows=20_000, packets_per_flow=1, packet_size=64)
HOSTILE = CorpusSpec(
    flows=10_000,
    packets_per_flow=4,
    packet_size=64,
    interleave=32,
    mix=(
        ("valid", 0.5),
        ("bad_signature", 0.1),
        ("replayed", 0.1),
        ("unknown_id", 0.1),
        ("stale_timestamp", 0.1),
        ("bare", 0.1),
    ),
)

#: ``billing-on`` keeps fewer counter pairs than it has subscribers, so
#: LRU eviction forces journal flushes in the middle of the run.
BILLING_MAX_SUBSCRIBERS = 256

OPERATORS = ("op-unlimited", "op-capped", "op-cdn")


@dataclass
class PacketDevice:
    clock: VirtualClock
    #: The real matcher (the middlebox may hold a tracing proxy of it).
    matcher: CookieMatcher
    middlebox: ZeroRatingMiddlebox | None = None
    accountant: BillingAccountant | None = None
    journal: BillingJournal | None = None
    directory: Path | None = None


class PacketWorkload(Workload):
    item = "pkt"
    rate_alias = "packets_per_s"
    call = "one 256-packet process_batch burst"
    spec: CorpusSpec

    def setup(self) -> None:
        self.corpus: PacketCorpus = build_corpus(
            self.spec.scaled(self.scale), self.seed
        )

    def reset_marks(self) -> None:
        for packet in self.corpus.packets:
            packet.meta.clear()

    def new_device(self, tracer: Tracer | None = None) -> PacketDevice:
        clock = VirtualClock()
        matcher = CookieMatcher(
            traced(self.corpus.store, tracer, {"get": "core.store.get"}),
            replay_cache=traced(
                ReplayCache(window=2 * NETWORK_COHERENCY_TIME),
                tracer,
                {"check_and_record": "core.matcher.replay_check"},
            ),
        )
        device = PacketDevice(clock=clock, matcher=matcher)
        device.middlebox = ZeroRatingMiddlebox(
            matcher=traced(matcher, tracer, {"match": "core.matcher.match"}),
            clock=clock,
            registry=traced(
                default_registry(), tracer, {"extract": "core.transport.extract"}
            ),
            **self._billing(device, tracer),
        )
        return device

    def _billing(self, device: PacketDevice, tracer: Tracer | None) -> dict[str, Any]:
        """Extra middlebox arguments (``billing-on`` wires its accountant,
        journal and subscriber cap here)."""
        return {}

    def _finish(self, device: PacketDevice) -> None:
        """Work that belongs inside the timed region after the last
        burst (billing's final flush)."""

    def drive(
        self, device: PacketDevice, tracer: Tracer | None = None
    ) -> RoundSample:
        clock = device.clock
        process = device.middlebox.process_batch
        if tracer is not None:
            process = tracer.wrap("zerorate.middlebox.process_batch", process)
        with RoundTimer(tracer) as timer:
            for index, burst in enumerate(self.corpus.bursts):
                clock.now = T0 + index * BURST_TICK
                if tracer is not None:
                    tracer.current_id = index
                process(burst)
                timer.lap()
            self._finish(device)
        return timer.sample(len(self.corpus.packets))

    # ------------------------------------------------------------------
    def _expected_flags(self) -> list[bool]:
        return self.corpus.zero_rated_flags()

    def _check_counters(self, device: PacketDevice, verdict: Verdict) -> None:
        expected = self.corpus.expected
        box = device.middlebox
        verdict.expect("packets_processed", box.packets_processed, expected.packets)
        verdict.expect("cookie_hits", box.cookie_hits, expected.cookie_hits)
        verdict.expect("cookie_misses", box.cookie_misses, expected.cookie_misses)
        verdict.expect("flows_resolved", box.flows_resolved, expected.flows_resolved)
        verdict.expect("verifier_failures", box.verifier_failures, 0)
        verdict.expect("flows_evicted_cap", box.flows_evicted_cap, 0)
        for reason, want in expected.match_stats.items():
            verdict.expect(
                f"MatchStats.{reason}", getattr(device.matcher.stats, reason), want
            )

    def _check_subscribers(self, device: PacketDevice, verdict: Verdict) -> None:
        box = device.middlebox
        verdict.expect("subscribers_evicted", box.subscribers_evicted, 0)
        for ip, want in self.corpus.expected.subscribers.items():
            counters = box.counters_for(ip)
            verdict.expect(
                f"counters[{ip}]",
                (counters.free_bytes, counters.charged_bytes),
                want,
            )

    def check(self, device: PacketDevice, first_round: bool) -> Verdict:
        verdict = Verdict(attempted=len(self.corpus.packets))
        self._check_counters(device, verdict)
        self._check_subscribers(device, verdict)
        if first_round:
            for index, (packet, want) in enumerate(
                zip(self.corpus.packets, self._expected_flags())
            ):
                got = packet.meta.get("zero_rated", False)
                verdict.expect(f"packet[{index}].zero_rated", got, want)
        return verdict

    def counters(self, device: PacketDevice) -> dict[str, float]:
        box = device.middlebox
        return {
            "core.matcher.replay_cache_size": device.matcher.replay_cache.size,
            "zerorate.middlebox.flows_resolved": box.flows_resolved,
            "zerorate.middlebox.cookie_hits": box.cookie_hits,
            "zerorate.middlebox.cookie_misses": box.cookie_misses,
            "zerorate.middlebox.flows_evicted_cap": box.flows_evicted_cap,
            "zerorate.middlebox.subscribers_evicted": box.subscribers_evicted,
            "zerorate.middlebox.verifier_failures": box.verifier_failures,
        }

    def describe(self) -> dict[str, Any]:
        spec = self.corpus.spec
        return {
            "corpus_digest": self.corpus.digest,
            "flows": spec.flows,
            "packets_per_flow": spec.packets_per_flow,
            "packet_size": spec.packet_size,
            "descriptors": spec.descriptors,
            "interleave": spec.interleave,
            "packets": len(self.corpus.packets),
            "bytes": self.corpus.expected.bytes,
            "classes": self.corpus.class_counts,
            "expected_sniffed_share": self.corpus.expected.extract_calls
            / len(self.corpus.packets),
        }


class Fig4Steady(PacketWorkload):
    name = "fig4-steady"
    spec = STEADY


class Fig4NewFlow(PacketWorkload):
    name = "fig4-newflow"
    spec = NEWFLOW


class Fig4Hostile(PacketWorkload):
    name = "fig4-hostile"
    spec = HOSTILE


class BillingOn(PacketWorkload):
    name = "billing-on"
    spec = STEADY

    def setup(self) -> None:
        super().setup()
        flows = self.corpus.flows
        self.max_subscribers = max(8, int(BILLING_MAX_SUBSCRIBERS * self.scale))
        #: Half of one subscriber's covered bytes, so the cap bites
        #: in the middle of every capped subscriber's flow.
        self.cap = sum(flows[0].sizes) // 2
        self.operator_of = {
            flow.client_ip: OPERATORS[flow.index % len(OPERATORS)]
            for flow in flows
        }
        origin = AppCoverage(app=APP, origin_ips=frozenset({SERVER_IP}))
        self.catalogs = (
            OperatorCatalog(OPERATORS[0], apps=(origin,)),
            OperatorCatalog(OPERATORS[1], apps=(origin,), cap_bytes=self.cap),
            # The server is a CDN edge this operator does not zero-rate.
            OperatorCatalog(
                OPERATORS[2],
                apps=(
                    AppCoverage(
                        app=APP, cdn_ips=frozenset({SERVER_IP}), cdn_covered=False
                    ),
                ),
            ),
        )
        self._plan_billing()

    def _plan_billing(self) -> None:
        """Apply each operator's tariff to the plan, packet by packet."""
        self.bills: dict[str, tuple[int, int]] = {}
        self.delivered: dict[str, dict[str, int]] = {op: {} for op in OPERATORS}
        self.records_expected = 0
        free_of_flow: list[list[bool]] = []
        for flow in self.corpus.flows:
            operator = self.operator_of[flow.client_ip]
            free = charged = 0
            flags: list[bool] = []
            for size in flow.sizes:
                rides_free = flow.klass == "valid" and (
                    operator == OPERATORS[0]
                    or (operator == OPERATORS[1] and free + size <= self.cap)
                )
                flags.append(rides_free)
                if rides_free:
                    free += size
                else:
                    charged += size
            self.bills[flow.client_ip] = (free, charged)
            self.delivered[operator][flow.client_ip] = free + charged
            # One journal record per (app, byte class, free) bucket.
            self.records_expected += (free > 0) + (charged > 0)
            free_of_flow.append(flags)
        # Sequential flows: arrival order is each flow's own order.
        self.flags = [flag for flags in free_of_flow for flag in flags]

    def _billing(self, device: PacketDevice, tracer: Tracer | None) -> dict[str, Any]:
        catalogs = CatalogSet(self.catalogs)
        for ip, operator in self.operator_of.items():
            catalogs.assign(ip, operator)
        device.directory = work_dir("journal")
        device.journal = BillingJournal(
            str(device.directory),
            source="bench",
            stream_seed=self.seed,
            fsync="rotate",
        )
        device.accountant = BillingAccountant(
            traced(catalogs, tracer, {"decide": "zerorate.catalog.decide"}),
            traced(device.journal, tracer, {"append": "billing.journal.append"}),
        )
        return {
            "max_subscribers": self.max_subscribers,
            "billing": traced(
                device.accountant,
                tracer,
                {
                    "account": "billing.accounting.account",
                    "flush_subscriber": "billing.accounting.flush_subscriber",
                    "flush_all": "billing.accounting.flush_all",
                },
            ),
        }

    def _finish(self, device: PacketDevice) -> None:
        device.middlebox.billing.flush_all(now=device.clock.now)

    def _expected_flags(self) -> list[bool]:
        return self.flags

    def _check_subscribers(self, device: PacketDevice, verdict: Verdict) -> None:
        box, accountant, journal = device.middlebox, device.accountant, device.journal
        verdict.expect(
            "subscribers_evicted",
            box.subscribers_evicted,
            max(0, len(self.bills) - self.max_subscribers),
        )
        free = sum(bill[0] for bill in self.bills.values())
        charged = sum(bill[1] for bill in self.bills.values())
        verdict.expect("accountant.free_bytes", accountant.free_bytes, free)
        verdict.expect("accountant.charged_bytes", accountant.charged_bytes, charged)
        verdict.expect("accountant.pending_bytes", accountant.pending_bytes, 0)
        verdict.expect("journal.records", journal.records_appended, self.records_expected)
        report = reconcile_directories(
            [str(device.directory)],
            caps={OPERATORS[0]: None, OPERATORS[1]: self.cap, OPERATORS[2]: None},
            delivered=self.delivered,
        )
        verdict.expect("reconcile.ok", report.ok, True)
        verdict.expect("reconcile.records", report.records_applied, self.records_expected)
        for operator in OPERATORS:
            invoice = report.invoices.get(operator)
            verdict.expect(
                f"invoiced[{operator}]",
                invoice.total_bytes if invoice else 0,
                sum(self.delivered[operator].values()),
            )
        for ip, want in self.bills.items():
            invoice = report.invoices.get(self.operator_of[ip])
            statement = invoice.statements.get(ip) if invoice else None
            got = (
                (statement.free_bytes, statement.charged_bytes)
                if statement
                else (0, 0)
            )
            verdict.expect(f"statement[{ip}]", got, want)

    def dispose(self, device: PacketDevice) -> None:
        device.journal.close()
        shutil.rmtree(device.directory, ignore_errors=True)

    def counters(self, device: PacketDevice) -> dict[str, float]:
        journal = device.journal
        out = super().counters(device)
        out.update(
            {
                "billing.journal.records": journal.records_appended,
                "billing.journal.bytes_per_record": (
                    journal.bytes_appended / max(1, journal.records_appended)
                ),
                "billing.journal.fsyncs": journal.fsyncs,
                "billing.journal.segment_rotations": journal.segment_rotations,
            }
        )
        return out

    def describe(self) -> dict[str, Any]:
        out = super().describe()
        out.update(
            {
                "operators": list(OPERATORS),
                "cap_bytes": self.cap,
                "max_subscribers": self.max_subscribers,
                "journal_records": self.records_expected,
                "free_bytes": sum(bill[0] for bill in self.bills.values()),
                "charged_bytes": sum(bill[1] for bill in self.bills.values()),
            }
        )
        return out


PACKET_WORKLOADS = (Fig4Steady, Fig4NewFlow, Fig4Hostile, BillingOn)
