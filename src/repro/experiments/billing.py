"""Multi-operator billing soak and the SIGKILL crash drill.

Two entry points, both deterministic at a pinned seed:

- :func:`run_billing` — three operators with distinct catalogs (partial
  coverage, a biting cap, a roaming profile) enforced concurrently over
  calibrated page-model traffic on two zero-rating middleboxes, one fed
  flow grants and one fed packet grants on every packet (§4.6's
  stateless mode), under packet faults, LRU eviction pressure, one
  injected disk-full, and a mid-flight catalog update.  The journals are
  reconciled against delivered-byte ground truth from a
  :class:`~repro.netsim.capture.PacketCapture`: per operator, every
  delivered byte appears on exactly one invoice.
- :func:`run_crash_drill` — SIGKILLs a journal writer mid-append at
  three distinct injection points (mid-frame-header, mid-payload, and
  after the frame is durable but before the writer acknowledges it),
  then recovers, resumes, and reconciles to zero lost and zero
  double-billed bytes.  This is the robustness headline: §16's recovery
  contract, executed against a real ``kill -9``, not a mock.

Shipped as ``python -m repro billing [--json] [--drill]``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import tempfile
from dataclasses import asdict, dataclass, field
from typing import Any

from ..core.seeding import derive_seed

__all__ = [
    "BillingConfig",
    "BillingReport",
    "CrashDrillReport",
    "DRILL_POINTS",
    "run_billing",
    "run_crash_drill",
]

_DRILL_SOURCE = "drill"


# ----------------------------------------------------------------------
# Soak
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BillingConfig:
    """Knobs for one billing soak (defaults are the CI profile)."""

    seed: int = 20160822
    subscribers: int = 12
    #: Page-model web flows driven per subscriber (subsample for speed).
    flows_per_app: int = 24
    packets_per_flow: int = 6
    payload_bytes: int = 900
    #: Stateful counter cap — below the stateful home count, so LRU
    #: eviction (and its mandatory journal flush) fires mid-run.
    max_stateful_subscribers: int = 3
    drop_rate: float = 0.03
    duplicate_rate: float = 0.03
    corrupt_rate: float = 0.05
    #: Append index at which the stateful journal hits injected ENOSPC.
    enospc_at: int = 5
    #: op-tube's zero-rating cap (bytes of free data per subscriber).
    cap_bytes: int = 40_000
    #: Cap after the mid-flight catalog update (raised, never lowered,
    #: so the per-subscriber cap cross-check stays well-defined).
    updated_cap_bytes: int = 80_000
    #: Drive the catalog update after this many subscribers' traffic.
    catalog_update_after: int = 6
    #: Small segments so rotation happens for real (flushes aggregate
    #: deltas per bucket, so record counts are modest).
    max_segment_bytes: int = 1_024


@dataclass
class BillingReport:
    """Everything a failing CI run needs to be diagnosed from the log."""

    config: dict[str, Any]
    operators: list[dict[str, Any]]
    reconciliation: dict[str, Any]
    faults: dict[str, dict[str, int]]
    journal: dict[str, dict[str, int]]
    evictions: int
    enospc_recoveries: int
    catalog_updates: int
    duplicate_replay: dict[str, Any]
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> str:
        payload = asdict(self)
        payload["ok"] = self.ok
        return json.dumps(payload, indent=2, sort_keys=True)

    def summary(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "violations": len(self.violations),
            "operators": len(self.operators),
            "records": self.reconciliation.get("records_applied", 0),
            "evictions": self.evictions,
            "enospc_recoveries": self.enospc_recoveries,
        }

    def table(self) -> str:
        """Per-operator invoice totals vs delivered ground truth."""
        header = (
            f"{'operator':<12} {'subs':>4} {'free B':>12} "
            f"{'charged B':>12} {'invoiced B':>12} {'delivered B':>12} "
            f"{'amount':>10}"
        )
        lines = [header, "-" * len(header)]
        for row in self.operators:
            lines.append(
                f"{row['operator']:<12} {row['subscribers']:>4} "
                f"{row['free_bytes']:>12} {row['charged_bytes']:>12} "
                f"{row['total_bytes']:>12} {row['delivered_bytes']:>12} "
                f"{row['amount_due']:>10.4f}"
            )
        return "\n".join(lines)


def run_billing(config: BillingConfig | None = None) -> BillingReport:
    """One deterministic multi-operator billing soak; see module doc."""
    from ..core import (
        CookieAttributes,
        CookieDescriptor,
        CookieGenerator,
        CookieMatcher,
        DescriptorStore,
        Granularity,
    )
    from ..core.transport import default_registry
    from ..netsim import (
        DiskFaultInjector,
        DiskFaultPlan,
        FaultInjector,
        FaultPlan,
        PacketCapture,
        Sink,
        make_tcp_packet,
    )
    from ..services.billing import (
        BillingAccountant,
        BillingJournal,
        JournalFull,
        reconcile_directories,
    )
    from ..services.zerorate import (
        AppCoverage,
        CatalogSet,
        OperatorCatalog,
        ZeroRatingMiddlebox,
    )
    from ..web.sites import build_cnn, build_skai, build_youtube

    config = config or BillingConfig()

    # Three operators, three calibrated apps, three policy shapes: cnn
    # origin-only unlimited, youtube origin+cdn behind a biting cap,
    # skai origin-only with roaming suspension (one subscriber roams).
    pages = {
        "op-cnn": build_cnn(seed=1),
        "op-tube": build_youtube(seed=2),
        "op-skai": build_skai(seed=3),
    }
    coverage = {
        "op-cnn": AppCoverage.from_page(pages["op-cnn"]),
        "op-tube": AppCoverage.from_page(
            pages["op-tube"], cdn_covered=True
        ),
        "op-skai": AppCoverage.from_page(pages["op-skai"]),
    }
    catalogs = CatalogSet(
        [
            OperatorCatalog(
                operator="op-cnn", apps=(coverage["op-cnn"],),
                charged_rate_per_gb=12.0,
            ),
            OperatorCatalog(
                operator="op-tube", apps=(coverage["op-tube"],),
                cap_bytes=config.cap_bytes, charged_rate_per_gb=9.0,
            ),
            OperatorCatalog(
                operator="op-skai", apps=(coverage["op-skai"],),
                charged_rate_per_gb=15.0,
            ),
        ]
    )
    operators = ("op-cnn", "op-tube", "op-skai")

    # One shared control plane: a descriptor per app names it in
    # service_data — the cookie, not the server IP, identifies the app.
    # The stateless half's subscribers hold packet grants (§4.6: a cookie
    # on every packet, and no flow state).
    store = DescriptorStore()
    packet_grant = CookieAttributes(granularity=Granularity.PACKET)
    descriptors = {
        (operator, stateful): store.add(
            CookieDescriptor.create(
                service_data=pages[operator].domain,
                attributes=None if stateful else packet_grant,
            )
        )
        for operator in operators
        for stateful in (True, False)
    }

    clock_now = [0.0]

    def clock() -> float:
        return clock_now[0]

    journal_root = tempfile.mkdtemp(prefix="repro-billing-")
    stateful_dir = os.path.join(journal_root, "stateful")
    stateless_dir = os.path.join(journal_root, "stateless")
    enospc = DiskFaultInjector(DiskFaultPlan(enospc_at=config.enospc_at))
    stateful_journal = BillingJournal(
        stateful_dir,
        source="stateful",
        stream_seed=config.seed,
        fsync="rotate",
        max_segment_bytes=config.max_segment_bytes,
        disk_faults=enospc,
    )
    stateless_journal = BillingJournal(
        stateless_dir,
        source="stateless",
        stream_seed=config.seed,
        fsync="rotate",
        max_segment_bytes=config.max_segment_bytes,
    )
    stateful_acc = BillingAccountant(catalogs, stateful_journal)
    stateless_acc = BillingAccountant(catalogs, stateless_journal)

    stateful_box = ZeroRatingMiddlebox(
        CookieMatcher(store),
        clock=clock,
        billing=stateful_acc,
        max_subscribers=config.max_stateful_subscribers,
    )
    stateless_box = ZeroRatingMiddlebox(
        CookieMatcher(store), clock=clock, billing=stateless_acc
    )

    pipelines = {}
    for label, box in (("stateful", stateful_box), ("stateless", stateless_box)):
        injector = FaultInjector(
            FaultPlan(
                drop_rate=config.drop_rate,
                duplicate_rate=config.duplicate_rate,
                corrupt_rate=config.corrupt_rate,
                seed=derive_seed(config.seed, "billing", "faults", label),
            )
        )
        capture = PacketCapture(
            clock=clock, max_records=1_000_000, name=f"{label}-capture"
        )
        injector >> box >> capture >> Sink(name=f"{label}-sink", keep=False)
        pipelines[label] = (injector, capture)

    transports = default_registry()
    enospc_recoveries = 0
    tube_updated = False

    for index in range(config.subscribers):
        operator = operators[index % len(operators)]
        subscriber_ip = f"10.8.{index}.2"
        catalogs.assign(subscriber_ip, operator)
        if operator == "op-skai" and index == operators.index("op-skai"):
            # The first skai subscriber is abroad: zero-rating suspends.
            catalogs.set_roaming(subscriber_ip)
        stateful = index % 2 == 0
        label = "stateful" if stateful else "stateless"
        injector, _capture = pipelines[label]
        generator = CookieGenerator(descriptors[operator, stateful], clock)
        page = pages[operator]
        if index == config.catalog_update_after and not tube_updated:
            # Mid-flight policy change: op-tube raises its cap.  Traffic
            # billed before the update followed the old rules; records
            # keep their class labels so invoices stay explainable.
            catalogs.update_catalog(
                catalogs.catalogs["op-tube"].with_update(
                    cap_bytes=config.updated_cap_bytes
                )
            )
            tube_updated = True
        sport = 30_000 + index * 100
        for flow_index, flow in enumerate(
            page.web_flows[: config.flows_per_app]
        ):
            sport += 1
            for packet_index in range(config.packets_per_flow):
                clock_now[0] += 0.001
                packet = make_tcp_packet(
                    subscriber_ip,
                    sport,
                    flow.server.ip,
                    443,
                    payload_size=config.payload_bytes,
                    created_at=clock(),
                )
                if stateful:
                    if packet_index == 0:
                        transports.attach(packet, generator.generate())
                else:
                    transports.attach(packet, generator.generate())
                try:
                    injector.push(packet)
                except JournalFull:
                    # Disk full during an eviction flush: the delta is
                    # still pending, the packet was never delivered.
                    # "Free" space (the injection is one-shot) and
                    # resend.
                    enospc_recoveries += 1
                    injector.push(packet)

    # Shutdown flush: every pending delta reaches the journal before the
    # boxes' in-memory counters are gone.  A disk-full here keeps the
    # un-journaled deltas pending; the retry completes them.
    try:
        stateful_acc.flush_all(now=clock())
    except JournalFull:
        enospc_recoveries += 1
        stateful_acc.flush_all(now=clock())
    stateless_acc.flush_all(now=clock())
    stateful_stats = stateful_journal.stats_dict()
    stateless_stats = stateless_journal.stats_dict()
    stateful_journal.close()
    stateless_journal.close()

    # Ground truth: bytes the captures actually saw delivered, grouped
    # operator -> subscriber.  Duplicated packets count twice (they were
    # delivered twice), dropped packets not at all.
    delivered: dict[str, dict[str, int]] = {}
    for _label, (_injector, capture) in pipelines.items():
        for record in capture.records:
            subscriber = record.src_ip
            operator = catalogs.operator_of(subscriber)
            per = delivered.setdefault(operator, {})
            per[subscriber] = per.get(subscriber, 0) + record.wire_length

    rates = {op: catalogs.rate_of(op) for op in operators}
    caps = {"op-tube": config.updated_cap_bytes}
    report = reconcile_directories(
        [stateful_dir, stateless_dir],
        rates=rates,
        caps=caps,
        delivered=delivered,
    )

    # Exactly-once under duplicated segments: feeding one journal twice
    # must change nothing but the duplicate counter.
    replayed = reconcile_directories(
        [stateful_dir, stateless_dir, stateful_dir],
        rates=rates,
        caps=caps,
        delivered=delivered,
    )
    shutil.rmtree(journal_root, ignore_errors=True)

    violations: list[str] = list(report.tariff_violations)
    for operator, per in sorted(report.lost.items()):
        for subscriber, nbytes in sorted(per.items()):
            violations.append(
                f"lost: {operator}/{subscriber} delivered {nbytes} B "
                "never invoiced"
            )
    for operator, per in sorted(report.double_billed.items()):
        for subscriber, nbytes in sorted(per.items()):
            violations.append(
                f"double-billed: {operator}/{subscriber} invoiced "
                f"{nbytes} B never delivered"
            )
    if not replayed.ok or replayed.duplicates_skipped == 0:
        violations.append(
            "duplicate segment replay was not idempotent "
            f"(ok={replayed.ok}, skipped={replayed.duplicates_skipped})"
        )
    for operator in operators:
        invoice = report.invoices.get(operator)
        if invoice is None:
            violations.append(f"{operator}: no invoice produced")
            continue
        if operator != "op-skai" and invoice.free_bytes == 0:
            violations.append(f"{operator}: vacuous — no byte rode free")
        if invoice.charged_bytes == 0:
            violations.append(
                f"{operator}: vacuous — partial coverage charged nothing"
            )
    # Non-vacuity of the robustness pressure itself.
    if stateful_box.subscribers_evicted == 0:
        violations.append("no stateful eviction happened — raise pressure")
    if enospc_recoveries == 0:
        violations.append("ENOSPC injection never fired")
    if stateful_stats["segment_rotations"] == 0:
        violations.append("stateful journal never rotated a segment")
    if catalogs.catalog_updates != 1:
        violations.append("mid-flight catalog update did not happen")

    operator_rows = []
    for operator in sorted(report.invoices):
        invoice = report.invoices[operator]
        row = invoice.table_row()
        row["delivered_bytes"] = sum(
            delivered.get(operator, {}).values()
        )
        operator_rows.append(row)

    return BillingReport(
        config=asdict(config),
        operators=operator_rows,
        reconciliation={
            "records_seen": report.records_seen,
            "records_applied": report.records_applied,
            "duplicates_skipped": report.duplicates_skipped,
            "corrupt_records": report.corrupt_records,
            "torn_tail_truncated": report.torn_tail_truncated,
            "lost_bytes": report.lost_bytes,
            "double_billed_bytes": report.double_billed_bytes,
        },
        faults={
            label: injector.stats.as_dict()
            for label, (injector, _capture) in pipelines.items()
        },
        journal={"stateful": stateful_stats, "stateless": stateless_stats},
        evictions=stateful_box.subscribers_evicted,
        enospc_recoveries=enospc_recoveries,
        catalog_updates=catalogs.catalog_updates,
        duplicate_replay={
            "ok": replayed.ok,
            "duplicates_skipped": replayed.duplicates_skipped,
        },
        violations=violations,
    )


# ----------------------------------------------------------------------
# Crash drill
# ----------------------------------------------------------------------
#: The three SIGKILL injection points, each a distinct torn state:
#: ``(name, torn_write_bytes, durable)``.  ``torn_write_bytes`` is the
#: frame prefix that reaches disk before the kill; ``durable`` marks the
#: point where the whole frame lands (recovery must keep that record)
#: versus a genuine tear (recovery must truncate it).
DRILL_POINTS = (
    ("mid-frame-header", 3, False),
    ("mid-payload", 8 + 11, False),
    ("durable-before-ack", 1 << 20, True),
)

#: Append index the kill fires at, and total records per drill point.
DRILL_KILL_AT = 7
DRILL_RECORDS = 12


def _drill_record(index: int) -> dict[str, Any]:
    """Record ``index`` of the drill's deterministic schedule."""
    free = index % 2 == 0
    nbytes = 500 + 37 * index
    return {
        "operator": f"op-{index % 3}",
        "subscriber": f"10.9.{index % 4}.2",
        "app": "drill-app",
        "byte_class": "origin" if free else "third_party",
        "free_bytes": nbytes if free else 0,
        "charged_bytes": 0 if free else nbytes,
    }


@dataclass
class CrashDrillReport:
    """Outcome of the three-point SIGKILL drill."""

    seed: int
    points: list[dict[str, Any]]
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def digest(self) -> str:
        """Bit-determinism pin: same seed => same digest, any machine."""
        return hashlib.sha256(
            json.dumps(self.points, sort_keys=True).encode()
        ).hexdigest()

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "ok": self.ok,
                "digest": self.digest,
                "points": self.points,
                "violations": self.violations,
            },
            indent=2,
            sort_keys=True,
        )


def run_crash_drill(seed: int = 20160822) -> CrashDrillReport:
    """SIGKILL a journal writer mid-append at each drill point.

    Per point: fork a writer child that appends the deterministic record
    schedule with ``fsync="always"`` and fsync-acknowledges each append
    to a sidecar file; a :class:`~repro.netsim.faults.DiskFaultInjector`
    tears append ``DRILL_KILL_AT`` and SIGKILLs the child.  The parent
    then recovers the journal (truncating at most the torn tail),
    resumes the schedule from ``next_offset`` — exactly-once by
    construction: offsets are dense, so the resume writes precisely the
    records the crash lost — and reconciles against the schedule's
    ground truth.  Zero lost bytes, zero double-billed bytes, at every
    point, or the report carries violations.
    """
    if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX
        raise RuntimeError("crash drill requires os.fork (POSIX)")
    from ..netsim import DiskFaultInjector, DiskFaultPlan
    from ..services.billing import BillingJournal, reconcile_directories

    points: list[dict[str, Any]] = []
    violations: list[str] = []

    for point_name, torn_bytes, durable_tail in DRILL_POINTS:
        with tempfile.TemporaryDirectory(prefix="repro-drill-") as root:
            journal_dir = os.path.join(root, "journal")
            ack_path = os.path.join(root, "acks")
            child = os.fork()
            if child == 0:
                # Writer child: never returns to the caller's stack.
                status = 9  # reached only if the kill misfires
                try:
                    injector = DiskFaultInjector(
                        DiskFaultPlan(
                            torn_write_at=DRILL_KILL_AT,
                            torn_write_bytes=torn_bytes,
                            kill_on_tear=True,
                        )
                    )
                    journal = BillingJournal(
                        journal_dir,
                        source=_DRILL_SOURCE,
                        stream_seed=seed,
                        fsync="always",
                        disk_faults=injector,
                    )
                    with open(ack_path, "ab") as ack:
                        for index in range(DRILL_RECORDS):
                            journal.append(**_drill_record(index))
                            ack.write(b"%d\n" % index)
                            ack.flush()
                            os.fsync(ack.fileno())
                finally:
                    os._exit(status)
            _pid, wait_status = os.waitpid(child, 0)
            sigkilled = (
                os.WIFSIGNALED(wait_status)
                and os.WTERMSIG(wait_status) == signal.SIGKILL
            )
            acked: list[int] = []
            if os.path.exists(ack_path):
                with open(ack_path, "rb") as handle:
                    acked = [
                        int(line)
                        for line in handle.read().splitlines()
                        if line.strip().isdigit()
                    ]

            # Recovery: reopen truncates at most the torn tail, then the
            # writer resumes the schedule from the next dense offset.
            recovered = BillingJournal(
                journal_dir, source=_DRILL_SOURCE, stream_seed=seed,
                fsync="always",
            )
            recovery = recovered.recovery.as_dict()
            resume_from = recovered.next_offset
            for index in range(resume_from, DRILL_RECORDS):
                recovered.append(**_drill_record(index))
            recovered.close()

            # Ground truth from the schedule itself.
            truth: dict[str, dict[str, int]] = {}
            for index in range(DRILL_RECORDS):
                record = _drill_record(index)
                per = truth.setdefault(record["operator"], {})
                nbytes = record["free_bytes"] + record["charged_bytes"]
                per[record["subscriber"]] = (
                    per.get(record["subscriber"], 0) + nbytes
                )
            report = reconcile_directories([journal_dir], delivered=truth)

            in_flight_recovered = resume_from - len(acked)
            result = {
                "point": point_name,
                "sigkilled": sigkilled,
                "records_acked": len(acked),
                "recovered_offset": resume_from,
                "in_flight_recovered": in_flight_recovered,
                "torn_tail_truncated": recovery["torn_tail_truncated"],
                "corrupt_records": recovery["corrupt_records"],
                "records_reconciled": report.records_applied,
                "lost_bytes": report.lost_bytes,
                "double_billed_bytes": report.double_billed_bytes,
                "tariff_violations": len(report.tariff_violations),
            }
            points.append(result)

            prefix = f"{point_name}: "
            if not sigkilled:
                violations.append(prefix + "child was not SIGKILLed")
            if len(acked) != DRILL_KILL_AT:
                violations.append(
                    prefix
                    + f"acked {len(acked)} records, expected {DRILL_KILL_AT}"
                )
            if resume_from < len(acked):
                violations.append(
                    prefix
                    + f"recovery lost acked records: offset {resume_from} "
                    f"< acked {len(acked)}"
                )
            if in_flight_recovered > 1:
                violations.append(
                    prefix
                    + "recovery surfaced more than the one in-flight record"
                )
            if durable_tail:
                if in_flight_recovered != 1:
                    violations.append(
                        prefix + "durable in-flight record was lost"
                    )
                if recovery["torn_tail_truncated"] != 0:
                    violations.append(
                        prefix + "truncated a fully-durable record"
                    )
            else:
                if in_flight_recovered != 0:
                    violations.append(
                        prefix + "torn record survived recovery"
                    )
                if recovery["torn_tail_truncated"] != 1:
                    violations.append(
                        prefix + "torn tail was not truncated exactly once"
                    )
            if report.records_applied != DRILL_RECORDS:
                violations.append(
                    prefix
                    + f"reconciled {report.records_applied} records, "
                    f"expected {DRILL_RECORDS}"
                )
            if report.lost_bytes or report.double_billed_bytes:
                violations.append(
                    prefix
                    + f"{report.lost_bytes} B lost, "
                    f"{report.double_billed_bytes} B double-billed"
                )
            if report.tariff_violations:
                violations.append(prefix + "tariff cross-check failed")

    return CrashDrillReport(seed=seed, points=points, violations=violations)
