"""Link-condition scenario lab: cookies across cable, LTE, and satellite.

The paper evaluates Boost and zero-rating on one link shape — a 6 Mb/s
residential downlink with ~10 ms of propagation delay.  The mechanisms'
claims, however, are *link-independent*: boost should still shorten
completion times on a 2 Mb/s DSL line, zero-rating accounting should
stay honest when the path drops packets, and the cookie's 5 s network
coherency time (NCT) must still admit a cookie that crossed a
geostationary-satellite hop.  This lab checks those claims across a
rate × latency × loss grid spanning three canonical profiles:

==========  ==================  ==========================
profile     one-way latency     exemplar
==========  ==================  ==========================
cable       < 20 ms             DOCSIS / fibre last mile
lte         20 – 80 ms          cellular with HARQ jitter
satellite   > 80 ms             GEO bent-pipe (~280 ms)
==========  ==================  ==========================

Per cell the lab runs four scenarios, each through the full netsim
machinery (HomeNetwork, TokenBucket throttle, FaultInjector loss,
CookieMatcher verification):

a. **Boost FCT gain** — a measured download with and without the fast
   lane, against elastic background traffic; gain = baseline / boosted.
b. **Zero-rating accounting accuracy** — cookied flows through a
   :class:`~repro.services.zerorate.ZeroRatingMiddlebox` with loss both
   before the box (cookies vanish → flows wrongly charged) and after it
   (counted bytes never delivered).  Accuracy compares delivered free
   bytes with counted free bytes.
c. **Cookie renewal under NCT** — clients deliver cookies over the lossy
   link with exponential-backoff retries.  A client that *renews* (mints
   a fresh cookie per attempt) is compared against one that retransmits
   the original cookie bytes; the stale copy ages past the NCT=5 s
   window while backoff grows, and satellite latency eats the margin.
d. **Competing-traffic fairness** — one boosted and one best-effort
   transfer sharing the downlink while the throttle is active; reports
   the throughput ratio and the Jain fairness index (the paper's §6
   "boost is deliberately unfair while active" trade-off, quantified).

The grid is evaluated by :func:`repro.core.sweep.run_sweep`; every
cell's seed derives from the campaign seed and the cell's labels, so the
merged report is bit-identical no matter how many worker processes ran
it (``LinklabReport.payload()`` is the deterministic surface; sweep
execution stats ride alongside, excluded from the contract).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
import random

from ..core import CookieDescriptor, CookieGenerator, CookieMatcher, DescriptorStore
from ..core.matcher import NETWORK_COHERENCY_TIME
from ..core.seeding import derive_seed
from ..core.sweep import SweepCell, SweepStats, run_sweep
from ..core.transport import default_registry
from ..netsim.events import EventLoop
from ..netsim.faults import FaultInjector, FaultPlan
from ..netsim.links import Link
from ..netsim.middlebox import FunctionElement, Sink
from ..netsim.packet import make_tcp_packet
from ..netsim.tcpmodel import TcpTransfer
from ..netsim.topology import (
    DEFAULT_CLASS,
    FAST_LANE_CLASS,
    HomeNetwork,
    HomeNetworkConfig,
)
from ..services.zerorate import ZeroRatingMiddlebox

__all__ = [
    "DEFAULT_RATES_MBPS",
    "DEFAULT_LATENCIES_S",
    "DEFAULT_LOSS_RATES",
    "LinklabReport",
    "link_profile",
    "run_cell",
    "run_linklab",
]

#: Downlink rates: DSL, the paper's cable scenario, mid fibre, fast fibre.
DEFAULT_RATES_MBPS = (2.0, 6.0, 12.0, 20.0)
#: One-way propagation delays spanning the three profiles (satellite x2
#: brackets the GEO bent-pipe spread).
DEFAULT_LATENCIES_S = (0.005, 0.035, 0.12, 0.28)
#: Loss rates: clean, noticeable, bad-wireless.
DEFAULT_LOSS_RATES = (0.0, 0.005, 0.02)

MEASURED_FLOW_BYTES = 150_000
FCT_TIMEOUT_S = 30.0
#: FCT trials per arm: a short flow's completion time is loss-sensitive
#: (one unlucky drop costs an RTO), so each arm reports a median of 3.
FCT_TRIALS = 3
FAIRNESS_WINDOW_S = 6.0
#: Retry backoff for the renewal scenario: attempt ``k`` fires at
#: ``(2**k - 1) * RENEWAL_BACKOFF_UNIT_S`` — 0, 0.8, 2.4, 5.6, 12 s.  The
#: third retry crosses the NCT=5 s window, which is exactly the regime
#: where renewing beats retransmitting the original cookie bytes.
RENEWAL_BACKOFF_UNIT_S = 0.8
RENEWAL_ATTEMPTS = 5
RENEWAL_FLOWS = 8


def link_profile(latency_s: float) -> str:
    """Classify a one-way latency into cable / lte / satellite."""
    if latency_s < 0.02:
        return "cable"
    if latency_s < 0.08:
        return "lte"
    return "satellite"


# ----------------------------------------------------------------------
# Scenario (a): Boost FCT gain
# ----------------------------------------------------------------------
def _run_fct(rate_bps: float, latency_s: float, loss: float, seed: int,
             boosted: bool) -> float:
    loop = EventLoop()
    injector = FaultInjector(FaultPlan(drop_rate=loss, seed=seed))
    home = HomeNetwork(
        loop,
        config=HomeNetworkConfig(
            downlink_bps=rate_bps,
            propagation_delay=latency_s,
            throttle_bps=rate_bps / 6.0,
        ),
        middleboxes=[injector],
    )
    rng = random.Random(seed)
    for i in range(2):
        bulk = TcpTransfer(
            loop,
            home.wan_ingress,
            size_bytes=50_000_000,  # outlives the trial
            src_ip=f"203.0.113.{30 + i}",
            dst_ip="192.168.1.101",
            dst_port=41_000 + i,
            ack_delay=latency_s,
        )
        loop.schedule(rng.uniform(0.0, 0.3), bulk.start)
    if boosted:
        home.activate_throttle()
    loop.run(until=1.0)  # let the background build queue state
    transfer = TcpTransfer(
        loop,
        home.wan_ingress,
        size_bytes=MEASURED_FLOW_BYTES,
        dst_ip="192.168.1.100",
        ack_delay=latency_s,
        qos_class=FAST_LANE_CLASS if boosted else None,
    )
    transfer.start()
    deadline = 1.0 + FCT_TIMEOUT_S
    while not transfer.completed and loop.now < deadline:
        loop.run(until=min(loop.now + 1.0, deadline))
    if not transfer.completed:
        return FCT_TIMEOUT_S
    return transfer.completion_time or FCT_TIMEOUT_S


# ----------------------------------------------------------------------
# Scenario (b): zero-rating accounting accuracy
# ----------------------------------------------------------------------
def _run_accounting(rate_bps: float, latency_s: float, loss: float,
                    seed: int) -> dict:
    del rate_bps, latency_s  # accounting is loss-driven, not rate-driven
    clock_now = 0.0
    clock = lambda: clock_now  # noqa: E731
    store = DescriptorStore()
    descriptor = store.add(CookieDescriptor.create(service_data="zero-rate"))
    transports = default_registry()
    middlebox = ZeroRatingMiddlebox(CookieMatcher(store), clock=clock)
    pre = FaultInjector(FaultPlan(drop_rate=loss, seed=seed),
                        name="pre-loss")
    post = FaultInjector(FaultPlan(drop_rate=loss, seed=seed + 1),
                         name="post-loss")
    delivered = {"free": 0, "total": 0}

    def count(packet):
        delivered["total"] += packet.wire_length
        if packet.meta.get("zero_rated"):
            delivered["free"] += packet.wire_length
        return packet

    pre >> middlebox >> post >> FunctionElement(count, name="delivered")

    flows, packets_per_flow = 6, 25
    for i in range(flows):
        clock_now = i * 0.2
        subscriber = f"192.168.1.{100 + i}"
        sport = 30_000 + i
        first = make_tcp_packet("93.184.216.34", 443, subscriber, sport,
                                payload_size=200)
        cookie = CookieGenerator(descriptor, clock).generate()
        transports.attach(first, cookie)
        pre.push(first)
        for _ in range(packets_per_flow - 1):
            pre.push(make_tcp_packet("93.184.216.34", 443, subscriber,
                                     sport, payload_size=1200))

    counted_free = sum(c.free_bytes for c in middlebox.counters.values())
    counted_total = sum(c.total_bytes for c in middlebox.counters.values())
    accuracy = (delivered["free"] / counted_free) if counted_free else 1.0
    return {
        "counted_free_bytes": counted_free,
        "counted_total_bytes": counted_total,
        "delivered_free_bytes": delivered["free"],
        "accuracy": round(accuracy, 4),
        "free_flows": middlebox.cookie_hits,
        "flows": flows,
    }


# ----------------------------------------------------------------------
# Scenario (c): cookie renewal under the NCT window
# ----------------------------------------------------------------------
def _run_renewal(rate_bps: float, latency_s: float, loss: float,
                 seed: int) -> dict:
    """Deliver cookies over the lossy link under two retry policies.

    Flow ``i`` is forced to start at retry attempt ``i % 4`` (modeling
    ``i % 4`` earlier attempts lost), so the backoff ladder is exercised
    deterministically rather than waiting for rare loss streaks; random
    loss applies on top.  ``renew`` mints a fresh cookie per attempt;
    ``retransmit`` resends the bytes minted at flow start, which age
    against the NCT while the backoff grows.
    """
    results: dict[str, dict] = {}
    for policy_index, policy in enumerate(("renew", "retransmit")):
        loop = EventLoop()
        store = DescriptorStore()
        descriptor = store.add(
            CookieDescriptor.create(service_data="boost")
        )
        matcher = CookieMatcher(store, nct=NETWORK_COHERENCY_TIME)
        transports = default_registry()
        injector = FaultInjector(
            FaultPlan(drop_rate=loss, seed=seed * 2 + policy_index)
        )
        link = Link(loop, rate_bps=rate_bps, delay=latency_s)
        succeeded: dict[int, float] = {}  # flow -> NCT margin at accept
        attempts_sent = {"n": 0}

        def verify(packet):
            found = transports.extract(packet)
            if not found:
                return packet
            cookie = found[0]
            flow = packet.meta["renewal_flow"]
            if flow in succeeded:
                return packet
            if matcher.match(cookie, loop.now) is not None:
                succeeded[flow] = NETWORK_COHERENCY_TIME - (
                    loop.now - cookie.timestamp
                )
            return packet

        injector >> link >> FunctionElement(verify, name="verifier")

        clock = lambda: loop.now  # noqa: E731
        generator = CookieGenerator(descriptor, clock)
        for flow in range(RENEWAL_FLOWS):
            start_attempt = flow % 4
            # The flow-start cookie is minted at t=0 (all flows start
            # together): flows forced to begin at a later attempt model
            # "my earlier transmissions were lost", so their retransmit
            # copy carries the original, already-aging timestamp.
            state: dict = {"cookie": generator.generate()}

            def make_attempt(flow: int, state: dict):
                def fire():
                    if flow in succeeded:
                        return
                    attempts_sent["n"] += 1
                    if policy == "renew":
                        cookie = generator.generate()
                    else:
                        cookie = state["cookie"]
                    packet = make_tcp_packet(
                        "10.0.0.2", 40_000 + flow, "198.51.100.9", 443,
                        payload_size=120,
                    )
                    packet.meta["renewal_flow"] = flow
                    transports.attach(packet, cookie)
                    injector.push(packet)
                return fire

            fire = make_attempt(flow, state)
            for k in range(start_attempt, RENEWAL_ATTEMPTS):
                loop.schedule(
                    (2**k - 1) * RENEWAL_BACKOFF_UNIT_S, fire
                )
        loop.run(until=30.0)
        margins = sorted(succeeded.values())
        results[policy] = {
            "success_rate": round(len(succeeded) / RENEWAL_FLOWS, 4),
            "attempts": attempts_sent["n"],
            "min_nct_margin_s": (
                round(margins[0], 4) if margins else None
            ),
        }
    return {
        "renew": results["renew"],
        "retransmit": results["retransmit"],
        "nct_s": NETWORK_COHERENCY_TIME,
    }


# ----------------------------------------------------------------------
# Scenario (d): competing-traffic fairness
# ----------------------------------------------------------------------
def _run_fairness(rate_bps: float, latency_s: float, loss: float,
                  seed: int) -> dict:
    loop = EventLoop()
    injector = FaultInjector(FaultPlan(drop_rate=loss, seed=seed + 7))
    home = HomeNetwork(
        loop,
        config=HomeNetworkConfig(
            downlink_bps=rate_bps,
            propagation_delay=latency_s,
            throttle_bps=rate_bps / 6.0,
        ),
        middleboxes=[injector],
    )
    home.activate_throttle()
    transfers = {}
    for name, qos in (("boosted", FAST_LANE_CLASS),
                      ("best_effort", DEFAULT_CLASS)):
        transfers[name] = TcpTransfer(
            loop,
            home.wan_ingress,
            size_bytes=50_000_000,
            src_ip=f"203.0.113.{50 + qos}",
            dst_ip="192.168.1.100",
            dst_port=42_000 + qos,
            ack_delay=latency_s,
            qos_class=qos,
        )
        transfers[name].start()
    loop.run(until=FAIRNESS_WINDOW_S)
    goodput = {
        name: transfer.state.highest_acked * transfer.mss * 8.0
        / FAIRNESS_WINDOW_S
        for name, transfer in transfers.items()
    }
    x = [goodput["boosted"], goodput["best_effort"]]
    total_sq = (x[0] + x[1]) ** 2
    jain = total_sq / (2 * (x[0] ** 2 + x[1] ** 2)) if any(x) else 1.0
    ratio = (x[0] / x[1]) if x[1] else float("inf")
    return {
        "boosted_bps": round(x[0], 1),
        "best_effort_bps": round(x[1], 1),
        "throughput_ratio": round(ratio, 3) if ratio != float("inf") else None,
        "jain_index": round(jain, 4),
    }


# ----------------------------------------------------------------------
# The cell function (sweep unit) and the campaign driver
# ----------------------------------------------------------------------
def run_cell(params: dict, seed: int) -> dict:
    """One grid cell: all four scenarios at (rate, latency, loss).

    Module-level and deterministic in ``(params, seed)`` — the shape
    :func:`~repro.core.sweep.run_sweep` requires.
    """
    rate_mbps = params["rate_mbps"]
    latency_s = params["latency_s"]
    loss = params["loss"]
    rate_bps = rate_mbps * 1_000_000.0
    # Scenario sub-seeds stay well separated without burning entropy on
    # another hash round: the cell seed is already label-derived.
    def median_fct(boosted: bool) -> float:
        samples = sorted(
            _run_fct(
                rate_bps, latency_s, loss,
                derive_seed(seed, "fct", trial), boosted=boosted,
            )
            for trial in range(FCT_TRIALS)
        )
        return samples[len(samples) // 2]

    baseline_fct = median_fct(boosted=False)
    boosted_fct = median_fct(boosted=True)
    return {
        "rate_mbps": rate_mbps,
        "latency_ms": round(latency_s * 1000.0, 3),
        "loss": loss,
        "profile": link_profile(latency_s),
        "fct": {
            "baseline_s": round(baseline_fct, 4),
            "boosted_s": round(boosted_fct, 4),
            "gain": round(baseline_fct / boosted_fct, 4)
            if boosted_fct else None,
        },
        "accounting": _run_accounting(rate_bps, latency_s, loss, seed),
        "renewal": _run_renewal(rate_bps, latency_s, loss, seed),
        "fairness": _run_fairness(rate_bps, latency_s, loss, seed),
    }


@dataclass
class LinklabReport:
    """The campaign's merged result.

    :meth:`payload` is the deterministic surface — bit-identical for a
    given (grid, campaign_seed) across worker counts.  ``sweep_stats``
    describes how this particular run executed (worker count, pool
    rebuilds) and is deliberately outside the payload.
    """

    campaign_seed: int
    rates_mbps: tuple[float, ...]
    latencies_s: tuple[float, ...]
    loss_rates: tuple[float, ...]
    cells: list[dict] = field(default_factory=list)
    sweep_stats: SweepStats = field(default_factory=SweepStats)

    def heatmaps(self) -> dict[str, list[dict]]:
        """Flat per-metric heatmap rows (rate, latency, loss, value)."""
        maps: dict[str, list[dict]] = {
            "boost_fct_gain": [],
            "accounting_accuracy": [],
            "renewal_success": [],
            "fairness_jain": [],
        }
        for cell in self.cells:
            key = {
                "rate_mbps": cell["rate_mbps"],
                "latency_ms": cell["latency_ms"],
                "loss": cell["loss"],
                "profile": cell["profile"],
            }
            maps["boost_fct_gain"].append(
                {**key, "value": cell["fct"]["gain"]}
            )
            maps["accounting_accuracy"].append(
                {**key, "value": cell["accounting"]["accuracy"]}
            )
            maps["renewal_success"].append(
                {**key, "value": cell["renewal"]["renew"]["success_rate"]}
            )
            maps["fairness_jain"].append(
                {**key, "value": cell["fairness"]["jain_index"]}
            )
        return maps

    def payload(self) -> dict:
        """The deterministic report body (excludes execution stats)."""
        return {
            "campaign_seed": self.campaign_seed,
            "grid": {
                "rates_mbps": list(self.rates_mbps),
                "latencies_s": list(self.latencies_s),
                "loss_rates": list(self.loss_rates),
            },
            "cells": self.cells,
            "heatmaps": self.heatmaps(),
        }

    def to_json(self, include_sweep: bool = False, indent: int = 2) -> str:
        body = self.payload()
        if include_sweep:
            body["sweep"] = self.sweep_stats.as_dict()
        return json.dumps(body, indent=indent, sort_keys=True)

    def summary(self) -> dict[str, float]:
        gains = [c["fct"]["gain"] for c in self.cells if c["fct"]["gain"]]
        accuracy = [c["accounting"]["accuracy"] for c in self.cells]
        renew = [c["renewal"]["renew"]["success_rate"] for c in self.cells]
        stale = [
            c["renewal"]["retransmit"]["success_rate"] for c in self.cells
        ]
        return {
            "cells": len(self.cells),
            "median_boost_gain": round(sorted(gains)[len(gains) // 2], 3)
            if gains else 0.0,
            "min_accounting_accuracy": round(min(accuracy), 4)
            if accuracy else 0.0,
            "mean_renewal_success": round(sum(renew) / len(renew), 4)
            if renew else 0.0,
            "mean_retransmit_success": round(sum(stale) / len(stale), 4)
            if stale else 0.0,
        }


def run_linklab(
    rates_mbps: tuple[float, ...] = DEFAULT_RATES_MBPS,
    latencies_s: tuple[float, ...] = DEFAULT_LATENCIES_S,
    loss_rates: tuple[float, ...] = DEFAULT_LOSS_RATES,
    *,
    seed: int = 20160822,
    workers: int | None = None,
    telemetry=None,
) -> LinklabReport:
    """Sweep the full grid; ``workers=None`` sizes the pool to the box
    (in-process below 2 CPUs), ``workers=0`` forces in-process, any other
    value forces that pool size.  The report payload is identical in all
    three cases."""
    cells = [
        SweepCell(
            labels=("linklab", rate, latency, loss),
            params={"rate_mbps": rate, "latency_s": latency, "loss": loss},
        )
        for rate in rates_mbps
        for latency in latencies_s
        for loss in loss_rates
    ]
    results, stats = run_sweep(
        run_cell,
        cells,
        campaign_seed=seed,
        workers=workers,
        telemetry=telemetry,
    )
    return LinklabReport(
        campaign_seed=seed,
        rates_mbps=tuple(rates_mbps),
        latencies_s=tuple(latencies_s),
        loss_rates=tuple(loss_rates),
        cells=results,
        sweep_stats=stats,
    )


def format_linklab_report(report: LinklabReport) -> str:
    """Human-readable matrices: one row per rate, one column per latency,
    averaged over the loss axis."""
    lines: list[str] = []
    latencies = list(report.latencies_s)
    for metric, title in (
        ("boost_fct_gain", "Boost FCT gain (baseline / boosted)"),
        ("accounting_accuracy", "zero-rating accounting accuracy"),
        ("renewal_success", "cookie renewal success (NCT=5s)"),
        ("fairness_jain", "Jain index, boosted vs best-effort"),
    ):
        rows = report.heatmaps()[metric]
        lines.append(f"\n{title} — mean over loss axis")
        header = "rate\\owd " + "".join(
            f"{latency * 1000:>9.0f}ms" for latency in latencies
        )
        lines.append(header)
        for rate in report.rates_mbps:
            values = []
            for latency in latencies:
                cell_values = [
                    row["value"]
                    for row in rows
                    if row["rate_mbps"] == rate
                    and abs(row["latency_ms"] - latency * 1000.0) < 1e-6
                    and row["value"] is not None
                ]
                mean = (
                    sum(cell_values) / len(cell_values)
                    if cell_values else float("nan")
                )
                values.append(f"{mean:>11.3f}")
            lines.append(f"{rate:>6.1f}Mb" + "".join(values))
    return "\n".join(lines)
