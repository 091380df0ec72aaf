"""Experiment drivers: one module per paper table/figure, shared by the
test suite, the benchmarks, and the examples.

================  ==============================================
Module            Reproduces
================  ==============================================
fig4_throughput   Fig. 4 middlebox forwarding performance
fig5b_fct         Fig. 5(b) flow completion time under Boost
fig6_accuracy     Fig. 6 matching accuracy (cookies/nDPI/OOB)
sec3_dpi          §3 DPI-limitation measurements
sec46_campus      §4.6 campus-trace replay
controlplane      §4.2 cookie server at million-subscriber scale
================  ==============================================

Fig. 1 and Fig. 2 live in :mod:`repro.study` (BoostStudy /
ZeroRatingSurvey); Table 1 lives in :mod:`repro.baselines.comparison`.

:mod:`.chaos` reproduces no figure — it is the fault-injection soak
backing the failure model (PROTOCOL.md §11).  :mod:`.audit` likewise —
it is the adversarial neutrality-audit campaign (PROTOCOL.md §13).
:mod:`.linklab` extends the paper's single 6 Mb/s scenario to a
rate × latency × loss grid over cable/LTE/satellite profiles, executed
by the deterministic parallel sweep (PROTOCOL.md §15).
:mod:`.billing` is the multi-operator billing soak and SIGKILL crash
drill backing the crash-safe journal + exactly-once reconciliation
contract (PROTOCOL.md §16).
"""

from .audit import (
    AuditCampaignConfig,
    AuditCampaignReport,
    run_audit,
)
from .billing import (
    BillingConfig,
    BillingReport,
    CrashDrillReport,
    run_billing,
    run_crash_drill,
)
from .chaos import (
    ChaosConfig,
    ChaosReport,
    run_chaos,
    run_outage_drill,
)
from .controlplane import (
    DEFAULT_SHARD_COUNTS,
    format_controlplane_report,
    run_controlplane,
)
from .fig4_throughput import (
    FLOW_LENGTHS,
    PACKET_SIZES,
    Fig4Point,
    run_clean_vs_faulted,
    run_point,
    run_sweep,
)
from .fig5b_fct import SERVICE_CLASSES, FctResult, run_fig5b, run_trial
from .linklab import (
    DEFAULT_LATENCIES_S,
    DEFAULT_LOSS_RATES,
    DEFAULT_RATES_MBPS,
    LinklabReport,
    format_linklab_report,
    link_profile,
    run_linklab,
)
from .fig6_accuracy import (
    DPI_APP_OF_SITE,
    TARGET_SITES,
    AccuracyResult,
    run_accuracy,
    run_all_targets,
    run_cookies,
    run_ndpi,
    run_oob,
)
from .sec3_dpi import Sec3Result, run_sec3
from .sec46_campus import Sec46Result, run_sec46

__all__ = [
    "AuditCampaignConfig",
    "AuditCampaignReport",
    "run_audit",
    "BillingConfig",
    "BillingReport",
    "CrashDrillReport",
    "run_billing",
    "run_crash_drill",
    "ChaosConfig",
    "ChaosReport",
    "run_chaos",
    "run_outage_drill",
    "DEFAULT_SHARD_COUNTS",
    "format_controlplane_report",
    "run_controlplane",
    "FLOW_LENGTHS",
    "PACKET_SIZES",
    "Fig4Point",
    "run_clean_vs_faulted",
    "run_point",
    "run_sweep",
    "SERVICE_CLASSES",
    "FctResult",
    "run_fig5b",
    "run_trial",
    "DEFAULT_LATENCIES_S",
    "DEFAULT_LOSS_RATES",
    "DEFAULT_RATES_MBPS",
    "LinklabReport",
    "format_linklab_report",
    "link_profile",
    "run_linklab",
    "DPI_APP_OF_SITE",
    "TARGET_SITES",
    "AccuracyResult",
    "run_accuracy",
    "run_all_targets",
    "run_cookies",
    "run_ndpi",
    "run_oob",
    "Sec3Result",
    "run_sec3",
    "Sec46Result",
    "run_sec46",
]
