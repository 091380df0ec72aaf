"""The adversarial neutrality-audit campaign (PROTOCOL.md §13).

Runs the record/replay auditor (:mod:`repro.audit.auditor`) across the
full matrix the acceptance bar names: the honest stack on every element
(zero-rating on flow and on packet grants, Boost, AnyLink) must come
back clean — zero false positives — and every malicious persona from
:mod:`repro.audit.personas` must be flagged on each of its target
elements.  The campaign is a pure function of the seed; CI runs it with
the pinned default and renders the personas × verdicts table from the
JSON report.

This reproduces no paper figure — it is the end-to-end oracle behind the
regulatory story of §6 ("Net neutrality"): an outside party, armed only
with matched traffic pairs and the public control plane, can verify the
network applies the advertised special treatment and nothing else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from ..audit.auditor import AUDIT_SEED, AuditConfig, NeutralityAuditor
from ..audit.personas import PERSONAS

__all__ = ["AuditCampaignConfig", "AuditCampaignReport", "run_audit"]

#: The elements each audit target name maps to.
_TARGET_ELEMENTS: dict[str, tuple[str, ...]] = {
    "zerorate": ("zerorate-stateful", "zerorate-stateless"),
    "boost": ("boost",),
    "anylink": ("anylink",),
}


@dataclass(frozen=True)
class AuditCampaignConfig:
    """Knobs for one campaign; the default is the CI acceptance profile."""

    seed: int = AUDIT_SEED
    trials: int = 12
    alpha: float = 0.01
    #: Restrict the malicious personas to run (None = all of them).
    personas: tuple[str, ...] | None = None


@dataclass
class AuditCampaignReport:
    """Everything CI needs: one row per element × persona audit."""

    config: dict[str, Any]
    verdicts: list[dict[str, Any]] = field(default_factory=list)

    @property
    def false_positives(self) -> list[str]:
        return [
            f"honest stack flagged on {v['element']}: {v['violations']}"
            for v in self.verdicts
            if v["persona"] == "honest" and v["flagged"]
        ]

    @property
    def missed_personas(self) -> list[str]:
        return [
            f"{v['persona']} escaped the auditor on {v['element']}"
            for v in self.verdicts
            if v["persona"] != "honest" and not v["flagged"]
        ]

    @property
    def violations(self) -> list[str]:
        return self.false_positives + self.missed_personas

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> str:
        return json.dumps(
            {
                "config": self.config,
                "ok": self.ok,
                "violations": self.violations,
                "verdicts": self.verdicts,
            },
            indent=2,
            sort_keys=True,
        )

    def summary(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "audits": len(self.verdicts),
            "honest_clean": not self.false_positives,
            "personas_flagged": sum(
                1
                for v in self.verdicts
                if v["persona"] != "honest" and v["flagged"]
            ),
            "personas_missed": len(self.missed_personas),
        }

    def table_rows(self) -> list[dict[str, str]]:
        """Flat rows for the CI step-summary personas × verdicts table."""
        rows = []
        for v in self.verdicts:
            bad = [
                name
                for name, dim in v["dimensions"].items()
                if not dim["ok"]
            ]
            expected = "clean" if v["persona"] == "honest" else "flagged"
            actual = "flagged" if v["flagged"] else "clean"
            rows.append(
                {
                    "persona": v["persona"],
                    "element": v["element"],
                    "expected": expected,
                    "verdict": actual,
                    "dimensions": ", ".join(bad) or "-",
                    "ok": "yes" if expected == actual else "NO",
                }
            )
        return rows


def run_audit(
    config: AuditCampaignConfig | None = None,
    telemetry=None,
) -> AuditCampaignReport:
    """Run the full honest + personas matrix; deterministic in the seed.

    ``telemetry``, if given (a :class:`~repro.telemetry.MetricsRegistry`),
    gets an ``audit`` collector exporting the campaign verdict counts —
    the same collector pattern every data-plane element uses.
    """
    config = config or AuditCampaignConfig()
    if config.personas is not None:
        unknown = sorted(set(config.personas) - set(PERSONAS))
        if unknown:
            raise ValueError(f"unknown personas: {', '.join(unknown)}")
    auditor = NeutralityAuditor(
        AuditConfig(seed=config.seed, trials=config.trials, alpha=config.alpha)
    )
    report = AuditCampaignReport(
        config={
            "seed": config.seed,
            "trials": config.trials,
            "alpha": config.alpha,
        }
    )

    honest_elements = [
        element
        for elements in _TARGET_ELEMENTS.values()
        for element in elements
    ]
    for element in honest_elements:
        report.verdicts.append(auditor.audit(element).to_json())

    for name, factory in PERSONAS.items():
        if config.personas is not None and name not in config.personas:
            continue
        for target in factory().targets:
            for element in _TARGET_ELEMENTS[target]:
                report.verdicts.append(auditor.audit(element, factory()).to_json())

    if telemetry is not None:
        register_audit_telemetry(telemetry, report)
    return report


def register_audit_telemetry(
    registry, report: AuditCampaignReport, prefix: str = "audit"
) -> None:
    """Expose a campaign report through the shared metrics registry."""

    def read():
        summary = report.summary()
        flagged_dimensions = sum(
            1
            for v in report.verdicts
            for dim in v["dimensions"].values()
            if not dim["ok"]
        )
        counters = {
            "audits": summary["audits"],
            "personas_flagged": summary["personas_flagged"],
            "personas_missed": summary["personas_missed"],
            "false_positives": len(report.false_positives),
            "flagged_dimensions": flagged_dimensions,
        }
        return counters, {"ok": summary["ok"]}

    registry.register(report, prefix, read=read)
