"""Per-operator invoices built from journaled billing records.

An :class:`OperatorInvoice` is the reconciled, customer-facing view of
one operator's journal slice: per-subscriber statements with line items
keyed by (app, byte_class, free) plus rollups.  Amounts are computed
from the operator's charged rate (free bytes cost nothing by
definition — that is what "zero-rated" means); the tariff cross-checks
in :mod:`repro.services.billing.reconcile` verify that the *split* into
free/charged obeyed the catalog, not this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from ..zerorate.catalog import GB

if TYPE_CHECKING:  # pragma: no cover - hints only
    from .journal import BillingRecord

__all__ = ["InvoiceLine", "SubscriberStatement", "OperatorInvoice", "build_invoices"]


@dataclass
class InvoiceLine:
    """One (app, byte_class, free) bucket on a subscriber statement."""

    app: str
    byte_class: str
    free: bool
    nbytes: int = 0
    records: int = 0

    def key(self) -> tuple[str, str, bool]:
        return (self.app, self.byte_class, self.free)

    def to_json(self) -> dict[str, Any]:
        return {
            "app": self.app,
            "byte_class": self.byte_class,
            "free": self.free,
            "bytes": self.nbytes,
            "records": self.records,
        }


@dataclass
class SubscriberStatement:
    subscriber: str
    lines: dict[tuple[str, str, bool], InvoiceLine] = field(default_factory=dict)

    def add(self, app: str, byte_class: str, free: bool, nbytes: int) -> None:
        key = (app, byte_class, free)
        line = self.lines.get(key)
        if line is None:
            line = self.lines[key] = InvoiceLine(app=app, byte_class=byte_class, free=free)
        line.nbytes += nbytes
        line.records += 1

    @property
    def free_bytes(self) -> int:
        return sum(l.nbytes for l in self.lines.values() if l.free)

    @property
    def charged_bytes(self) -> int:
        return sum(l.nbytes for l in self.lines.values() if not l.free)

    @property
    def total_bytes(self) -> int:
        return self.free_bytes + self.charged_bytes

    def sorted_lines(self) -> list[InvoiceLine]:
        return [self.lines[key] for key in sorted(self.lines)]

    def to_json(self) -> dict[str, Any]:
        return {
            "subscriber": self.subscriber,
            "free_bytes": self.free_bytes,
            "charged_bytes": self.charged_bytes,
            "lines": [line.to_json() for line in self.sorted_lines()],
        }


@dataclass
class OperatorInvoice:
    """All statements for one operator over one reconciliation window."""

    operator: str
    charged_rate_per_gb: float = 0.0
    statements: dict[str, SubscriberStatement] = field(default_factory=dict)
    records: int = 0

    def add_record(self, record: "BillingRecord") -> None:
        statement = self.statements.get(record.subscriber)
        if statement is None:
            statement = self.statements[record.subscriber] = SubscriberStatement(
                subscriber=record.subscriber
            )
        if record.free_bytes:
            statement.add(record.app, record.byte_class, True, record.free_bytes)
        if record.charged_bytes:
            statement.add(record.app, record.byte_class, False, record.charged_bytes)
        self.records += 1

    @property
    def free_bytes(self) -> int:
        return sum(s.free_bytes for s in self.statements.values())

    @property
    def charged_bytes(self) -> int:
        return sum(s.charged_bytes for s in self.statements.values())

    @property
    def total_bytes(self) -> int:
        return self.free_bytes + self.charged_bytes

    @property
    def amount_due(self) -> float:
        return self.charged_bytes / GB * self.charged_rate_per_gb

    def per_subscriber_totals(self) -> dict[str, int]:
        return {
            ip: self.statements[ip].total_bytes for ip in sorted(self.statements)
        }

    def to_json(self) -> dict[str, Any]:
        return {
            "operator": self.operator,
            "charged_rate_per_gb": self.charged_rate_per_gb,
            "free_bytes": self.free_bytes,
            "charged_bytes": self.charged_bytes,
            "total_bytes": self.total_bytes,
            "amount_due": round(self.amount_due, 6),
            "records": self.records,
            "statements": [
                self.statements[ip].to_json() for ip in sorted(self.statements)
            ],
        }

    def table_row(self) -> dict[str, Any]:
        """Compact row for CLI / CI step-summary tables."""
        return {
            "operator": self.operator,
            "subscribers": len(self.statements),
            "free_bytes": self.free_bytes,
            "charged_bytes": self.charged_bytes,
            "total_bytes": self.total_bytes,
            "amount_due": round(self.amount_due, 6),
        }


def build_invoices(
    records: Iterable["BillingRecord"],
    *,
    rates: dict[str, float] | None = None,
) -> dict[str, OperatorInvoice]:
    """Fold records into per-operator invoices (no dedup — callers that
    may see duplicated segments go through
    :func:`repro.services.billing.reconcile.reconcile` instead)."""
    rates = rates or {}
    invoices: dict[str, OperatorInvoice] = {}
    for record in records:
        invoice = invoices.get(record.operator)
        if invoice is None:
            invoice = invoices[record.operator] = OperatorInvoice(
                operator=record.operator,
                charged_rate_per_gb=rates.get(record.operator, 0.0),
            )
        invoice.add_record(record)
    return invoices
