"""Auditability: who got which descriptor, when, and on what terms.

The paper's regulatory story depends on this being easy: "interested
parties can monitor what traffic gets special treatment by the network just
by looking at who gets access to cookie descriptors and how", and the FCC
"could demand that T-Mobile maintains a public database with the dates for
all cookie descriptor requests".  :class:`AuditLog` is that database;
:meth:`AuditLog.regulator_report` is the public view (no signing keys).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Iterable, Mapping, NamedTuple

__all__ = ["AuditEvent", "AuditRecord", "AuditLog", "NullAuditLog"]


class AuditEvent:
    """Event type constants recorded in the log."""

    REQUESTED = "requested"
    GRANTED = "granted"
    DENIED = "denied"
    REVOKED = "revoked"
    RENEWED = "renewed"
    DELEGATED = "delegated"


class AuditRecord(NamedTuple):
    """One append-only log entry.

    A tuple rather than a frozen dataclass: an audited server writes two
    or three a grant, and a tuple costs a third of the dataclass.
    """

    time: float
    event: str
    user: str
    service: str
    cookie_id: int | None = None
    detail: Mapping[str, Any] = MappingProxyType({})  # shared, so read-only

    def to_json(self) -> dict[str, Any]:
        return {
            "time": self.time,
            "event": self.event,
            "user": self.user,
            "service": self.service,
            "cookie_id": self.cookie_id,
            "detail": dict(self.detail),
        }


class AuditLog:
    """Append-only record of descriptor lifecycle events."""

    def __init__(self) -> None:
        self._records: list[AuditRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterable[AuditRecord]:
        return iter(self._records)

    def record(
        self,
        time: float,
        event: str,
        user: str,
        service: str,
        cookie_id: int | None = None,
        **detail: Any,
    ) -> AuditRecord:
        """Append an event and return the record."""
        entry = AuditRecord(time, event, user, service, cookie_id, detail)
        self._records.append(entry)
        return entry

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def by_event(self, event: str) -> list[AuditRecord]:
        return [r for r in self._records if r.event == event]

    def grants(self) -> list[AuditRecord]:
        return self.by_event(AuditEvent.GRANTED)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def regulator_report(self) -> dict[str, Any]:
        """The public view: per-service grant/denial tallies, grantee lists,
        and worst-case grant latency.  Contains no keys or traffic data —
        the privacy property holds even for the auditor."""
        services: dict[str, dict[str, Any]] = {}
        for record in self._records:
            entry = services.setdefault(
                record.service,
                {"granted": 0, "denied": 0, "revoked": 0, "grantees": set()},
            )
            if record.event == AuditEvent.GRANTED:
                entry["granted"] += 1
                entry["grantees"].add(record.user)
            elif record.event == AuditEvent.DENIED:
                entry["denied"] += 1
            elif record.event == AuditEvent.REVOKED:
                entry["revoked"] += 1
        report = {
            service: {
                "granted": data["granted"],
                "denied": data["denied"],
                "revoked": data["revoked"],
                "grantees": sorted(data["grantees"]),
            }
            for service, data in services.items()
        }
        return {"services": report, "total_records": len(self._records)}


class NullAuditLog(AuditLog):
    """Keeps nothing: for an issuer that runs unaudited (a control-plane
    shard — PROTOCOL.md §14.1 has the cost that decided it).  A
    ``CookieServer`` given one makes no audit call at all."""

    def record(self, *args: Any, **detail: Any) -> None:
        return None
