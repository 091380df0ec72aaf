"""Multi-operator zero-rating catalogs (PROTOCOL.md §16.1).

The paper's deployment claim is that network cookies let *many* operators
enforce *many* user-chosen policies over the same traffic.  The EU MNO
differential-pricing study ("Zero-Rating, One Big Mess") documents what
those policies actually look like in the field, and none of it is the
idealized "free app" of §4.6:

- **per-operator app catalogs** — each MNO zero-rates its own list of
  apps, and the lists disagree;
- **partial coverage** — an "app" is a web property whose bytes arrive
  from origin servers, CDNs carrying the app's SNI, and third parties
  (ads, trackers, embeds).  Operators typically zero-rate the origin,
  sometimes the CDN tranche, never the third parties — so a "free" page
  load still bills bytes;
- **caps** — zero-rating is bounded; past the cap the same bytes fall
  back to charged;
- **roaming** — most programs suspend zero-rating abroad.

This module models exactly that, over the shared calibrated
:mod:`repro.web.sites` page models.  The *app* identity comes from the
cookie (``descriptor.service_data`` names the app the user subscribed
to — the network never guesses); the *byte class* comes from the server
the bytes touch, via IP sets derived from the page model:

==============  =====================================================
byte class      meaning
==============  =====================================================
``origin``      app bytes from servers the app's operator runs
``cdn``         app bytes from CDN edges carrying the app's SNI
``third_party`` bytes to ad/tracker/embed servers during app use
``uncookied``   no valid cookie on the flow (charged, always)
``unlisted``    cookied app absent from this operator's catalog
``roaming``     zero-rating suspended by the roaming profile
``cap_exhausted`` would be free, but the subscriber's cap is spent
==============  =====================================================

Free bytes can only ever be ``origin`` or ``cdn`` class; everything else
is charged — the tariff invariant :mod:`repro.services.billing.reconcile`
cross-checks on every reconciled invoice.

Catalogs are **versioned** and replaceable mid-flight
(:meth:`CatalogSet.update_catalog`): billing decisions made after an
update follow the new rules, and the journal records keep the per-class
labels so invoices stay explainable across the change.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - hints only
    from ...web.page import PageModel

__all__ = [
    "AppCoverage",
    "BillingDecision",
    "CatalogSet",
    "OperatorCatalog",
    "BYTE_CLASSES",
    "COVERABLE_CLASSES",
    "ROAMING_SUSPEND",
    "ROAMING_ZERO_RATE",
    "UNASSIGNED_OPERATOR",
]

#: Every byte class a billing record may carry.
BYTE_CLASSES = (
    "origin",
    "cdn",
    "third_party",
    "uncookied",
    "unlisted",
    "roaming",
    "cap_exhausted",
)

#: The only classes an operator may zero-rate (tariff invariant).
COVERABLE_CLASSES = frozenset({"origin", "cdn"})

#: Roaming profiles: suspend zero-rating abroad, or keep it.
ROAMING_SUSPEND = "suspend"
ROAMING_ZERO_RATE = "zero-rate"

#: Operator label billed to subscribers no catalog claims.
UNASSIGNED_OPERATOR = "unassigned"

GB = 1_000_000_000


@dataclass(frozen=True)
class AppCoverage:
    """One app's entry in an operator catalog.

    ``origin_ips`` / ``cdn_ips`` partition the servers the app's page
    model touches; anything else the app contacts is ``third_party``.
    ``origin_covered`` / ``cdn_covered`` say which tranches this
    operator actually zero-rates (the EU study's "partial coverage").
    """

    app: str
    origin_ips: frozenset = frozenset()
    cdn_ips: frozenset = frozenset()
    origin_covered: bool = True
    cdn_covered: bool = False

    @classmethod
    def from_page(
        cls,
        page: "PageModel",
        *,
        origin_covered: bool = True,
        cdn_covered: bool = False,
    ) -> "AppCoverage":
        """Derive the IP partition from a calibrated page model.

        Origin servers are the ones the page's own operator runs (the
        operator of its ``document`` flows); CDN servers are ``is_cdn``
        boxes the page reaches under its *own* SNI (the Akamai-with-
        ``*.cnn.com``-SNI tranche).  Everything else the page model
        names — ads, trackers, embeds, other CDNs — is third party.
        """
        suffix = ".".join(page.domain.split(".")[-2:])
        doc_operators = {
            f.server.operator for f in page.flows if f.kind == "document"
        }
        origin: set = set()
        cdn: set = set()
        for flow in page.flows:
            server = flow.server
            if server.operator in doc_operators:
                origin.add(server.ip)
            elif server.is_cdn and (flow.sni or "").endswith(suffix):
                cdn.add(server.ip)
        return cls(
            app=page.domain,
            origin_ips=frozenset(origin),
            cdn_ips=frozenset(cdn - origin),
            origin_covered=origin_covered,
            cdn_covered=cdn_covered,
        )

    def classify(self, server_ip: str | None) -> str:
        """Which tranche of this app a byte to ``server_ip`` belongs to."""
        if server_ip in self.origin_ips:
            return "origin"
        if server_ip in self.cdn_ips:
            return "cdn"
        return "third_party"

    def covers(self, byte_class: str) -> bool:
        if byte_class == "origin":
            return self.origin_covered
        if byte_class == "cdn":
            return self.cdn_covered
        return False


@dataclass(frozen=True)
class BillingDecision:
    """The outcome of classifying one packet's bytes for billing."""

    operator: str
    app: str
    byte_class: str
    free: bool


@dataclass(frozen=True)
class OperatorCatalog:
    """One operator's zero-rating policy: apps, caps, roaming, tariff.

    ``cap_bytes`` bounds *free* bytes per subscriber (None = unlimited);
    past it, otherwise-covered bytes fall back to charged with class
    ``cap_exhausted``.  ``charged_rate_per_gb`` prices charged bytes on
    the invoice.  Catalogs are immutable — a policy change is a new
    catalog with a bumped ``version`` installed via
    :meth:`CatalogSet.update_catalog`.
    """

    operator: str
    apps: tuple[AppCoverage, ...] = ()
    cap_bytes: int | None = None
    charged_rate_per_gb: float = 10.0
    roaming_policy: str = ROAMING_SUSPEND
    version: int = 0

    def __post_init__(self) -> None:
        if not self.operator:
            raise ValueError("operator name must be non-empty")
        if self.cap_bytes is not None and self.cap_bytes < 0:
            raise ValueError("cap_bytes must be >= 0")
        if self.roaming_policy not in (ROAMING_SUSPEND, ROAMING_ZERO_RATE):
            raise ValueError(
                f"unknown roaming policy {self.roaming_policy!r}"
            )
        seen = set()
        for coverage in self.apps:
            if coverage.app in seen:
                raise ValueError(f"duplicate app {coverage.app!r}")
            seen.add(coverage.app)

    def coverage_of(self, app: str) -> AppCoverage | None:
        for coverage in self.apps:
            if coverage.app == app:
                return coverage
        return None

    @property
    def app_names(self) -> tuple[str, ...]:
        return tuple(c.app for c in self.apps)

    def with_update(self, **changes) -> "OperatorCatalog":
        """A new version of this catalog with ``changes`` applied."""
        changes.setdefault("version", self.version + 1)
        return replace(self, **changes)

    def decide(
        self,
        app: str | None,
        server_ip: str | None,
        nbytes: int,
        *,
        cookied: bool,
        roaming: bool,
        cap_used: int,
    ) -> BillingDecision:
        """Classify ``nbytes`` of one packet under this catalog.

        The precedence mirrors how real programs bill: no cookie →
        charged; app not in the catalog → charged; tranche not covered →
        charged under its own class; roaming suspension next; the cap
        last (so cap accounting only ever counts bytes that would
        otherwise have been free).
        """
        if not cookied or not app:
            return BillingDecision(self.operator, app or "", "uncookied", False)
        coverage = self.coverage_of(app)
        if coverage is None:
            return BillingDecision(self.operator, app, "unlisted", False)
        byte_class = coverage.classify(server_ip)
        if not coverage.covers(byte_class):
            return BillingDecision(self.operator, app, byte_class, False)
        if roaming and self.roaming_policy == ROAMING_SUSPEND:
            return BillingDecision(self.operator, app, "roaming", False)
        if self.cap_bytes is not None and cap_used + nbytes > self.cap_bytes:
            return BillingDecision(self.operator, app, "cap_exhausted", False)
        return BillingDecision(self.operator, app, byte_class, True)


class CatalogSet:
    """N operator catalogs enforced concurrently in one deployment.

    Maps subscribers to operators (a subscriber belongs to exactly one),
    tracks roaming state, and routes every billing decision to the
    owning operator's current catalog version.  Subscribers no catalog
    claims bill under :data:`UNASSIGNED_OPERATOR`: everything charged,
    class ``uncookied``/``unlisted`` — an operator must opt a subscriber
    *in* before any byte rides free.
    """

    def __init__(
        self,
        catalogs: Iterable[OperatorCatalog] = (),
        default_operator: str | None = None,
    ) -> None:
        self.catalogs: dict[str, OperatorCatalog] = {}
        for catalog in catalogs:
            if catalog.operator in self.catalogs:
                raise ValueError(
                    f"duplicate operator {catalog.operator!r}"
                )
            self.catalogs[catalog.operator] = catalog
        if default_operator is not None and default_operator not in self.catalogs:
            raise ValueError(
                f"default operator {default_operator!r} has no catalog"
            )
        self.default_operator = default_operator
        self._assignment: dict[str, str] = {}
        self._roaming: set[str] = set()
        self.catalog_updates = 0

    # ------------------------------------------------------------------
    # Subscriber management
    # ------------------------------------------------------------------
    def assign(self, subscriber_ip: str, operator: str) -> None:
        if operator not in self.catalogs:
            raise ValueError(f"unknown operator {operator!r}")
        self._assignment[subscriber_ip] = operator

    def operator_of(self, subscriber_ip: str) -> str:
        assigned = self._assignment.get(subscriber_ip)
        if assigned is not None:
            return assigned
        if self.default_operator is not None:
            return self.default_operator
        return UNASSIGNED_OPERATOR

    def set_roaming(self, subscriber_ip: str, roaming: bool = True) -> None:
        if roaming:
            self._roaming.add(subscriber_ip)
        else:
            self._roaming.discard(subscriber_ip)

    def is_roaming(self, subscriber_ip: str) -> bool:
        return subscriber_ip in self._roaming

    @property
    def subscribers(self) -> dict[str, str]:
        return dict(self._assignment)

    # ------------------------------------------------------------------
    # Catalog lifecycle
    # ------------------------------------------------------------------
    def update_catalog(self, catalog: OperatorCatalog) -> None:
        """Install a new version of an operator's catalog mid-flight.

        The operator must already exist (an update, not an onboarding:
        operators are onboarded by the constructor).
        """
        if catalog.operator not in self.catalogs:
            raise ValueError(f"unknown operator {catalog.operator!r}")
        self.catalogs[catalog.operator] = catalog
        self.catalog_updates += 1

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def decide(
        self,
        subscriber_ip: str,
        app: str | None,
        server_ip: str | None,
        nbytes: int,
        *,
        cookied: bool,
        cap_used: int,
    ) -> BillingDecision:
        """Route one packet's bytes to the owning operator's catalog."""
        operator = self.operator_of(subscriber_ip)
        catalog = self.catalogs.get(operator)
        if catalog is None:
            byte_class = "uncookied" if not cookied or not app else "unlisted"
            return BillingDecision(operator, app or "", byte_class, False)
        return catalog.decide(
            app,
            server_ip,
            nbytes,
            cookied=cookied,
            roaming=self.is_roaming(subscriber_ip),
            cap_used=cap_used,
        )

    def rate_of(self, operator: str) -> float:
        catalog = self.catalogs.get(operator)
        return catalog.charged_rate_per_gb if catalog is not None else 10.0

    def cap_of(self, operator: str) -> int | None:
        catalog = self.catalogs.get(operator)
        return catalog.cap_bytes if catalog is not None else None
