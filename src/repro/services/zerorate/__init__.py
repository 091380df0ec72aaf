"""Cookie-based zero-rating: the two-counter middlebox and the operator
catalogs that decide freeness (invoices: :mod:`repro.services.billing`)."""

from .catalog import (
    BYTE_CLASSES,
    COVERABLE_CLASSES,
    ROAMING_SUSPEND,
    ROAMING_ZERO_RATE,
    UNASSIGNED_OPERATOR,
    AppCoverage,
    BillingDecision,
    CatalogSet,
    OperatorCatalog,
)
from .middlebox import (
    DEFAULT_MAX_FLOWS,
    DEFAULT_MAX_SUBSCRIBERS,
    ZERO_RATE_SNIFF_PACKETS,
    BillingFlushRequired,
    SubscriberCounters,
    ZeroRatingMiddlebox,
)

__all__ = [
    "AppCoverage",
    "BillingDecision",
    "BillingFlushRequired",
    "BYTE_CLASSES",
    "CatalogSet",
    "COVERABLE_CLASSES",
    "OperatorCatalog",
    "ROAMING_SUSPEND",
    "ROAMING_ZERO_RATE",
    "UNASSIGNED_OPERATOR",
    "DEFAULT_MAX_FLOWS",
    "DEFAULT_MAX_SUBSCRIBERS",
    "ZERO_RATE_SNIFF_PACKETS",
    "SubscriberCounters",
    "ZeroRatingMiddlebox",
]
