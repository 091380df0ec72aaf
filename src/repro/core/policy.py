"""Access policies for descriptor issuance.

Cookies are policy-free: the mechanism never dictates *who* may obtain a
descriptor.  That decision is pluggable — "an ISP could use cookies to
prioritize a single content provider, all the way to let each user choose
her own".  Each policy here is one point in that design space; the cookie
server takes any of them (or a composition) unchanged.
"""

from __future__ import annotations

import abc
from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple

from .errors import AcquisitionDenied

__all__ = [
    "AcquisitionRequest",
    "AccessPolicy",
    "OpenAccessPolicy",
    "AuthenticatedUsersPolicy",
    "ServiceWhitelistPolicy",
    "QuotaPolicy",
    "PrepaidPolicy",
    "AllOfPolicy",
    "NO_ARGUMENTS",
]

#: The ``credentials`` / ``preferences`` of every request that brought
#: none.  One mapping serves them all, so it is read-only: a policy that
#: writes to it raises instead of reaching the next request.
NO_ARGUMENTS: Mapping[str, Any] = MappingProxyType({})


class AcquisitionRequest(NamedTuple):
    """Everything a policy may consider when deciding on a grant.

    A tuple rather than a dataclass: the server builds one per grant.
    The server's requests hold their own copies of the caller's
    ``credentials`` / ``preferences``, or :data:`NO_ARGUMENTS`.
    """

    user: str
    service: str
    credentials: Mapping[str, Any] = NO_ARGUMENTS
    preferences: Mapping[str, Any] = NO_ARGUMENTS
    time: float = 0.0


class AccessPolicy(abc.ABC):
    """Decides whether a descriptor acquisition proceeds.

    ``authorize`` returns normally to grant and raises
    :class:`AcquisitionDenied` to refuse.  ``on_granted`` lets stateful
    policies (quotas, balances) record a consummated grant — it is called
    only after every composed policy has authorized.
    """

    @abc.abstractmethod
    def authorize(self, request: AcquisitionRequest) -> None:
        """Raise :class:`AcquisitionDenied` to refuse the request."""

    def on_granted(self, request: AcquisitionRequest) -> None:
        """Hook invoked after a grant is finalized; default is a no-op."""


class OpenAccessPolicy(AccessPolicy):
    """Anyone who can reach the server gets a descriptor.

    The paper's home-network stance: "anyone who can talk to the AP might
    get a cookie".
    """

    def authorize(self, request: AcquisitionRequest) -> None:
        return None


class AuthenticatedUsersPolicy(AccessPolicy):
    """Grants only to users presenting a valid shared secret.

    The cellular stance: "a cellular network might require users to login
    first".  ``accounts`` maps user name to secret; ``verifier`` may replace
    the default equality check (e.g. with a signature check).
    """

    def __init__(
        self,
        accounts: dict[str, str],
        verifier: Callable[[str, Mapping[str, Any]], bool] | None = None,
    ) -> None:
        self.accounts = dict(accounts)
        self._verifier = verifier

    def authorize(self, request: AcquisitionRequest) -> None:
        if self._verifier is not None:
            if not self._verifier(request.user, request.credentials):
                raise AcquisitionDenied(f"authentication failed for {request.user!r}")
            return
        secret = self.accounts.get(request.user)
        if secret is None or request.credentials.get("secret") != secret:
            raise AcquisitionDenied(f"authentication failed for {request.user!r}")


class ServiceWhitelistPolicy(AccessPolicy):
    """Only a handpicked set of services may be acquired.

    This models the ISP-curated end of the spectrum (a Music-Freedom-style
    shortlist) — the mechanism supports it even though the paper argues
    users want more.
    """

    def __init__(self, allowed_services: set[str]) -> None:
        self.allowed_services = set(allowed_services)

    def authorize(self, request: AcquisitionRequest) -> None:
        if request.service not in self.allowed_services:
            raise AcquisitionDenied(
                f"service {request.service!r} is not offered to subscribers"
            )


class QuotaPolicy(AccessPolicy):
    """At most N grants per user per rolling period.

    Models "get a limited monthly quota for free": the period is a
    parameter, so tests can use short windows.
    """

    def __init__(self, max_grants: int, period: float) -> None:
        if max_grants <= 0 or period <= 0:
            raise ValueError("quota and period must be positive")
        self.max_grants = max_grants
        self.period = period
        self._grants: dict[str, list[float]] = {}

    def authorize(self, request: AcquisitionRequest) -> None:
        history = self._grants.get(request.user, [])
        recent = [t for t in history if request.time - t < self.period]
        if len(recent) >= self.max_grants:
            raise AcquisitionDenied(
                f"{request.user!r} exhausted quota of {self.max_grants} "
                f"per {self.period}s"
            )

    def on_granted(self, request: AcquisitionRequest) -> None:
        history = self._grants.setdefault(request.user, [])
        history.append(request.time)
        # Trim history outside the window to bound state.
        self._grants[request.user] = [
            t for t in history if request.time - t < self.period
        ]


class PrepaidPolicy(AccessPolicy):
    """Each grant debits a per-user balance ("pay per burst").

    ``prices`` maps service name to cost; unknown services use
    ``default_price``.
    """

    def __init__(
        self,
        balances: dict[str, float],
        prices: dict[str, float] | None = None,
        default_price: float = 1.0,
    ) -> None:
        self.balances = dict(balances)
        self.prices = dict(prices or {})
        self.default_price = default_price

    def price_of(self, service: str) -> float:
        return self.prices.get(service, self.default_price)

    def authorize(self, request: AcquisitionRequest) -> None:
        balance = self.balances.get(request.user, 0.0)
        if balance < self.price_of(request.service):
            raise AcquisitionDenied(
                f"{request.user!r} has insufficient balance for "
                f"{request.service!r}"
            )

    def on_granted(self, request: AcquisitionRequest) -> None:
        self.balances[request.user] = self.balances.get(
            request.user, 0.0
        ) - self.price_of(request.service)


class AllOfPolicy(AccessPolicy):
    """Composite: every sub-policy must authorize; all record the grant."""

    def __init__(self, policies: list[AccessPolicy]) -> None:
        if not policies:
            raise ValueError("AllOfPolicy needs at least one policy")
        self.policies = list(policies)

    def authorize(self, request: AcquisitionRequest) -> None:
        for policy in self.policies:
            policy.authorize(request)

    def on_granted(self, request: AcquisitionRequest) -> None:
        for policy in self.policies:
            policy.on_granted(request)
