"""The Boost browser agent (§5.1).

A Chrome-extension analogue: it hooks the browser's outgoing requests and
lets the user express preferences in exactly the two forms the paper
shipped:

- **Boost a tab** — all traffic from/to a specific tab is boosted, until
  the tab closes or an hour passes;
- **Always boost a website** — remembered; whenever the user visits the
  site (defined by "the domain at the browser's address bar"), every flow
  generated within that tab is boosted.

The agent acquires a fresh boost descriptor per boost event (a "boost
request to a well-known server using a JSON message") and inserts cookies
into matching requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ...core import UserAgent
from ...core.client import RequestChannel
from ...core.transport import TransportRegistry
from ...netsim.packet import Packet
from ...web.browser import Browser, RequestContext, Tab
from .server import BOOST_EVENT_LIFETIME, BOOST_SERVICE

__all__ = ["BoostAgent", "BoostPreferences"]


@dataclass
class BoostPreferences:
    """The user's standing preferences, as the extension stores them."""

    always_boost: set[str]
    boosted_tabs: dict[int, float]  # tab id -> boost expiry time

    def snapshot(self) -> dict[str, Any]:
        return {
            "always_boost": sorted(self.always_boost),
            "boosted_tabs": dict(self.boosted_tabs),
        }


class BoostAgent:
    """The user-facing agent: preferences in, cookies out."""

    def __init__(
        self,
        user: str,
        clock: Callable[[], float],
        channel: RequestChannel,
        registry: TransportRegistry | None = None,
        tab_boost_lifetime: float = BOOST_EVENT_LIFETIME,
    ) -> None:
        self.clock = clock
        self.agent = UserAgent(user, clock=clock, channel=channel, registry=registry)
        self.preferences = BoostPreferences(always_boost=set(), boosted_tabs={})
        self.tab_boost_lifetime = tab_boost_lifetime
        self.cookies_inserted = 0
        self.requests_seen = 0

    # ------------------------------------------------------------------
    # Preference UI (what the extension's buttons do)
    # ------------------------------------------------------------------
    def boost_tab(self, tab: Tab) -> None:
        """Boost all traffic from this tab until it closes or an hour
        passes."""
        self.preferences.boosted_tabs[tab.tab_id] = (
            self.clock() + self.tab_boost_lifetime
        )

    def always_boost(self, domain: str) -> None:
        """Remember: whenever the user visits ``domain``, boost it."""
        self.preferences.always_boost.add(domain.lower())

    def attach(self, browser: Browser) -> None:
        """Install the request hook into a browser."""
        browser.on_request(self.on_request)

    # ------------------------------------------------------------------
    # The request hook
    # ------------------------------------------------------------------
    def _tab_boosted(self, tab: Tab) -> bool:
        expiry = self.preferences.boosted_tabs.get(tab.tab_id)
        if expiry is None:
            return False
        if tab.closed or self.clock() > expiry:
            self.preferences.boosted_tabs.pop(tab.tab_id, None)
            return False
        return True

    def should_boost(self, context: RequestContext) -> bool:
        """Does this request match the user's preferences?"""
        if self._tab_boosted(context.tab):
            return True
        return context.address_bar_domain.lower() in self.preferences.always_boost

    def on_request(self, packet: Packet, context: RequestContext) -> None:
        """Browser hook: tag matching requests with a boost cookie."""
        self.requests_seen += 1
        if not self.should_boost(context):
            return
        transport = self.agent.insert_cookie(packet, BOOST_SERVICE)
        if transport is not None:
            self.cookies_inserted += 1
