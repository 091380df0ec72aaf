"""Scenario integration tests: the paper's motivating stories, end to end."""

import pytest

from repro.core import (
    CookieAttributes,
    CookieGenerator,
    CookieMatcher,
    CookieServer,
    DescriptorStore,
    PrepaidPolicy,
    ServiceOffering,
    UserAgent,
)
from repro.core.switch import CookieSwitch
from repro.core.transport import default_registry
from repro.netsim.appmsg import TLSClientHello
from repro.netsim.middlebox import Sink
from repro.netsim.packet import make_tcp_packet


class TestLegacyConsoleStory:
    """§3's DiffServ indictment: an opportunistic device obtains a paid
    class without consent and cannot be revoked; with cookies, the same
    user CAN revoke."""

    def test_diffserv_console_charges_without_consent(self):
        from repro.baselines.diffserv import (
            DscpClassTable,
            DscpEnforcer,
            OpportunisticMarker,
        )

        table = DscpClassTable()
        table.define(34, "low-latency-paid")
        console = OpportunisticMarker(dscp=34)
        enforcer = DscpEnforcer(table)
        sink = Sink()
        console >> enforcer
        enforcer >> sink
        charged_bytes = 0
        for i in range(20):
            packet = make_tcp_packet("192.168.1.66", 3074 + i, "8.8.8.8", 443,
                                     payload_size=500)
            console.push(packet)
            if packet.meta.get("service") == "low-latency-paid":
                charged_bytes += packet.wire_length
        # The user never consented; there is no revocation primitive.
        assert charged_bytes > 0

    def test_cookie_console_is_revocable(self):
        """The same story with cookies: the console holds a descriptor
        the user cannot extract from its firmware — but she asks the
        NETWORK to invalidate it, and the charges stop."""
        clock = lambda: 0.0  # noqa: E731
        server = CookieServer(clock=clock)
        server.offer(ServiceOffering(name="low-latency"))
        store = DescriptorStore()
        server.attach_enforcement_store(store)
        agent = UserAgent("owner", clock=clock, channel=server.handle_request)
        descriptor = agent.acquire("low-latency")

        # The console keeps stamping cookies (firmware the user cannot
        # update)...
        console_generator = CookieGenerator(descriptor, clock)
        switch = CookieSwitch(CookieMatcher(store), clock=clock)
        sink = Sink()
        switch >> sink
        registry = default_registry()

        def console_packet(sport):
            packet = make_tcp_packet("192.168.1.66", sport, "8.8.8.8", 443)
            registry.attach(packet, console_generator.generate())
            return packet

        switch.push(console_packet(3074))
        assert sink.packets[0].meta.get("service") == "low-latency"

        # ...until the owner revokes via the server: charges stop.
        assert agent.request_revocation("low-latency")
        switch.push(console_packet(3075))
        assert "service" not in sink.packets[1].meta


class TestPayPerBurstStory:
    """§1's "users can pay per burst": a researcher buys bursts of high
    bandwidth before a deadline, under a prepaid policy."""

    def test_burst_purchases_debit_and_deny(self):
        clock = lambda: 0.0  # noqa: E731
        policy = PrepaidPolicy(balances={"researcher": 2.5}, default_price=1.0)
        server = CookieServer(clock=clock, policy=policy)
        server.offer(ServiceOffering(name="burst", lifetime=60.0))
        agent = UserAgent("researcher", clock=clock, channel=server.handle_request)

        for _ in range(2):
            agent.acquire("burst")
        assert policy.balances["researcher"] == pytest.approx(0.5)
        from repro.core import AcquisitionDenied

        with pytest.raises(AcquisitionDenied):
            agent.acquire("burst")
        policy.balances["researcher"] += 5.0
        agent.acquire("burst")  # solvent again
        # Denial is visible to the auditor alongside the grants.
        report = server.audit_log.regulator_report()["services"]["burst"]
        assert report["granted"] == 3 and report["denied"] == 1


class TestThirdPartySponsorStory:
    """§6: "a school or non-profit could subsidize the cost of data
    delivery for certain educational videos" — a third party (neither
    user nor ISP nor content provider) holds the descriptor and stamps
    the content's downlink."""

    def test_school_sponsors_educational_video(self):
        from repro.core import DelegatedParty, delegate_descriptor

        clock = lambda: 0.0  # noqa: E731
        server = CookieServer(clock=clock)
        server.offer(
            ServiceOffering(
                name="sponsored-data",
                service_data="zero-rate",
                attribute_factory=lambda now: CookieAttributes(shared=True),
            )
        )
        store = DescriptorStore()
        server.attach_enforcement_store(store)
        descriptor = server.acquire("school-district", "sponsored-data")

        # The school delegates to the educational video host.
        host = DelegatedParty("edu-video-cdn", clock=clock)
        host.accept_delegation(
            delegate_descriptor(descriptor, "edu-video-cdn",
                                audit_log=server.audit_log,
                                by="school-district")
        )

        from repro.services.zerorate import ZeroRatingMiddlebox

        middlebox = ZeroRatingMiddlebox(CookieMatcher(store), clock=clock)
        downlink = make_tcp_packet(
            "203.0.113.80", 443, "10.5.0.3", 50_000, payload_size=1400,
            content=TLSClientHello(sni=""),
        )
        host.stamp(downlink, descriptor.cookie_id)
        middlebox.handle(downlink)
        counters = middlebox.counters_for("10.5.0.3")
        assert counters.free_bytes == downlink.wire_length
        # The audit trail shows school -> cdn delegation chain.
        delegations = [
            r for r in server.audit_log if r.event == "delegated"
        ]
        assert delegations[0].detail["delegate"] == "edu-video-cdn"


class TestNetflixOnTvNotTablet:
    """§5.3's user anecdote: "prioritize Netflix on his TV, but not
    Netflix on his kids' tablets" — impossible for DPI (same SNI), easy
    with cookies (only the TV's agent inserts them)."""

    def _netflix_packet(self, src_ip, sport):
        return make_tcp_packet(
            src_ip, sport, "198.45.48.10", 443,
            content=TLSClientHello(sni="nflxvideo.net"),
        )

    def test_cookies_distinguish_devices_dpi_cannot(self):
        clock = lambda: 0.0  # noqa: E731
        server = CookieServer(clock=clock)
        server.offer(ServiceOffering(name="Boost"))
        store = DescriptorStore()
        server.attach_enforcement_store(store)
        tv_agent = UserAgent("tv", clock=clock, channel=server.handle_request)

        switch = CookieSwitch(CookieMatcher(store), clock=clock)
        sink = Sink()
        switch >> sink

        tv_packet = self._netflix_packet("192.168.1.20", 5000)
        tv_agent.insert_cookie(tv_packet, "Boost")
        tablet_packet = self._netflix_packet("192.168.1.21", 5000)

        switch.push(tv_packet)
        switch.push(tablet_packet)
        assert sink.packets[0].meta.get("service") == "Boost"
        assert "service" not in sink.packets[1].meta

        # DPI sees identical SNI for both devices: it cannot express this
        # preference at all.
        from repro.baselines.dpi import DpiEngine

        engine = DpiEngine()
        assert engine.label_of(self._netflix_packet("192.168.1.20", 6000)) == \
            engine.label_of(self._netflix_packet("192.168.1.21", 6001))
