"""Gap-filling tests for paths the main suites don't reach."""

import asyncio

from repro.core import (
    CookieServer,
    ServiceOffering,
    UserAgent,
)
from repro.core.netserver import AsyncCookieServer, request_over_tcp
from repro.trace.records import FlowRecord, flow_to_packets


def _with_live_server(sync_scenario):
    """Run the async cookie server in a live loop while ``sync_scenario``
    (which uses the blocking ``request_over_tcp`` helper) executes in a
    worker thread — the deployment shape the helper exists for."""

    async def harness():
        server = CookieServer(clock=lambda: 0.0)
        server.offer(ServiceOffering(name="Boost"))
        tcp = AsyncCookieServer(server)
        host, port = await tcp.start()
        try:
            return await asyncio.to_thread(sync_scenario, host, port)
        finally:
            await tcp.stop()

    return asyncio.run(harness())


class TestRequestOverTcpHelper:
    def test_one_shot_request(self):
        def scenario(host, port):
            return request_over_tcp(host, port, {"op": "list_services"})

        response = _with_live_server(scenario)
        assert response["ok"]
        assert response["services"][0]["name"] == "Boost"

    def test_as_user_agent_channel(self):
        def scenario(host, port):
            agent = UserAgent(
                "alice",
                clock=lambda: 0.0,
                channel=lambda req: request_over_tcp(host, port, req),
            )
            return agent.acquire("Boost")

        descriptor = _with_live_server(scenario)
        assert descriptor.service_data == "Boost"


class TestOfferingDetails:
    def test_extra_fields_advertised(self):
        server = CookieServer(clock=lambda: 0.0)
        server.offer(
            ServiceOffering(name="Boost", extra={"price_per_hour": 0.50})
        )
        assert server.list_services()[0]["price_per_hour"] == 0.50

    def test_none_lifetime_never_expires(self):
        server = CookieServer(clock=lambda: 0.0)
        server.offer(ServiceOffering(name="forever", lifetime=None))
        descriptor = server.acquire("u", "forever")
        assert descriptor.attributes.expires_at is None

    def test_service_data_defaults_to_name(self):
        server = CookieServer(clock=lambda: 0.0)
        server.offer(ServiceOffering(name="Boost"))
        assert server.acquire("u", "Boost").service_data == "Boost"


class TestFlowExpansionEdges:
    def _record(self, packets=10):
        return FlowRecord(
            start_time=0.0, client_ip="10.0.0.1", client_port=1,
            server_ip="2.2.2.2", server_port=443, packets=packets,
        )

    def test_all_downlink(self):
        packets = list(flow_to_packets(self._record(), downlink_fraction=1.0))
        downlink = [p for p in packets if p.src_ip == "2.2.2.2"]
        assert len(downlink) == 9  # everything after the request

    def test_all_uplink(self):
        packets = list(flow_to_packets(self._record(), downlink_fraction=0.0))
        assert all(p.src_ip == "10.0.0.1" for p in packets)

    def test_single_packet_flow(self):
        packets = list(flow_to_packets(self._record(packets=1)))
        assert len(packets) == 1


class TestWmmConstants:
    def test_access_category_tuple(self):
        from repro.netsim import WMM_ACCESS_CATEGORIES
        from repro.netsim.queues import WMMScheduler

        assert set(WMM_ACCESS_CATEGORIES) == set(WMMScheduler.DEFAULT_WEIGHTS)
        # Priority ordering of the weights themselves.
        weights = WMMScheduler.DEFAULT_WEIGHTS
        assert weights["voice"] > weights["video"] > weights["best_effort"]
        assert weights["best_effort"] > weights["background"]
