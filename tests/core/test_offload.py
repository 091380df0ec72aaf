"""Hardware prefilter tests (§4.6 hardware/software co-design)."""

import pytest

from repro.core import (
    CookieDescriptor,
    CookieGenerator,
    CookieMatcher,
    DescriptorStore,
)
from repro.core.offload import HardwarePrefilter
from repro.core.switch import CookieSwitch
from repro.core.transport import default_registry
from repro.netsim.appmsg import TLSClientHello
from repro.netsim.flow import FiveTuple, flow_key_of
from repro.netsim.middlebox import Sink
from repro.netsim.packet import make_tcp_packet
from repro.services.zerorate import StatelessZeroRater, ZeroRatingMiddlebox


def _env(**kwargs):
    store = DescriptorStore()
    descriptor = store.add(CookieDescriptor.create(service_data="zero-rate"))
    prefilter = HardwarePrefilter(store, clock=lambda: 0.0, **kwargs)
    software, fast = Sink(), Sink()
    prefilter.software(software)
    prefilter.fast(fast)
    return store, descriptor, prefilter, software, fast


def _cookied(descriptor, sport=5000, when=0.0):
    packet = make_tcp_packet(
        "10.0.0.1", sport, "2.2.2.2", 443, content=TLSClientHello(sni="x.com")
    )
    cookie = CookieGenerator(descriptor, clock=lambda: when).generate()
    default_registry().attach(packet, cookie)
    return packet


def _plain(sport=6000):
    return make_tcp_packet(
        "10.0.0.1", sport, "2.2.2.2", 443, payload_size=1200, encrypted=True
    )


class _SteppingClock:
    """Starts at ``now`` and steps ``step`` seconds per read; counts reads."""

    def __init__(self, now, step):
        self.now = now
        self.step = step
        self.reads = 0

    def __call__(self):
        self.reads += 1
        now = self.now
        self.now += self.step
        return now


@pytest.mark.parametrize(
    "build",
    [
        lambda store, clock: HardwarePrefilter(store, clock=clock, nct=5.0),
        lambda store, clock: CookieSwitch(CookieMatcher(store), clock=clock),
        lambda store, clock: ZeroRatingMiddlebox(CookieMatcher(store), clock=clock),
        lambda store, clock: StatelessZeroRater(CookieMatcher(store), clock=clock),
    ],
    ids=["prefilter", "switch", "middlebox", "stateless"],
)
def test_process_batch_reads_the_clock_once_per_burst(build):
    """One burst, one observation time (PROTOCOL §9): with a clock that
    moves 3 s per read, two cookies minted at t=0 and checked at t=4
    against NCT 5 s must be judged at the same instant."""
    store = DescriptorStore()
    descriptor = store.add(CookieDescriptor.create(service_data="zero-rate"))
    clock = _SteppingClock(now=4.0, step=3.0)
    element = build(store, clock)
    element >> Sink()
    element.process_batch(
        [_cookied(descriptor, sport=5000), _cookied(descriptor, sport=5001)]
    )
    assert clock.reads == 1


class TestSteering:
    def test_cookieless_packets_take_fast_path(self):
        _store, _descriptor, prefilter, software, fast = _env()
        for i in range(10):
            prefilter.push(_plain(sport=6000 + i))
        assert fast.count == 10 and software.count == 0
        assert prefilter.stats.software_fraction == 0.0

    def test_cookied_packets_go_to_software(self):
        _store, descriptor, prefilter, software, fast = _env()
        prefilter.push(_cookied(descriptor))
        assert software.count == 1 and fast.count == 0

    def test_unknown_id_filtered_in_hardware(self):
        _store, _descriptor, prefilter, software, fast = _env()
        stranger = CookieDescriptor.create()
        prefilter.push(_cookied(stranger))
        assert fast.count == 1 and software.count == 0
        assert prefilter.stats.dropped_early_unknown_id == 1

    def test_stale_timestamp_filtered_in_hardware(self):
        _store, descriptor, prefilter, software, fast = _env()
        prefilter.push(_cookied(descriptor, when=1_000_000.0))
        assert fast.count == 1
        assert prefilter.stats.dropped_early_stale == 1

    def test_checks_can_be_disabled(self):
        """A presence-only pipeline sends every cookied packet up."""
        _store, _descriptor, prefilter, software, _fast = _env(
            check_ids=False, check_timestamp=False
        )
        prefilter.push(_cookied(CookieDescriptor.create(), when=1_000_000.0))
        assert software.count == 1

    def test_default_downstream_when_unwired(self):
        store = DescriptorStore()
        prefilter = HardwarePrefilter(store, clock=lambda: 0.0)
        sink = Sink()
        prefilter >> sink
        prefilter.push(_plain())
        assert sink.count == 1


class TestFlowOffload:
    def test_offloaded_flow_bypasses_software(self):
        _store, descriptor, prefilter, software, fast = _env()
        first = _cookied(descriptor)
        prefilter.push(first)  # goes to software
        counted = []
        prefilter.offload_flow(flow_key_of(first), counted.append)
        follow_up = make_tcp_packet(
            "10.0.0.1", 5000, "2.2.2.2", 443, payload_size=1200
        )
        prefilter.push(follow_up)
        assert fast.count == 1 and software.count == 1
        assert counted == [follow_up]
        assert prefilter.stats.offloaded_hits == 1

    def test_reverse_direction_hits_offload(self):
        _store, descriptor, prefilter, _software, fast = _env()
        first = _cookied(descriptor)
        prefilter.push(first)
        prefilter.offload_flow(flow_key_of(first))
        reverse = make_tcp_packet("2.2.2.2", 443, "10.0.0.1", 5000, payload_size=900)
        prefilter.push(reverse)
        assert fast.count == 1

    def test_evict(self):
        _store, descriptor, prefilter, software, _fast = _env()
        first = _cookied(descriptor)
        key = flow_key_of(first)
        prefilter.offload_flow(key)
        assert prefilter.offloaded_flows == 1
        assert prefilter.evict_flow(key)
        assert not prefilter.evict_flow(key)

    def test_non_ip_goes_to_fast_path(self):
        from repro.netsim.packet import Packet

        _store, _descriptor, prefilter, software, fast = _env()
        prefilter.push(Packet())
        assert fast.count == 1 and software.count == 0


class TestCoDesignWithZeroRating:
    def test_middlebox_offloads_resolved_flows(self):
        """The full §4.6 co-design: software resolves each flow once,
        installs a hardware counter, and never sees the flow again."""
        store = DescriptorStore()
        descriptor = store.add(CookieDescriptor.create(service_data="zero-rate"))
        prefilter = HardwarePrefilter(store, clock=lambda: 0.0)
        hw_counted = {"packets": 0}

        middlebox = ZeroRatingMiddlebox(
            CookieMatcher(store),
            clock=lambda: 0.0,
            on_flow_resolved=lambda key, state: prefilter.offload_flow(
                FiveTuple(*key),
                lambda _p: hw_counted.__setitem__(
                    "packets", hw_counted["packets"] + 1
                ),
            ),
        )
        fast = Sink(keep=False)
        prefilter.software(middlebox)
        prefilter.fast(fast)

        prefilter.push(_cookied(descriptor))  # software resolves + offloads
        for _ in range(20):
            prefilter.push(_plain(sport=5000))
        assert middlebox.packets_processed == 1  # software saw one packet
        assert hw_counted["packets"] == 20
        assert prefilter.stats.offloaded_hits == 20

    def test_charged_flows_resolve_once_in_software(self):
        """A cookieless flow (seen by software, e.g. when no hardware
        presence filter is deployed) resolves as charged exactly once
        when the sniff window closes."""
        store = DescriptorStore()
        offloads = []
        middlebox = ZeroRatingMiddlebox(
            CookieMatcher(store),
            clock=lambda: 0.0,
            sniff_packets=3,
            on_flow_resolved=lambda key, state: offloads.append(
                (FiveTuple(*key), state.zero_rated)
            ),
        )
        for _ in range(5):
            middlebox.handle(_plain(sport=7000))
        # Sniff window is 3 packets; resolution fires exactly once.
        assert len(offloads) == 1
        assert offloads[0][1] is False  # charged
