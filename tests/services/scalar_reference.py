"""Per-packet reference elements for the differential suites.

The shipped middlebox, cookie switch and hardware prefilter have one
packet path each: ``handle(packet)`` is ``process_batch([packet])``.  A
suite that compared a burst with bursts of one would run that same loop
on both sides, so a bug in new-flow creation, eviction, LRU order, the
fail-safe or head-packet billing would reach both and pass.

These subclasses keep an independent reference instead: the per-packet
``handle`` bodies each element had before its burst loop became its only
path, written for one packet at a time with the clock read per packet.
``process_batch`` is :class:`Element`'s default loop over that
``handle``, so the reference never enters the shipped burst loop.  Only
the lookups and side effects the burst loop also calls through
(``_evict_for_space``, ``_subscriber_side``, the switch's
``_try_cookie`` / ``_serve_bound``, the prefilter's
``_hardware_accepts``) are shared.
"""

from __future__ import annotations

from repro.core.offload import HardwarePrefilter
from repro.core.switch import CookieSwitch
from repro.netsim.flow import flow_key_of
from repro.netsim.middlebox import Element
from repro.services.zerorate.middlebox import (
    _NO_FLUSH_CALLBACK,
    BillingFlushRequired,
    SubscriberCounters,
    ZeroRatingMiddlebox,
    _FlowState,
    _subscriber_side,
)

__all__ = [
    "ScalarZeroRatingMiddlebox",
    "ScalarCookieSwitch",
    "ScalarHardwarePrefilter",
]


class ScalarZeroRatingMiddlebox(ZeroRatingMiddlebox):
    """:class:`ZeroRatingMiddlebox` classifying one packet at a time."""

    process_batch = Element.process_batch

    def handle(self, packet):
        now = self.clock()
        self.packets_processed += 1
        ip = packet.ip
        l4 = packet.l4
        if ip is None or l4 is None:
            self.emit(packet)
            return
        src, sport, dst, dport = ip.src, l4.src_port, ip.dst, l4.dst_port
        if src < dst or (src == dst and sport <= dport):
            key = (src, sport, dst, dport, ip.proto)
        else:
            key = (dst, dport, src, sport, ip.proto)
        # pop + reinsert moves the entry to the recent end of the dict.
        flows = self._flows
        state = flows.pop(key, None)
        if state is None:
            self._evict_for_space(now)
            state = self._fresh_flow(src, dst)
        elif now - state.last_seen > self.flow_idle_timeout:
            # The real box would have aged this entry out already; what it
            # sees now is a brand-new flow.
            self.flows_evicted_idle += 1
            state = self._fresh_flow(src, dst)
        state.last_seen = now
        flows[key] = state
        state.packets_seen += 1

        if not state.resolved and state.packets_seen <= self.sniff_packets:
            found = self.registry.extract(packet)
            if found is not None:
                packet.meta["cookie_checked"] = True
                descriptor = self._verify_failsafe(found[0], now)
                if descriptor is not None:
                    state.zero_rated = True
                    state.service = descriptor.service_data
                    self.cookie_hits += 1
                    self._resolve(key, state)
                else:
                    self.cookie_misses += 1
            if not state.resolved and state.packets_seen >= self.sniff_packets:
                # Sniff window closed without a valid cookie: charged for
                # good, and the offload hook still fires.
                self._resolve(key, state)

        if self._bill_packet(state, packet, now):
            packet.meta["zero_rated"] = True
        self.emit(packet)

    def _verify_failsafe(self, cookie, now):
        """A verifier error counts as no match: the flow stays charged."""
        try:
            return self.matcher.match(cookie, now)
        except Exception:
            self.verifier_failures += 1
            return None

    def _resolve(self, key, state):
        state.resolved = True
        self.flows_resolved += 1
        if self.on_flow_resolved is not None:
            self.on_flow_resolved(key, state)

    def _fresh_flow(self, src, dst):
        if _subscriber_side(self.is_subscriber, src, dst) == src:
            return _FlowState(subscriber_ip=src, remote_ip=dst)
        return _FlowState(subscriber_ip=dst, remote_ip=src)

    def _bill_packet(self, state, packet, now):
        """Bill one packet through ``billing.account``; returns whether
        its bytes rode free."""
        counters = self.counters.get(state.subscriber_ip)
        if counters is None:
            while len(self.counters) >= self.max_subscribers:
                if self.billing is not None and self.on_subscriber_evicted is None:
                    raise BillingFlushRequired(_NO_FLUSH_CALLBACK)
                evicted_ip = next(iter(self.counters))
                evicted = self.counters.pop(evicted_ip)
                self.subscribers_evicted += 1
                self.evicted_bytes.free_bytes += evicted.free_bytes
                self.evicted_bytes.charged_bytes += evicted.charged_bytes
                if self.on_subscriber_evicted is not None:
                    self.on_subscriber_evicted(evicted_ip, evicted)
            counters = SubscriberCounters()
            self.counters[state.subscriber_ip] = counters
        elif state.packets_seen == 1:
            # Subscriber recency is kept at flow granularity.
            del self.counters[state.subscriber_ip]
            self.counters[state.subscriber_ip] = counters
        if self.billing is not None:
            free = self.billing.account(
                state.subscriber_ip,
                state.service if state.zero_rated else None,
                state.remote_ip,
                packet.wire_length,
                cookied=state.zero_rated,
                now=now,
            )
        else:
            free = state.zero_rated
        if free:
            counters.free_bytes += packet.wire_length
        else:
            counters.charged_bytes += packet.wire_length
        return free


class ScalarCookieSwitch(CookieSwitch):
    """:class:`CookieSwitch` switching one packet at a time."""

    process_batch = Element.process_batch

    def handle(self, packet):
        now = self.clock()
        self.stats.packets += 1
        try:
            flow, _is_new = self.flows.observe(packet, now)
        except ValueError:
            # Non-IP traffic passes through untouched.
            self.emit(packet)
            return
        if flow.service is not None:
            self._serve_bound(flow, packet, now)
            self.emit(packet)
            return
        if flow.packets <= self.sniff_packets:
            self.stats.packets_sniffed += 1
            self._try_cookie(flow, packet, now)
        self.emit(packet)


class ScalarHardwarePrefilter(HardwarePrefilter):
    """:class:`HardwarePrefilter` steering one packet at a time."""

    process_batch = Element.process_batch

    def handle(self, packet):
        now = self.clock()
        self.stats.packets += 1
        try:
            key = flow_key_of(packet)
        except ValueError:
            key = None
        if key is not None:
            action = self._offloaded.get(key)
            if action is not None:
                action(packet)
                self.stats.offloaded_hits += 1
                self.stats.fast_path += 1
                target = self.fast_path or self.downstream
                if target is not None:
                    target.push(packet)
                return
        needs_software = any(
            self._hardware_accepts(cookie, now)
            for cookie, _name in self.registry.extract_all(packet)
        )
        if needs_software:
            self.stats.to_software += 1
            target = self.software_path or self.downstream
        else:
            self.stats.fast_path += 1
            target = self.fast_path or self.downstream
        if target is not None:
            target.push(packet)
