"""Hardware/software co-design for cookie processing (§4.6).

"The hardware could detect and forward to software only packets that
contain cookies, avoiding the extra overhead for all other packets.  It
could further verify the timestamp and look the cookie id against a table
of known descriptors, further reducing the amount of packets that need to
go to software."

:class:`HardwarePrefilter` models a configurable pipeline (think P4) that
runs only the checks real match-action hardware can do — fixed-offset
presence detection, a timestamp range compare, and an exact-match table
lookup on the cookie id — and steers packets to either the software slow
path (a cookie switch or zero-rating middlebox) or a hardware fast path
that skips cookie work entirely.  HMAC verification and replay tracking
stay in software, as the paper's hardware discussion assumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..netsim.flow import FiveTuple, flow_key_of
from ..netsim.middlebox import Element
from ..netsim.packet import Packet
from .cookie import Cookie
from .store import DescriptorStore
from .transport.registry import TransportRegistry, default_registry

__all__ = ["PrefilterStats", "HardwarePrefilter"]


@dataclass
class PrefilterStats:
    """Where packets went and why."""

    packets: int = 0
    fast_path: int = 0
    to_software: int = 0
    offloaded_hits: int = 0
    dropped_early_unknown_id: int = 0
    dropped_early_stale: int = 0

    @property
    def software_fraction(self) -> float:
        return self.to_software / self.packets if self.packets else 0.0


class HardwarePrefilter(Element):
    """Steers only cookie-relevant packets to the software slow path.

    Stages (each optional, mirroring increasing hardware capability):

    1. *presence*: does any carrier find cookie bytes at all?  Packets
       without cookies take the fast path.
    2. *id check* (``check_ids=True``): is the cookie id in the known-
       descriptor exact-match table?  Unknown ids are treated as absent —
       the service would not have been granted anyway.
    3. *timestamp check* (``check_timestamp=True``): is the timestamp
       within NCT of now?  Stale cookies likewise take the fast path.

    Wire software with :meth:`software` and the fast path with
    :meth:`fast` (both default to the element's plain downstream).
    """

    def __init__(
        self,
        store: DescriptorStore,
        clock: Callable[[], float],
        registry: TransportRegistry | None = None,
        nct: float = 5.0,
        check_ids: bool = True,
        check_timestamp: bool = True,
        name: str = "hw-prefilter",
    ) -> None:
        super().__init__(name)
        self.store = store
        self.clock = clock
        self.registry = registry or default_registry()
        self.nct = nct
        self.check_ids = check_ids
        self.check_timestamp = check_timestamp
        self.software_path: Element | None = None
        self.fast_path: Element | None = None
        self._offloaded: dict[FiveTuple, Callable[[Packet], None]] = {}
        self.stats = PrefilterStats()

    def software(self, element: Element) -> Element:
        """Attach the software slow path (the cookie-aware middlebox)."""
        self.software_path = element
        return element

    def fast(self, element: Element) -> Element:
        """Attach the hardware fast path (no cookie work)."""
        self.fast_path = element
        return element

    # ------------------------------------------------------------------
    # Flow offload: software installs per-flow hardware actions
    # ------------------------------------------------------------------
    def offload_flow(
        self, key: FiveTuple, action: Callable[[Packet], None] | None = None
    ) -> None:
        """Install a hardware entry for a resolved flow.

        After software binds (or definitively rejects) a flow, it pushes
        the per-packet action — a counter increment, a class marking —
        down to hardware; every later packet of that flow then takes the
        fast path with the action applied in hardware.  ``key`` must be
        the canonical (direction-folded) flow key.
        """
        self._offloaded[key] = action or (lambda _p: None)

    def evict_flow(self, key: FiveTuple) -> bool:
        """Remove a hardware entry (flow ended or table pressure)."""
        return self._offloaded.pop(key, None) is not None

    @property
    def offloaded_flows(self) -> int:
        return len(self._offloaded)

    # ------------------------------------------------------------------
    def _hardware_accepts(self, cookie: Cookie, now: float) -> bool:
        """The checks an exact-match + range-compare pipeline can do."""
        if self.check_ids and self.store.get(cookie.cookie_id) is None:
            self.stats.dropped_early_unknown_id += 1
            return False
        if self.check_timestamp and abs(cookie.timestamp - now) > self.nct:
            self.stats.dropped_early_stale += 1
            return False
        return True

    def handle(self, packet: Packet) -> None:
        """One packet is a burst of one."""
        self.process_batch([packet])

    def process_batch(self, packets: list[Packet]) -> None:
        """Steering: partition one rx burst, then one push per path.

        Per packet: offload hit → fast with the installed action
        applied; hardware-visible cookie → software; otherwise fast.  The
        clock is read once per burst, so every cookie in it is checked
        against one observation time.  Each target receives its packets
        as a single burst, in arrival order within that path; the
        interleaving across the two paths is not kept.

        The whole burst is steered before software sees any of it, so
        each packet gets the decision a burst of one would give it
        against the offload entries installed *before* the burst.  A
        flow that software resolves mid-burst (``offload_flow`` from
        the middlebox's resolve hook) is offloaded from the next burst
        on: its later packets in this burst take the fast path without
        the action and do not count as ``offloaded_hits``.
        """
        now = self.clock()
        stats = self.stats
        stats.packets += len(packets)
        offloaded = self._offloaded
        extract_all = self.registry.extract_all
        hardware_accepts = self._hardware_accepts
        to_software: list[Packet] = []
        to_fast: list[Packet] = []
        for packet in packets:
            try:
                key = flow_key_of(packet)
            except ValueError:
                key = None
            if key is not None:
                action = offloaded.get(key)
                if action is not None:
                    action(packet)
                    stats.offloaded_hits += 1
                    stats.fast_path += 1
                    to_fast.append(packet)
                    continue
            if any(
                hardware_accepts(cookie, now)
                for cookie, _name in extract_all(packet)
            ):
                stats.to_software += 1
                to_software.append(packet)
            else:
                stats.fast_path += 1
                to_fast.append(packet)
        software_target = self.software_path or self.downstream
        if software_target is not None and to_software:
            software_target.push_batch(to_software)
        fast_target = self.fast_path or self.downstream
        if fast_target is not None and to_fast:
            fast_target.push_batch(to_fast)
