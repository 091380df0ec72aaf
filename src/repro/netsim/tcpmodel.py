"""A compact TCP sender/receiver pair for flow-completion-time studies.

Fig. 5(b) of the paper reports the completion-time CDF of a 300 KB download
under three service classes (best-effort, boosted, throttled) over a 6 Mb/s
last-mile link.  To reproduce the shape we need a congestion-controlled
sender that actually reacts to queueing and loss in the simulated pipeline —
an open-loop source would not show the crossover behaviour.

:class:`TcpTransfer` implements NewReno-flavoured congestion control (IW10
slow start, AIMD congestion avoidance, fast retransmit on three duplicate
ACKs, RTO fallback) with cumulative ACKs.  Data segments travel through the
supplied downlink pipeline; ACKs return over a fixed-latency uplink, which
models the paper's asymmetric residential path where the uplink is not the
bottleneck.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from .events import EventLoop, ScheduledEvent
from .middlebox import Element
from .packet import Packet, make_tcp_packet

__all__ = ["TcpTransfer", "TransferEndpoint"]

MSS = 1460


class TransferEndpoint(Element):
    """Terminal element that dispatches data packets to their transfer.

    Senders tag each segment with ``meta['tcp_transfer']``; the endpoint
    routes arrivals back to that transfer object's receiver logic.  Packets
    without the tag (e.g. background UDP) are counted and dropped.
    """

    def __init__(self, name: str = "endpoint") -> None:
        super().__init__(name)
        self.untracked_packets = 0
        self.untracked_bytes = 0

    def handle(self, packet: Packet) -> None:
        transfer = packet.meta.get("tcp_transfer")
        if isinstance(transfer, TcpTransfer):
            transfer.on_data_arrival(packet)
        else:
            self.untracked_packets += 1
            self.untracked_bytes += packet.wire_length


@dataclass(slots=True)
class _SenderState:
    next_seg: int = 0
    highest_acked: int = 0
    cwnd: float = 10.0
    ssthresh: float = 64.0
    dupacks: int = 0
    in_recovery: bool = False
    rto_event: ScheduledEvent | None = field(default=None, repr=False)


class TcpTransfer:
    """One TCP download simulated at segment granularity.

    Parameters
    ----------
    loop:
        The shared event loop.
    path:
        Downlink pipeline head; data segments are pushed here and must
        eventually reach a :class:`TransferEndpoint`.
    size_bytes:
        Application bytes to deliver.
    ack_delay:
        One-way uplink latency for ACKs (uplink assumed uncongested).
    qos_class / qos_class_name:
        Stamped into ``packet.meta`` so schedulers and shapers downstream
        classify the flow; this is how experiments place a transfer in the
        fast lane or the throttled lane.
    """

    def __init__(
        self,
        loop: EventLoop,
        path: Element,
        size_bytes: int,
        *,
        src_ip: str = "203.0.113.10",
        src_port: int = 443,
        dst_ip: str = "192.168.1.100",
        dst_port: int = 50_000,
        ack_delay: float = 0.02,
        mss: int = MSS,
        qos_class: int | None = None,
        qos_class_name: str | None = None,
        meta: dict[str, Any] | None = None,
        on_complete: Callable[["TcpTransfer"], None] | None = None,
        rto_min: float = 0.5,
    ) -> None:
        if size_bytes <= 0:
            raise ValueError("transfer size must be positive")
        self.loop = loop
        self.path = path
        self.size_bytes = size_bytes
        self.mss = mss
        self.total_segments = (size_bytes + mss - 1) // mss
        self.ack_delay = ack_delay
        self.src_ip, self.src_port = src_ip, src_port
        self.dst_ip, self.dst_port = dst_ip, dst_port
        self.qos_class = qos_class
        self.qos_class_name = qos_class_name
        self.extra_meta = dict(meta or {})
        self.on_complete = on_complete
        self.rto_min = rto_min
        self.srtt: float | None = None
        self.state = _SenderState()
        self._received: set[int] = set()
        self._send_times: dict[int, float] = {}
        self._pending_acks: deque[int] = deque()
        self.start_time: float | None = None
        self.finish_time: float | None = None
        self.retransmissions = 0
        self.timeouts = 0

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the transfer at the current virtual time."""
        if self.start_time is not None:
            raise RuntimeError("transfer already started")
        self.start_time = self.loop.now
        self._fill_window()
        self._arm_rto()

    @property
    def completed(self) -> bool:
        return self.finish_time is not None

    @property
    def completion_time(self) -> float | None:
        """Flow completion time in seconds, or None if unfinished."""
        if self.start_time is None or self.finish_time is None:
            return None
        return self.finish_time - self.start_time

    def _segment_size(self, seg: int) -> int:
        if seg == self.total_segments - 1:
            remainder = self.size_bytes - seg * self.mss
            return remainder if remainder > 0 else self.mss
        return self.mss

    def _window_limit(self) -> int:
        return self.state.highest_acked + max(1, int(self.state.cwnd))

    def _fill_window(self) -> None:
        state = self.state
        while (
            state.next_seg < self.total_segments
            and state.next_seg < self._window_limit()
        ):
            self._send_segment(state.next_seg)
            state.next_seg += 1

    def _send_segment(self, seg: int) -> None:
        packet = make_tcp_packet(
            self.src_ip,
            self.src_port,
            self.dst_ip,
            self.dst_port,
            payload_size=self._segment_size(seg),
            seq=seg,
            created_at=self.loop.now,
        )
        packet.meta["tcp_transfer"] = self
        packet.meta["segment"] = seg
        if self.qos_class is not None:
            packet.meta["qos_class"] = self.qos_class
        if self.qos_class_name is not None:
            packet.meta["qos_class_name"] = self.qos_class_name
        packet.meta.update(self.extra_meta)
        self._send_times.setdefault(seg, self.loop.now)
        self.path.push(packet)

    # ------------------------------------------------------------------
    # Receiver side (invoked by the TransferEndpoint)
    # ------------------------------------------------------------------
    def on_data_arrival(self, packet: Packet) -> None:
        """Receiver logic: record the segment, send a cumulative ACK."""
        seg = packet.meta["segment"]
        self._received.add(seg)
        cumulative = self.state.highest_acked
        while cumulative in self._received:
            cumulative += 1
        # The uplink latency is constant, so ACKs arrive in the order
        # they were sent: a FIFO plus one bound-method event per ACK
        # avoids allocating a closure for every received segment.
        self._pending_acks.append(cumulative)
        self.loop.schedule(self.ack_delay, self._deliver_ack)

    def _deliver_ack(self) -> None:
        self._on_ack(self._pending_acks.popleft())

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def _on_ack(self, ack: int) -> None:
        if self.completed:
            return
        state = self.state
        if ack > state.highest_acked:
            newly_acked = ack - state.highest_acked
            state.highest_acked = ack
            state.dupacks = 0
            self._update_rtt(ack - 1)
            if state.in_recovery:
                state.in_recovery = False
                state.cwnd = state.ssthresh
            elif state.cwnd < state.ssthresh:
                state.cwnd += newly_acked  # slow start
            else:
                state.cwnd += newly_acked / state.cwnd  # congestion avoidance
            if state.highest_acked >= self.total_segments:
                self._finish()
                return
            self._arm_rto()
            self._fill_window()
        elif ack == state.highest_acked:
            state.dupacks += 1
            if state.dupacks == 3 and not state.in_recovery:
                # Fast retransmit / fast recovery.
                state.ssthresh = max(2.0, state.cwnd / 2.0)
                state.cwnd = state.ssthresh
                state.in_recovery = True
                self.retransmissions += 1
                self._send_segment(state.highest_acked)

    def _update_rtt(self, seg: int) -> None:
        sent = self._send_times.get(seg)
        if sent is None:
            return
        sample = self.loop.now - sent
        self.srtt = sample if self.srtt is None else 0.875 * self.srtt + 0.125 * sample

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def _rto_interval(self) -> float:
        if self.srtt is None:
            return 1.0
        return max(self.rto_min, 2.0 * self.srtt)

    def _arm_rto(self) -> None:
        if self.state.rto_event is not None:
            self.state.rto_event.cancel()
        self.state.rto_event = self.loop.schedule(
            self._rto_interval(), self._on_rto
        )

    def _on_rto(self) -> None:
        if self.completed:
            return
        state = self.state
        self.timeouts += 1
        state.ssthresh = max(2.0, state.cwnd / 2.0)
        state.cwnd = 1.0
        state.dupacks = 0
        state.in_recovery = False
        state.next_seg = state.highest_acked  # go-back-N restart
        self.retransmissions += 1
        self._fill_window()
        self._arm_rto()

    def _finish(self) -> None:
        self.finish_time = self.loop.now
        if self.state.rto_event is not None:
            self.state.rto_event.cancel()
            self.state.rto_event = None
        if self.on_complete is not None:
            self.on_complete(self)
