"""Application-assisted boosting: the paper's video-player scenario.

"A video application could ask for a short burst of high bandwidth when
it runs low on buffers (and risks rebuffering)" — and cookie insertion
"can be explicitly requested by the user, or assisted by an application
(e.g., a video client can ask for extra bandwidth if its buffer runs
low)."

:class:`VideoPlayer` models an adaptive-streaming client: it downloads
fixed-duration chunks over TCP, plays them back in real time, and tracks
rebuffering.  When its buffer falls below a low-watermark it invokes a
``boost_trigger`` — typically a closure that makes the next chunk's
packets carry a boost cookie — demonstrating user-consented,
application-timed use of the fast lane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..netsim.events import EventLoop, ScheduledEvent
from ..netsim.middlebox import Element
from ..netsim.tcpmodel import TcpTransfer

__all__ = ["PlaybackStats", "VideoPlayer"]


@dataclass
class PlaybackStats:
    """What a quality-of-experience dashboard would show."""

    chunks_downloaded: int = 0
    rebuffer_events: int = 0
    rebuffer_seconds: float = 0.0
    boost_requests: int = 0
    startup_delay: float | None = None
    finished_at: float | None = None


class VideoPlayer:
    """A buffer-driven streaming client over the simulated network.

    Parameters
    ----------
    path:
        Downlink pipeline head chunks are fetched through.
    bitrate_bps:
        Encoded video bitrate; each ``chunk_seconds`` chunk is
        ``bitrate * chunk_seconds / 8`` bytes.
    buffer_low / buffer_target:
        Below ``buffer_low`` seconds of buffered video the player calls
        ``boost_trigger`` (if any); it stops fetching ahead at
        ``buffer_target``.
    boost_trigger:
        Callable invoked when the buffer runs low.  Returning True counts
        as a boost request (e.g. the closure acquired a descriptor and
        armed a cookie tagger for subsequent chunks).
    """

    RESUME_THRESHOLD = 2.0  # seconds buffered before playback (re)starts

    def __init__(
        self,
        loop: EventLoop,
        path: Element,
        *,
        duration_seconds: float = 30.0,
        bitrate_bps: float = 2_500_000.0,
        chunk_seconds: float = 2.0,
        buffer_low: float = 4.0,
        buffer_target: float = 10.0,
        boost_trigger: Callable[[], bool] | None = None,
        dst_ip: str = "192.168.1.100",
        dst_port: int = 45_000,
        transfer_meta: dict | None = None,
    ) -> None:
        if duration_seconds <= 0 or chunk_seconds <= 0 or bitrate_bps <= 0:
            raise ValueError("duration, chunk length and bitrate must be positive")
        if buffer_low >= buffer_target:
            raise ValueError("buffer_low must be below buffer_target")
        self.loop = loop
        self.path = path
        self.duration_seconds = duration_seconds
        self.bitrate_bps = bitrate_bps
        self.chunk_seconds = chunk_seconds
        self.buffer_low = buffer_low
        self.buffer_target = buffer_target
        self.boost_trigger = boost_trigger
        self.dst_ip = dst_ip
        self.dst_port = dst_port
        self.transfer_meta = dict(transfer_meta or {})
        self.stats = PlaybackStats()

        self.total_chunks = int(round(duration_seconds / chunk_seconds))
        self._buffer_seconds = 0.0
        self._buffer_updated_at = 0.0
        self._playing = False
        self._played_seconds = 0.0
        self._stall_started_at: float | None = None
        self._started_at: float | None = None
        self._fetching = False
        self._underrun_event: ScheduledEvent | None = None
        self._boost_armed = False

    # ------------------------------------------------------------------
    # Buffer bookkeeping (lazy drain)
    # ------------------------------------------------------------------
    def _sync_buffer(self) -> None:
        now = self.loop.now
        if self._playing:
            elapsed = now - self._buffer_updated_at
            drained = min(self._buffer_seconds, elapsed)
            self._buffer_seconds -= drained
            self._played_seconds += drained
        self._buffer_updated_at = now

    @property
    def finished(self) -> bool:
        return self.stats.finished_at is not None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin fetching and (once buffered) playing."""
        self._started_at = self.loop.now
        self._fetch_next_chunk()

    def _chunk_bytes(self) -> int:
        return int(self.bitrate_bps * self.chunk_seconds / 8)

    def _fetch_next_chunk(self) -> None:
        if self.stats.chunks_downloaded >= self.total_chunks or self._fetching:
            return
        self._sync_buffer()
        if (
            self._buffer_seconds < self.buffer_low
            and self.boost_trigger is not None
            and not self._boost_armed
        ):
            if self.boost_trigger():
                self.stats.boost_requests += 1
                self._boost_armed = True
        self._fetching = True
        transfer = TcpTransfer(
            self.loop,
            self.path,
            size_bytes=self._chunk_bytes(),
            dst_ip=self.dst_ip,
            dst_port=self.dst_port + self.stats.chunks_downloaded,
            meta=dict(self.transfer_meta),
            on_complete=self._on_chunk_complete,
        )
        transfer.start()

    def _on_chunk_complete(self, _transfer: TcpTransfer) -> None:
        self._fetching = False
        self._sync_buffer()
        self.stats.chunks_downloaded += 1
        self._buffer_seconds += self.chunk_seconds
        if self._buffer_seconds >= self.buffer_target:
            # Comfortably ahead again: a future dip re-arms the trigger.
            self._boost_armed = False
        if not self._playing and self._buffer_seconds >= self.RESUME_THRESHOLD:
            self._resume_playback()
        if self.stats.chunks_downloaded >= self.total_chunks:
            self._watch_for_finish()
            return
        if self._buffer_seconds < self.buffer_target:
            self._fetch_next_chunk()
        else:
            # Fetch again when the buffer drains to the target.
            delay = self._buffer_seconds - self.buffer_target + self.chunk_seconds
            self.loop.schedule(max(delay, 0.001), self._fetch_next_chunk)

    def _resume_playback(self) -> None:
        now = self.loop.now
        if self.stats.startup_delay is None and self._started_at is not None:
            self.stats.startup_delay = now - self._started_at
        if self._stall_started_at is not None:
            self.stats.rebuffer_seconds += now - self._stall_started_at
            self._stall_started_at = None
        self._playing = True
        self._buffer_updated_at = now
        self._arm_underrun_watch()

    def _arm_underrun_watch(self) -> None:
        if self._underrun_event is not None:
            self._underrun_event.cancel()
        self._underrun_event = self.loop.schedule(
            max(self._buffer_seconds, 0.001), self._check_underrun
        )

    def _check_underrun(self) -> None:
        self._underrun_event = None
        self._sync_buffer()
        if not self._playing:
            return
        if self._played_seconds >= self.duration_seconds - 1e-9:
            self.stats.finished_at = self.loop.now
            self._playing = False
            return
        if self._buffer_seconds <= 1e-9:
            if self.stats.chunks_downloaded >= self.total_chunks:
                # Drained everything there is: playback is complete.
                self.stats.finished_at = self.loop.now
                self._playing = False
                return
            self._playing = False
            self.stats.rebuffer_events += 1
            self._stall_started_at = self.loop.now
            self._fetch_next_chunk()
        else:
            self._arm_underrun_watch()

    def _watch_for_finish(self) -> None:
        """All chunks fetched; finish when the buffer drains."""
        if not self._playing and self._buffer_seconds >= 1e-9:
            self._resume_playback()
        elif self._playing:
            self._arm_underrun_watch()
