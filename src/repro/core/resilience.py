"""Resilience primitives for the out-of-band control plane.

The paper's deployment argument assumes a cookie server that 161 homes can
reach "periodically" — not continuously.  Measurement work on real paths
(FairNet, the Wehe case study) shows loss and middlebox interference are
the norm, so every control-plane caller in this tree talks to the server
through the machinery here instead of assuming a perfect channel:

``RetryPolicy``
    Exponential backoff with deterministic seeded jitter and an optional
    wall-clock deadline.  Policies are value objects: ``delays()`` yields
    the same schedule every time, so tests and the chaos soak replay
    byte-identically.

``CircuitBreaker``
    Classic closed → open → half-open machine.  Once the failure
    threshold trips, callers fail fast (``ChannelUnavailable``) instead
    of stacking timeouts; after ``reset_timeout`` one probe is let
    through to test recovery.

``ResilientChannel``
    Wraps a ``RequestChannel`` (``Callable[[dict], dict]``) with both.
    Transport-level exceptions are retried and counted; application-level
    refusals (an ``{"ok": False}`` response) pass through untouched —
    a reachable server saying "no" is a success for the channel.

All clocks and sleeps are injectable so event-loop simulations run the
whole stack in virtual time.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from .errors import ChannelUnavailable, TransportError

__all__ = [
    "RetryPolicy",
    "CircuitBreaker",
    "ResilientChannel",
    "TRANSIENT_ERRORS",
]

#: Exception types a channel wrapper treats as transient transport
#: failures (retried, counted against the breaker).  Everything else —
#: including application-level CookieErrors — propagates immediately.
TRANSIENT_ERRORS: tuple[type[BaseException], ...] = (
    ConnectionError,
    TimeoutError,
    OSError,
    TransportError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff schedule with deterministic seeded jitter.

    ``delays()`` yields ``max_attempts - 1`` sleep durations (there is no
    sleep after the final attempt).  Attempt *n* backs off around
    ``base_delay * multiplier**n``, capped at ``max_delay``, then
    stretched by up to ``jitter`` (a fraction, e.g. 0.5 → up to +50%)
    drawn from a ``random.Random(seed)`` local to the call — two policies
    with equal fields produce equal schedules, which is what makes chaos
    runs reproducible.

    ``deadline`` bounds the whole episode: :class:`ResilientChannel`
    stops retrying once the next sleep would push elapsed time past it.
    """

    max_attempts: int = 4
    base_delay: float = 0.1
    multiplier: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.5
    deadline: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("need at least one attempt")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1 (backoff, not decay)")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be a fraction in [0, 1]")

    def delays(self) -> Iterator[float]:
        """Yield the backoff sleeps between attempts, in order."""
        rng = random.Random(self.seed)
        delay = self.base_delay
        for _ in range(self.max_attempts - 1):
            capped = min(delay, self.max_delay)
            yield min(capped * (1.0 + self.jitter * rng.random()), self.max_delay)
            delay *= self.multiplier

    def delay_at(self, index: int) -> float:
        """The ``index``-th backoff sleep (0-based); the final delay
        repeats past the end of the schedule — callers with their own
        retry ladder (the process pool's restart loop) use this to keep
        backing off at the cap."""
        last = self.base_delay
        for i, delay in enumerate(self.delays()):
            last = delay
            if i == index:
                return delay
        return last


class CircuitBreaker:
    """Failure-threshold breaker for one downstream dependency.

    States: ``closed`` (normal; failures counted), ``open`` (all calls
    rejected until ``reset_timeout`` has elapsed), ``half_open`` (one
    probe allowed; success closes, failure re-opens).  The clock is
    injectable so simulations drive state transitions in virtual time.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure threshold must be >= 1")
        if reset_timeout <= 0:
            raise ValueError("reset timeout must be positive")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.clock = clock
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        #: Lifetime transition/rejection counters (telemetry).
        self.opened = 0
        self.closed_from_half_open = 0
        self.rejections = 0

    @property
    def state(self) -> str:
        """Current state, accounting for reset-timeout expiry."""
        if (
            self._state == self.OPEN
            and self.clock() - self._opened_at >= self.reset_timeout
        ):
            self._state = self.HALF_OPEN
            self._probe_in_flight = False
        return self._state

    def allow(self) -> bool:
        """May a call proceed right now?  (Half-open admits one probe.)"""
        state = self.state
        if state == self.CLOSED:
            return True
        if state == self.HALF_OPEN and not self._probe_in_flight:
            self._probe_in_flight = True
            return True
        self.rejections += 1
        return False

    def record_success(self) -> None:
        if self._state == self.HALF_OPEN:
            self.closed_from_half_open += 1
        self._state = self.CLOSED
        self._failures = 0
        self._probe_in_flight = False

    def record_failure(self) -> None:
        if self._state == self.HALF_OPEN:
            self._trip()
            return
        self._failures += 1
        if self._state == self.CLOSED and self._failures >= self.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        self._state = self.OPEN
        self._opened_at = self.clock()
        self._failures = 0
        self._probe_in_flight = False
        self.opened += 1

    COUNTERS = ("opened", "closed_from_half_open", "rejections")

    def register_telemetry(self, registry, prefix: str = "breaker") -> None:
        """``state`` is exported as a level: 0 closed, 1 half-open, 2 open
        (summed when several breakers share the prefix)."""
        registry.register(self, prefix, self.COUNTERS, read=self._read_metrics)

    def _read_metrics(self):
        levels = {self.CLOSED: 0, self.HALF_OPEN: 1, self.OPEN: 2}
        return {}, {"state": levels[self.state]}


@dataclass
class ChannelStats:
    """Counters kept by one :class:`ResilientChannel`."""

    attempts: int = 0
    successes: int = 0
    failures: int = 0
    retries: int = 0
    exhausted: int = 0
    rejected_open: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


class ResilientChannel:
    """Retry/backoff + circuit breaker around a request channel.

    Drop-in for any ``RequestChannel``: call it with a request dict, get
    the response dict.  On a transient transport error it backs off per
    ``policy`` and retries; when attempts (or the policy deadline) are
    exhausted, or the breaker is open, it raises
    :class:`~repro.core.errors.ChannelUnavailable` so callers get one
    uniform "the server is unreachable" signal to degrade on.

    ``sleep`` defaults to ``time.sleep`` but may be ``None`` for
    virtual-time harnesses where backoff waits are modelled by the
    caller's own clock (the breaker still sees virtual time via its
    injected clock).
    """

    def __init__(
        self,
        channel: Callable[[dict[str, Any]], dict[str, Any]],
        policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] | None = time.sleep,
    ) -> None:
        self.channel = channel
        self.policy = policy or RetryPolicy()
        self.breaker = breaker or CircuitBreaker(clock=clock)
        self.clock = clock
        self.sleep = sleep
        self.stats = ChannelStats()

    def __call__(self, request: dict[str, Any]) -> dict[str, Any]:
        if not self.breaker.allow():
            self.stats.rejected_open += 1
            raise ChannelUnavailable(
                f"circuit open for {self.breaker.reset_timeout}s "
                f"after repeated failures"
            )
        start = self.clock()
        delays = self.policy.delays()
        last_error: BaseException | None = None
        for attempt in range(self.policy.max_attempts):
            if attempt:
                self.stats.retries += 1
            self.stats.attempts += 1
            try:
                response = self.channel(request)
            except TRANSIENT_ERRORS as exc:
                last_error = exc
                self.stats.failures += 1
                self.breaker.record_failure()
                if not self.breaker.allow():
                    # Tripped mid-episode: stop hammering immediately.
                    self.stats.rejected_open += 1
                    break
                delay = next(delays, None)
                if delay is None:
                    break
                deadline = self.policy.deadline
                if (
                    deadline is not None
                    and self.clock() - start + delay > deadline
                ):
                    break
                if self.sleep is not None and delay > 0:
                    self.sleep(delay)
            else:
                self.stats.successes += 1
                self.breaker.record_success()
                return response
        self.stats.exhausted += 1
        raise ChannelUnavailable(
            f"request {request.get('op', '?')!r} failed after "
            f"{self.stats.attempts} attempt(s): {last_error}"
        ) from last_error

    def register_telemetry(self, registry, prefix: str = "retry") -> None:
        """Export channel counters (``retry.*``) and the wrapped
        breaker's state (``breaker.*``) into one registry."""
        registry.register(self, prefix, counters=("stats",))
        self.breaker.register_telemetry(registry)
