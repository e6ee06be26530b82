"""Retry with exponential backoff, deterministic jitter, and a circuit breaker.

The repeated-delivery ICL protocol issues thousands of requests against a
remote chat endpoint; transient failures (timeouts, 429/5xx, garbled bodies)
must be retried rather than crash the table, and a persistently failing
endpoint must be cut off rather than hammered.  :class:`RetryPolicy` handles
the first case, :class:`CircuitBreaker` the second.

Time is injectable: both classes take a :class:`Clock`, so tests (and the
fault-injection demos) run backoff schedules on a virtual clock instantly —
see :class:`repro.resilience.faults.FaultClock`.  Jitter is deterministic,
derived from the policy seed via :func:`repro.utils.rng.derive_rng`, so a
given (seed, key, attempt) always produces the same delay.

:meth:`CircuitBreaker.call` is the one gate -> call -> record sequence in
the apparatus: :class:`RetryPolicy` runs each attempt through it, and so do
the serving backends and the delivery backends.  Every refusal — an open
breaker here, a full micro-batch queue in :mod:`repro.serve` — is one typed
:class:`ShedError` carrying an advisory ``retry_after_s``.

Every attempt, retry, and give-up is counted through :mod:`repro.obs`
(``retry.attempts`` / ``retry.retries`` / ``retry.giveups``), and each
backoff wait emits a ``retry.backoff`` span, so run manifests account for
exactly how much resilience machinery a run exercised.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

from repro.obs.trace import get_tracer, span
from repro.utils.rng import derive_rng


class Clock:
    """Injectable time source: real ``monotonic`` + ``sleep`` by default."""

    def monotonic(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)


#: The shared real-time clock used when none is injected.
SYSTEM_CLOCK = Clock()


def is_retryable(error: BaseException) -> bool:
    """Default retryability classification.

    Errors carrying an explicit ``retryable`` attribute (such as
    :class:`repro.llm.client.ChatClientError`) are believed; otherwise
    transient OS-level failures (timeouts, connection resets) are retryable
    and everything else — programming errors included — is not.
    """
    flag = getattr(error, "retryable", None)
    if flag is not None:
        return bool(flag)
    return isinstance(error, (TimeoutError, ConnectionError, OSError))


class RetryError(RuntimeError):
    """All attempts of a retried call failed with retryable errors."""

    def __init__(self, message: str, *, attempts: int, last_error: BaseException):
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


class ShedError(RuntimeError):
    """A call was refused to protect its backend, without being tried.

    ``reason`` names the guard that refused (``breaker-open``,
    ``queue-full``); ``retry_after_s`` is the advisory wait before trying
    again, which the HTTP layer sends as ``Retry-After``.  A refusal is not
    a backend failure, so breakers never record one.
    """

    #: Load- or cool-down-dependent; immediate retries only add load.
    retryable = False

    def __init__(self, message: str, *, reason: str, retry_after_s: float):
        super().__init__(message)
        self.reason = reason
        self.retry_after_s = retry_after_s


class CircuitBreaker:
    """Trip after consecutive failures; probe again after a cool-down.

    Closed (normal) -> open after ``failure_threshold`` consecutive
    failures; while open, :meth:`before_call` raises :class:`ShedError`
    advertising the remaining cool-down.  After ``reset_timeout`` seconds
    the next call is allowed through (half-open): success closes the
    circuit, another failure re-opens it immediately.  Thread-safe.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        clock: Optional[Clock] = None,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout <= 0:
            raise ValueError("reset_timeout must be positive")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.clock = clock or SYSTEM_CLOCK
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def before_call(self) -> None:
        """Gate a call; raises :class:`ShedError` while open."""
        with self._lock:
            if self._state != self.OPEN:
                return
            waited = self.clock.monotonic() - self._opened_at
            if waited >= self.reset_timeout:
                self._state = self.HALF_OPEN
                return
            remaining = self.reset_timeout - waited
            raise ShedError(
                f"circuit open after {self._failures} consecutive failures; "
                f"{remaining:.1f}s until half-open probe",
                reason="breaker-open",
                retry_after_s=remaining,
            )

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._state = self.CLOSED

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            should_open = (
                self._state == self.HALF_OPEN
                or self._failures >= self.failure_threshold
            )
            if should_open:
                if self._state != self.OPEN:
                    get_tracer().count("circuit.opened")
                self._state = self.OPEN
                self._opened_at = self.clock.monotonic()

    def call(self, fn: Callable, *args, **kwargs):
        """Run ``fn`` through the breaker (gate + success/failure record).

        A :class:`ShedError` raised by ``fn`` itself (a downstream guard
        refusing) propagates without being recorded as a failure.
        """
        self.before_call()
        try:
            result = fn(*args, **kwargs)
        except ShedError:
            raise
        except Exception:
            self.record_failure()
            raise
        self.record_success()
        return result


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    Delay before retry ``n`` (0-based) is
    ``min(max_delay, base_delay * multiplier**n)`` scaled by a jitter factor
    in ``[1 - jitter, 1 + jitter]`` drawn deterministically from
    ``(seed, key, n)`` — repeated runs back off identically.
    """

    max_attempts: int = 5
    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.1
    seed: int = 0
    clock: Optional[Clock] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0:
            raise ValueError("base_delay must be >= 0")
        if self.multiplier < 1:
            raise ValueError("multiplier must be >= 1")
        if self.max_delay < self.base_delay:
            raise ValueError("max_delay must be >= base_delay")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def delay(self, attempt: int, key: object = 0) -> float:
        """Backoff before the retry following failed attempt ``attempt``."""
        raw = min(self.max_delay, self.base_delay * self.multiplier**attempt)
        if self.jitter:
            rng = derive_rng(self.seed, "retry-jitter", key, attempt)
            raw *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return raw

    def call(
        self,
        fn: Callable,
        *args,
        classify: Optional[Callable[[BaseException], bool]] = None,
        breaker: Optional[CircuitBreaker] = None,
        key: object = 0,
        **kwargs,
    ):
        """Run ``fn`` with retries; returns its result.

        Non-retryable errors (per ``classify``, default :func:`is_retryable`)
        propagate immediately; exhausted retries raise :class:`RetryError`
        wrapping the last failure.  ``breaker`` gates every attempt through
        :meth:`CircuitBreaker.call`; a :class:`ShedError` propagates without
        consuming attempts.
        """
        classify = classify or is_retryable
        clock = self.clock or SYSTEM_CLOCK
        tracer = get_tracer()

        def attempt_once():
            tracer.count("retry.attempts")
            return fn(*args, **kwargs)

        guarded = (
            attempt_once if breaker is None else partial(breaker.call, attempt_once)
        )
        for attempt in range(self.max_attempts):
            try:
                return guarded()
            except ShedError:
                raise
            except Exception as error:
                if not classify(error):
                    raise
                if attempt + 1 >= self.max_attempts:
                    tracer.count("retry.giveups")
                    raise RetryError(
                        f"gave up after {self.max_attempts} attempts: {error}",
                        attempts=self.max_attempts,
                        last_error=error,
                    ) from error
                wait = self.delay(attempt, key)
                tracer.count("retry.retries")
                with span(
                    "retry.backoff",
                    attempt=attempt + 1,
                    delay_s=round(wait, 4),
                    error=type(error).__name__,
                ):
                    clock.sleep(wait)
        raise AssertionError("unreachable")  # pragma: no cover


__all__ = [
    "Clock",
    "SYSTEM_CLOCK",
    "is_retryable",
    "RetryError",
    "ShedError",
    "CircuitBreaker",
    "RetryPolicy",
]
