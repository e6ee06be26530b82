"""Tests for repro.resilience.retry: RetryPolicy and CircuitBreaker."""

import pytest

from repro.llm.client import ChatClientError
from repro.obs import trace
from repro.obs.trace import get_tracer
from repro.resilience.faults import FaultClock
from repro.resilience.retry import (
    CircuitBreaker,
    RetryError,
    RetryPolicy,
    ShedError,
    is_retryable,
)


class FlakyFn:
    """Fails ``n_failures`` times with ``error_factory()``, then succeeds."""

    def __init__(self, n_failures, error_factory=TimeoutError):
        self.n_failures = n_failures
        self.error_factory = error_factory
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.n_failures:
            raise self.error_factory()
        return "ok"


class TestClassification:
    def test_os_errors_retryable(self):
        assert is_retryable(TimeoutError())
        assert is_retryable(ConnectionResetError())
        assert is_retryable(OSError("reset"))

    def test_programming_errors_not_retryable(self):
        assert not is_retryable(ValueError("bad"))
        assert not is_retryable(KeyError("x"))

    def test_explicit_flag_wins(self):
        assert is_retryable(ChatClientError("x", retryable=True))
        assert not is_retryable(ChatClientError("x", retryable=False))
        # A retryable=False flag beats the OSError instance check.
        err = ConnectionError("x")
        err.retryable = False
        assert not is_retryable(err)

    def test_circuit_open_not_retryable(self):
        assert not is_retryable(
            ShedError("open", reason="breaker-open", retry_after_s=1.0)
        )


class TestRetryPolicyDelay:
    def test_exponential_growth_capped(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, max_delay=5.0,
                             jitter=0.0)
        assert policy.delay(0) == 1.0
        assert policy.delay(1) == 2.0
        assert policy.delay(2) == 4.0
        assert policy.delay(3) == 5.0  # capped

    def test_jitter_bounded_and_deterministic(self):
        policy = RetryPolicy(base_delay=1.0, jitter=0.25, seed=7)
        for attempt in range(6):
            d = policy.delay(attempt, key="k")
            base = min(policy.max_delay, policy.base_delay * 2.0**attempt)
            assert base * 0.75 <= d <= base * 1.25
            assert d == policy.delay(attempt, key="k")  # deterministic

    def test_jitter_varies_with_key_and_seed(self):
        a = RetryPolicy(jitter=0.3, seed=1)
        b = RetryPolicy(jitter=0.3, seed=2)
        assert a.delay(0, key="x") != b.delay(0, key="x")
        assert a.delay(0, key="x") != a.delay(0, key="y")

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=10.0, max_delay=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)


class TestRetryPolicyCall:
    def policy(self, **kwargs):
        kwargs.setdefault("clock", FaultClock())
        kwargs.setdefault("base_delay", 0.01)
        return RetryPolicy(**kwargs)

    def test_success_first_try(self):
        fn = FlakyFn(0)
        assert self.policy().call(fn) == "ok"
        assert fn.calls == 1

    def test_retries_transient_then_succeeds(self):
        clock = FaultClock()
        fn = FlakyFn(3)
        assert self.policy(clock=clock).call(fn) == "ok"
        assert fn.calls == 4
        assert len(clock.sleeps) == 3  # one backoff per failure

    def test_exhaustion_raises_retry_error(self):
        fn = FlakyFn(10)
        with pytest.raises(RetryError) as exc:
            self.policy(max_attempts=4).call(fn)
        assert fn.calls == 4
        assert exc.value.attempts == 4
        assert isinstance(exc.value.last_error, TimeoutError)

    def test_non_retryable_propagates_immediately(self):
        fn = FlakyFn(10, error_factory=lambda: ValueError("bug"))
        with pytest.raises(ValueError):
            self.policy().call(fn)
        assert fn.calls == 1

    def test_custom_classifier(self):
        fn = FlakyFn(10, error_factory=lambda: ValueError("transient"))
        with pytest.raises(RetryError):
            self.policy(max_attempts=3).call(
                fn, classify=lambda e: isinstance(e, ValueError)
            )
        assert fn.calls == 3

    def test_backoff_schedule_matches_delay(self):
        clock = FaultClock()
        policy = self.policy(clock=clock, max_attempts=4, jitter=0.1, seed=3)
        with pytest.raises(RetryError):
            policy.call(FlakyFn(10))
        assert clock.sleeps == [policy.delay(0), policy.delay(1), policy.delay(2)]


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        clock = FaultClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=10.0,
                                 clock=clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        with pytest.raises(ShedError):
            breaker.before_call()

    def test_half_open_probe_closes_on_success(self):
        clock = FaultClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=5.0,
                                 clock=clock)
        breaker.record_failure()
        with pytest.raises(ShedError):
            breaker.before_call()
        clock.advance(5.0)
        breaker.before_call()  # half-open: allowed through
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_failure_reopens(self):
        clock = FaultClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=5.0,
                                 clock=clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.0)
        breaker.before_call()
        breaker.record_failure()  # one failure while half-open: re-open
        assert breaker.state == CircuitBreaker.OPEN
        with pytest.raises(ShedError):
            breaker.before_call()

    def test_call_wrapper(self):
        clock = FaultClock()
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=1.0,
                                 clock=clock)
        fn = FlakyFn(2)
        for _ in range(2):
            with pytest.raises(TimeoutError):
                breaker.call(fn)
        with pytest.raises(ShedError):
            breaker.call(fn)
        assert fn.calls == 2  # third call never reached the function
        clock.advance(1.0)
        assert breaker.call(fn) == "ok"
        assert breaker.state == CircuitBreaker.CLOSED

    def test_open_breaker_advertises_remaining_cool_down(self):
        clock = FaultClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=5.0,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(4.0)
        with pytest.raises(ShedError) as shed:
            breaker.before_call()
        assert shed.value.reason == "breaker-open"
        assert shed.value.retry_after_s == 1.0
        assert shed.value.retryable is False

    def test_call_does_not_record_a_downstream_shed(self):
        breaker = CircuitBreaker(failure_threshold=1, clock=FaultClock())

        def refuse():
            raise ShedError("full", reason="queue-full", retry_after_s=0.05)

        for _ in range(3):
            with pytest.raises(ShedError):
                breaker.call(refuse)
        # A refusal is not a backend failure: the breaker stays closed.
        assert breaker.state == CircuitBreaker.CLOSED

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FaultClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_timeout=0.0)


class TestRetryWithBreaker:
    def test_breaker_open_stops_retry_loop(self):
        clock = FaultClock()
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=100.0,
                                 clock=clock)
        fn = FlakyFn(10)
        policy = RetryPolicy(max_attempts=5, base_delay=0.01, clock=clock)
        with pytest.raises(ShedError):
            policy.call(fn, breaker=breaker)
        # Two attempts tripped the breaker; the loop stopped without
        # burning the remaining attempts against an open circuit.
        assert fn.calls == 2

    def test_shed_propagates_without_consuming_attempts(self):
        breaker = CircuitBreaker(failure_threshold=5, clock=FaultClock())
        calls = []

        def refuse():
            calls.append(1)
            raise ShedError("full", reason="queue-full", retry_after_s=0.05)

        policy = RetryPolicy(max_attempts=5, base_delay=0.01,
                             clock=FaultClock())
        with pytest.raises(ShedError):
            # Even a classifier that would retry everything cannot retry a
            # refusal.
            policy.call(refuse, breaker=breaker, classify=lambda e: True)
        assert calls == [1]
        assert breaker.state == CircuitBreaker.CLOSED

    def test_counters_through_the_breaker(self):
        tracer = get_tracer()
        was_enabled = tracer.enabled
        trace.reset()
        tracer.enabled = True
        try:
            clock = FaultClock()
            breaker = CircuitBreaker(failure_threshold=2, reset_timeout=100.0,
                                     clock=clock)
            policy = RetryPolicy(max_attempts=5, base_delay=0.01, clock=clock)
            with pytest.raises(ShedError):
                policy.call(FlakyFn(10), breaker=breaker)
            counters = tracer.counters()
        finally:
            tracer.enabled = was_enabled
            trace.reset()
        # Two attempts reached the function and each failure scheduled a
        # retry; the third was refused at the gate, which is not an attempt.
        # The breaker opened once.
        assert counters["retry.attempts"] == 2
        assert counters["retry.retries"] == 2
        assert counters["circuit.opened"] == 1
        assert "retry.giveups" not in counters

    def test_breaker_records_success(self):
        clock = FaultClock()
        breaker = CircuitBreaker(failure_threshold=3, clock=clock)
        policy = RetryPolicy(max_attempts=5, base_delay=0.01, clock=clock)
        assert policy.call(FlakyFn(2), breaker=breaker) == "ok"
        assert breaker.state == CircuitBreaker.CLOSED
