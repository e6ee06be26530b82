"""Tests for the delivery engine's building blocks.

DeadlineBudget, ResponseCache, LatencyClient, and DeliveryBackend are each
pure functions of an injectable clock, so every test here runs on a
:class:`FaultClock` and finishes instantly.
"""

import json
import sys
import threading

import pytest

from repro.delivery import (
    DeadlineBudget,
    DeadlineExceeded,
    DeliveryBackend,
    LatencyClient,
    ResponseCache,
)
from repro.llm.client import ChatClientError, EchoClient
from repro.obs import trace
from repro.obs.trace import get_tracer
from repro.pipeline.store import ArtifactStore
from repro.resilience.faults import FaultClock
from repro.resilience.retry import CircuitBreaker, RetryPolicy


class TestDeadlineBudget:
    def test_remaining_counts_down(self):
        clock = FaultClock()
        budget = DeadlineBudget(1.0, clock=clock)
        assert budget.remaining() == pytest.approx(1.0)
        clock.advance(0.4)
        assert budget.remaining() == pytest.approx(0.6)
        assert not budget.expired()

    def test_expired_clamps_to_zero(self):
        clock = FaultClock()
        budget = DeadlineBudget(0.5, clock=clock)
        clock.advance(2.0)
        assert budget.expired()
        assert budget.remaining() == 0.0

    def test_check_raises_a_typed_error(self):
        clock = FaultClock()
        budget = DeadlineBudget(0.1, clock=clock)
        budget.check("early")  # inside the budget: fine
        clock.advance(0.2)
        with pytest.raises(DeadlineExceeded):
            budget.check("late")

    def test_unlimited_budget_never_expires(self):
        clock = FaultClock()
        budget = DeadlineBudget(None, clock=clock)
        clock.advance(1e6)
        assert budget.remaining() is None
        assert not budget.expired()
        budget.check("always fine")

    def test_deadline_exceeded_is_not_retryable(self):
        assert DeadlineExceeded("late").retryable is False


class TestResponseCache:
    @pytest.fixture
    def open_cache(self):
        """``ResponseCache`` whose segments are closed at teardown."""
        opened = []

        def open_(store):
            opened.append(ResponseCache(store))
            return opened[-1]

        yield open_
        for cache in opened:
            cache.close()

    @staticmethod
    def _segments(root):
        return sorted((root / "llm-response").glob("*.jsonl"))

    def test_round_trip(self, tmp_path, open_cache):
        cache = open_cache(tmp_path / "cache")
        assert cache.get("gpt-4", "prompt", 0) is None
        cache.put("gpt-4", "prompt", 0, "True.")
        assert cache.get("gpt-4", "prompt", 0) == "True."

    def test_key_separates_model_prompt_and_repeat(self, tmp_path, open_cache):
        cache = open_cache(tmp_path / "cache")
        cache.put("gpt-4", "prompt", 0, "A")
        assert cache.get("gpt-4", "prompt", 1) is None
        assert cache.get("gpt-3.5", "prompt", 0) is None
        assert cache.get("gpt-4", "other prompt", 0) is None

    def test_keys_are_stable_across_instances(self, tmp_path, open_cache):
        first = open_cache(tmp_path / "cache")
        first.put("gpt-4", "prompt", 2, "False.")
        second = open_cache(ArtifactStore(tmp_path / "cache"))
        assert second.get("gpt-4", "prompt", 2) == "False."

    def test_corrupt_entry_reads_as_miss(self, tmp_path, open_cache):
        root = tmp_path / "cache"
        cache = open_cache(root)
        cache.put("gpt-4", "prompt", 0, "True.")
        cache.put("gpt-4", "prompt", 1, "False.")
        (segment,) = self._segments(root)
        # A record whose value is not a string is counted and missed; the
        # mangled line after it ends the segment like a torn tail.
        key = ResponseCache.key("gpt-4", "prompt", 0)
        segment.write_text(
            json.dumps({"key": key, "value": {"text": "True."}}) + "\n"
            + "{not json\n",
            encoding="utf-8",
        )
        tracer = get_tracer()
        was_enabled = tracer.enabled
        tracer.enabled = True
        trace.reset()
        try:
            reopened = open_cache(root)
            assert reopened.get("gpt-4", "prompt", 0) is None
            assert reopened.get("gpt-4", "prompt", 1) is None
            assert tracer.counters() == {"delivery.cache_corrupt": 1}
        finally:
            tracer.enabled = was_enabled
            trace.reset()

    def test_torn_last_record_is_a_miss(self, tmp_path, open_cache):
        root = tmp_path / "cache"
        writer = open_cache(root)
        for repeat in range(3):
            writer.put("gpt-4", "prompt", repeat, f"answer {repeat}")
        writer.close()
        (segment,) = self._segments(root)
        data = segment.read_bytes()
        # A record is whole once its JSON is; losing only the newline is not
        # a loss.
        ends = [offset for offset, byte in enumerate(data) if byte == 0x0A]
        assert len(ends) == 3
        # A crash may cut the segment at any byte.
        for cut in range(len(data) + 1):
            for extra in self._segments(root):
                if extra != segment:
                    extra.unlink()
            segment.write_bytes(data[:cut])
            whole = sum(1 for end in ends if end <= cut)
            reopened = ResponseCache(root)
            try:
                served = [reopened.get("gpt-4", "prompt", r) for r in range(3)]
                reopened.put("gpt-4", "prompt", 3, "answer 3")
            finally:
                reopened.close()
            expected = [f"answer {r}" for r in range(whole)]
            assert served == expected + [None] * (3 - whole), cut
            # The put went to a fresh segment, which a third instance reads.
            assert segment.read_bytes() == data[:cut], cut
            assert len(self._segments(root)) == 2, cut
            reader = ResponseCache(root)
            read = [reader.get("gpt-4", "prompt", r) for r in range(4)]
            assert read == served + ["answer 3"], cut

    @staticmethod
    def _run_threads(target, n_threads):
        threads = [
            threading.Thread(target=target, args=(i,))
            for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()

    def test_two_writers_share_a_directory(self, tmp_path, open_cache):
        root = tmp_path / "cache"
        writers = [open_cache(root), open_cache(root)]

        def fill(index):
            for repeat in range(20):
                text = f"{index}:{repeat}"
                writers[index].put(f"model-{index}", "p", repeat, text)

        self._run_threads(fill, 2)
        assert len(self._segments(root)) == 2  # one segment per instance
        reader = open_cache(root)
        for index in range(2):
            for repeat in range(20):
                text = reader.get(f"model-{index}", "p", repeat)
                assert text == f"{index}:{repeat}"

    def test_threads_of_one_instance_share_one_segment(
        self, tmp_path, open_cache
    ):
        root = tmp_path / "cache"
        cache = open_cache(root)

        def fill(index):
            for repeat in range(25):
                cache.put("gpt-4", f"p{index}", repeat, f"{index}:{repeat}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            self._run_threads(fill, 8)
        finally:
            sys.setswitchinterval(interval)
        (segment,) = self._segments(root)
        assert len(segment.read_bytes().splitlines()) == 8 * 25
        reader = open_cache(root)
        for index in range(8):
            for repeat in range(25):
                text = reader.get("gpt-4", f"p{index}", repeat)
                assert text == f"{index}:{repeat}"

    def test_hits_only_create_no_segment(self, tmp_path, open_cache):
        root = tmp_path / "cache"
        open_cache(root).put("gpt-4", "prompt", 0, "True.")
        before = self._segments(root)
        assert len(before) == 1
        warm = open_cache(root)
        assert warm.get("gpt-4", "prompt", 0) == "True."
        assert warm.get("gpt-4", "prompt", 1) is None  # a miss writes nothing
        assert self._segments(root) == before

    def test_store_maintenance_leaves_segments(self, tmp_path, open_cache):
        store = ArtifactStore(tmp_path / "cache")
        open_cache(store).put("gpt-4", "prompt", 0, "True.")
        segments = self._segments(store.root)
        before = {p: p.read_bytes() for p in segments}
        assert store.ls() == []
        assert store.gc(max_age_days=0.0, now=1e12) == []
        assert store.invalidate("*") == []
        assert self._segments(store.root) == segments
        assert {p: p.read_bytes() for p in segments} == before
        assert open_cache(store).get("gpt-4", "prompt", 0) == "True."

    def test_old_format_entry_is_ignored(self, tmp_path, open_cache):
        root = tmp_path / "cache"
        key = ResponseCache.key("gpt-4", "prompt", 0)
        entry = root / "llm-response" / key
        entry.mkdir(parents=True)
        (entry / "response.json").write_text(
            json.dumps({"model": "gpt-4", "repeat": 0, "text": "True."}),
            encoding="utf-8",
        )
        (entry / "meta.json").write_text("{}", encoding="utf-8")
        cache = open_cache(root)
        assert cache.get("gpt-4", "prompt", 0) is None
        cache.put("gpt-4", "prompt", 0, "True.")
        assert open_cache(root).get("gpt-4", "prompt", 0) == "True."


class TestLatencyClient:
    def test_delay_is_deterministic_per_call(self):
        client = LatencyClient(
            EchoClient(), latency_s=0.002, jitter=0.5, seed=3,
            clock=FaultClock(),
        )
        assert client.delay_s("p", 0) == client.delay_s("p", 0)
        assert client.delay_s("p", 0) != client.delay_s("p", 1)

    def test_sleeps_on_the_injected_clock(self):
        clock = FaultClock()
        client = LatencyClient(EchoClient(), latency_s=0.01, clock=clock)
        assert client.complete_indexed("p", 0) == "True"
        assert clock.sleeps == [pytest.approx(0.01)]

    def test_jitter_bounds(self):
        client = LatencyClient(
            EchoClient(), latency_s=1.0, jitter=0.2, clock=FaultClock()
        )
        for repeat in range(50):
            assert 0.8 <= client.delay_s("p", repeat) <= 1.2


class _FlakyClient(EchoClient):
    """Fails the first ``n_failures`` indexed calls, then succeeds."""

    def __init__(self, n_failures: int):
        super().__init__("True")
        self.n_failures = n_failures
        self.calls = 0

    def complete_indexed(self, prompt, repeat, *, timeout_s=None):
        self.calls += 1
        if self.calls <= self.n_failures:
            raise ChatClientError("boom", retryable=True, kind="network")
        return self.complete(prompt)


class TestDeliveryBackend:
    def test_deliver_retries_transient_failures(self):
        backend = DeliveryBackend(
            "b0",
            _FlakyClient(2),
            retry=RetryPolicy(base_delay=0.01, clock=FaultClock(), seed=0),
        )
        assert backend.deliver("p", 0) == "True"

    def test_open_breaker_marks_unhealthy(self):
        clock = FaultClock()
        breaker = CircuitBreaker(failure_threshold=1, clock=clock)
        backend = DeliveryBackend("b0", EchoClient(), breaker=breaker)
        assert backend.healthy()
        breaker.record_failure()
        assert not backend.healthy()

    def test_no_retry_after_deadline_expiry(self):
        clock = FaultClock()
        client = _FlakyClient(10)
        backend = DeliveryBackend(
            "b0",
            client,
            retry=RetryPolicy(
                max_attempts=5, base_delay=10.0, clock=clock, seed=0
            ),
            clock=clock,
        )
        with pytest.raises(DeadlineExceeded):
            backend.deliver("p", 0, DeadlineBudget(0.05, clock=clock))
        # The first backoff (10s) blows the 0.05s budget; the second attempt
        # dies on the budget check before touching the client — the full
        # 5-attempt schedule must NOT be burned.
        assert client.calls == 1
