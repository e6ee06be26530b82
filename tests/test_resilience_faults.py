"""Tests for repro.resilience.faults: FaultPlan, FaultyClient, FaultClock."""

import pytest

from repro.llm.client import ChatClientError, EchoClient
from repro.resilience.faults import (
    ERROR_FAULTS,
    FAULT_KINDS,
    FaultClock,
    FaultPlan,
    FaultSpec,
    FaultyClient,
)


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("segfault", 0.1)

    def test_rate_bounds(self):
        with pytest.raises(ValueError, match="rate"):
            FaultSpec("timeout", 1.5)
        with pytest.raises(ValueError, match="rate"):
            FaultSpec("timeout", -0.1)
        FaultSpec("timeout", 0.0)
        FaultSpec("timeout", 1.0)


class TestFaultPlanParse:
    def test_single(self):
        plan = FaultPlan.parse("timeout:0.1")
        assert [(s.kind, s.rate) for s in plan.specs] == [("timeout", 0.1)]

    def test_multiple_with_spaces_and_case(self):
        plan = FaultPlan.parse(" Timeout:0.1 , HTTP500:0.05 ")
        assert [s.kind for s in plan.specs] == ["timeout", "http500"]

    def test_describe_round_trips(self):
        text = "timeout:0.1,http500:0.05,garbage:0.02"
        assert FaultPlan.parse(text).describe() == text

    def test_bad_grammar(self):
        with pytest.raises(ValueError, match="expected kind:rate"):
            FaultPlan.parse("timeout")
        with pytest.raises(ValueError, match="bad fault rate"):
            FaultPlan.parse("timeout:lots")
        with pytest.raises(ValueError, match="empty fault spec"):
            FaultPlan.parse(" , ")
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse("explode:0.5")

    def test_empty_specs_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan([])

    def test_max_consecutive_validated(self):
        with pytest.raises(ValueError):
            FaultPlan([FaultSpec("timeout", 0.1)], max_consecutive=0)


class TestFaultPlanDraw:
    def test_deterministic_per_index(self):
        plan = FaultPlan.parse("timeout:0.3,http500:0.2", seed=5)
        draws = [plan.draw_for("p", i, 0) for i in range(200)]
        assert draws == [plan.draw_for("p", i, 0) for i in range(200)]

    def test_seed_changes_schedule(self):
        a = [FaultPlan.parse("timeout:0.3", seed=1).draw_for(i) for i in range(200)]
        b = [FaultPlan.parse("timeout:0.3", seed=2).draw_for(i) for i in range(200)]
        assert a != b

    def test_rates_roughly_respected(self):
        plan = FaultPlan.parse("timeout:0.25", seed=0)
        hits = sum(1 for i in range(2000) if plan.draw_for(i) == "timeout")
        assert 0.18 < hits / 2000 < 0.32

    def test_rate_zero_never_fires(self):
        plan = FaultPlan.parse("timeout:0.0", seed=0)
        assert all(plan.draw_for(i) is None for i in range(500))


class TestFaultyClient:
    def client(self, spec, **kwargs):
        return FaultyClient(EchoClient("True"), FaultPlan.parse(spec, **kwargs))

    def test_name_delegates(self):
        assert self.client("timeout:0.1").name == "EchoClient"

    def test_error_kinds_raise_chat_client_error(self):
        expectations = {
            "timeout:1.0": ("timeout", None),
            "http429:1.0": ("http", 429),
            "http500:1.0": ("http", 500),
            "malformed:1.0": ("malformed", None),
        }
        for spec, (kind, status) in expectations.items():
            client = self.client(spec)
            with pytest.raises(ChatClientError) as exc:
                client.complete("p")
            assert exc.value.kind == kind
            assert exc.value.status == status
            assert exc.value.retryable

    def test_error_faults_do_not_consume_completions(self):
        inner = EchoClient("True")
        inner_calls = []
        original = inner.complete
        inner.complete = lambda p: (inner_calls.append(p), original(p))[1]
        client = FaultyClient(inner, FaultPlan.parse("timeout:1.0"))
        for _ in range(3):
            with pytest.raises(ChatClientError):
                client.complete("p")
        assert inner_calls == []  # raised before touching the wrapped client

    def test_max_consecutive_caps_error_runs(self):
        client = self.client("timeout:1.0")  # would fail every call
        failures = 0
        for _ in range(3):
            with pytest.raises(ChatClientError):
                client.complete("p")
            failures += 1
        # Fourth call exceeds max_consecutive=3 and must succeed.
        assert client.complete("p") == "True"
        assert client.injected == {"timeout": 3}

    def test_corruption_faults_consume_and_mangle(self):
        garbage = self.client("garbage:1.0")
        out = garbage.complete("p")
        assert out != "True" and "garbage" in out

        truncated = FaultyClient(
            EchoClient("a perfectly reasonable completion"),
            FaultPlan.parse("truncated:1.0"),
        )
        out = truncated.complete("p")
        assert out == "a perfectly reasonable completion"[
            : len("a perfectly reasonable completion") // 2
        ]

    def test_tallies_and_call_count(self):
        client = self.client("timeout:0.3", seed=3)
        for _ in range(50):
            try:
                client.complete("p")
            except ChatClientError:
                pass
        assert client.calls == 50
        assert sum(client.injected.values()) > 0
        assert set(client.injected) <= set(FAULT_KINDS)

    def test_deterministic_injection_sequence(self):
        def run():
            client = self.client("timeout:0.3,garbage:0.2", seed=9)
            outcomes = []
            for _ in range(80):
                try:
                    outcomes.append(client.complete("p"))
                except ChatClientError as error:
                    outcomes.append(f"err:{error.kind}")
            return outcomes

        assert run() == run()

    def test_error_faults_constant_matches_kinds(self):
        assert ERROR_FAULTS < set(FAULT_KINDS)


class TestFaultClock:
    def test_sleep_advances_and_records(self):
        clock = FaultClock(start=10.0)
        assert clock.monotonic() == 10.0
        clock.sleep(2.5)
        clock.sleep(0.5)
        assert clock.monotonic() == 13.0
        assert clock.sleeps == [2.5, 0.5]

    def test_advance_does_not_record(self):
        clock = FaultClock()
        clock.advance(5.0)
        assert clock.monotonic() == 5.0
        assert clock.sleeps == []


class TestCompleteIndexedFaults:
    """Content-keyed fault draws: deterministic whatever the call order."""

    def plan(self, seed=0):
        return FaultPlan.parse("timeout:0.3,http500:0.2", seed=seed)

    def test_fault_schedule_is_thread_order_independent(self):
        prompts = [f"Q: Is the triple (e{i}, is_a, c) correct?" for i in range(8)]

        def outcomes(order):
            client = FaultyClient(EchoClient(), self.plan())
            seen = {}
            for index in order:
                prompt = prompts[index]
                try:
                    seen[index] = client.complete_indexed(prompt, 0)
                except ChatClientError as error:
                    seen[index] = f"error:{error.kind}"
            return seen

        forward = outcomes(range(8))
        backward = outcomes(reversed(range(8)))
        assert forward == backward

    def test_attempts_are_counted_per_delivery(self):
        client = FaultyClient(EchoClient(), self.plan())
        prompt = "Q: Is the triple (a, is_a, b) correct?"
        results = []
        for _ in range(client.plan.max_consecutive + 1):
            try:
                results.append(client.complete_indexed(prompt, 0))
            except ChatClientError as error:
                results.append(f"error:{error.kind}")
        # Faults are bounded per delivery: by max_consecutive+1 attempts the
        # delivery must have gotten a clean completion through.
        assert "True" in results

    def test_repeats_draw_independent_schedules(self):
        prompt = "Q: Is the triple (a, is_a, b) correct?"

        def first_attempt_outcome(repeat):
            client = FaultyClient(EchoClient(), self.plan(seed=5))
            try:
                client.complete_indexed(prompt, repeat)
                return "clean"
            except ChatClientError as error:
                return error.kind

        outcomes = {r: first_attempt_outcome(r) for r in range(12)}
        # Deterministic per repeat...
        assert outcomes == {r: first_attempt_outcome(r) for r in range(12)}
        # ...and not one global coin: with a 44% combined rate over 12
        # repeats, both clean and faulted first attempts must appear.
        assert len(set(outcomes.values())) > 1

    def test_corruption_faults_still_consume_a_completion(self):
        plan = FaultPlan.parse("garbage:1.0", seed=0)
        inner = EchoClient("a perfectly good completion")
        client = FaultyClient(inner, plan)
        text = client.complete_indexed("Q: anything", 0)
        assert text != "a perfectly good completion"
        assert client.injected.get("garbage", 0) >= 1
