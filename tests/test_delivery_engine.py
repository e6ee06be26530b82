"""Tests for the concurrent delivery engine and its ICL integration.

The load-bearing property throughout: with interchangeable backends the
outcome map — and therefore the ICL table — is a pure function of the
request set, whatever the thread schedule, fault schedule or resume point.
"""

import threading

import pytest

from repro.core.datasets import build_task_dataset
from repro.delivery import (
    DeliveryBackend,
    DeliveryConfig,
    DeliveryEngine,
    DeliveryError,
    DeliveryRequest,
    ResponseCache,
    simulated_backends,
)
from repro.llm.client import ChatClientError, EchoClient
from repro.llm.icl import ICLConfig, build_icl_queries, run_icl_experiment
from repro.llm.prompts import PromptVariant
from repro.llm.simulated import GPT35_PROFILE, SimulatedChatModel, truth_table
from repro.ontology.synthesis import SynthesisConfig, synthesize_chebi_like
from repro.resilience.checkpoint import CheckpointAbort, Journal
from repro.resilience.faults import FaultClock
from repro.resilience.retry import CircuitBreaker, RetryPolicy
from repro.utils.rng import derive_rng


@pytest.fixture(scope="module")
def icl_setup():
    ontology = synthesize_chebi_like(
        SynthesisConfig(n_chemical_entities=120, seed=0)
    )
    dataset = build_task_dataset(ontology, 1, seed=0)
    config = ICLConfig(
        n_positive_queries=4, n_negative_queries=4, n_repeats=2, seed=0
    )
    return {
        "dataset": dataset,
        "truth": truth_table(dataset),
        "pool": list(dataset)[:100],
        "queries": build_icl_queries(dataset, config),
        "config": config,
    }


def _sequential_result(icl_setup):
    """The reference: no engine passed, so the default jobs=1 engine runs."""
    client = SimulatedChatModel(GPT35_PROFILE, icl_setup["truth"], 1, seed=0)
    return run_icl_experiment(
        client,
        icl_setup["pool"],
        icl_setup["queries"],
        PromptVariant.BASE,
        icl_setup["config"],
    )


def _engine_result(icl_setup, engine, **kwargs):
    client = SimulatedChatModel(GPT35_PROFILE, icl_setup["truth"], 1, seed=0)
    return run_icl_experiment(
        client,
        icl_setup["pool"],
        icl_setup["queries"],
        PromptVariant.BASE,
        icl_setup["config"],
        engine=engine,
        **kwargs,
    )


def _backends(icl_setup, n=3, **kwargs):
    return simulated_backends(
        GPT35_PROFILE, icl_setup["truth"], 1, n_backends=n, seed=0, **kwargs
    )


class _AlwaysFailing(EchoClient):
    def complete_indexed(self, prompt, repeat, *, timeout_s=None):
        raise ChatClientError("down", retryable=True, kind="network")


class TestEngineBasics:
    def test_requires_backends_with_unique_names(self):
        with pytest.raises(ValueError):
            DeliveryEngine([])
        pair = [
            DeliveryBackend("dup", EchoClient()),
            DeliveryBackend("dup", EchoClient()),
        ]
        with pytest.raises(ValueError):
            DeliveryEngine(pair)

    def test_complete_returns_text(self):
        with DeliveryEngine([DeliveryBackend("b0", EchoClient())]) as engine:
            assert engine.complete("any prompt") == "True"

    def test_complete_raises_typed_error_on_failure(self):
        with DeliveryEngine(
            [DeliveryBackend("b0", _AlwaysFailing())]
        ) as engine:
            with pytest.raises(DeliveryError) as exc:
                engine.complete("any prompt")
        assert exc.value.outcome.status == "failed"
        assert exc.value.retryable is False

    def test_shed_when_every_breaker_is_open(self):
        clock = FaultClock()
        breaker = CircuitBreaker(failure_threshold=1, clock=clock)
        breaker.record_failure()
        engine = DeliveryEngine(
            [DeliveryBackend("b0", EchoClient(), breaker=breaker, clock=clock)]
        )
        outcome = engine.deliver(DeliveryRequest(key="k", prompt="p"))
        assert outcome.status == "shed"
        assert engine.counters().get("shed") == 1

    def test_deadline_outcome_without_burning_the_schedule(self):
        clock = FaultClock()
        backend = DeliveryBackend(
            "b0",
            _AlwaysFailing(),
            retry=RetryPolicy(
                max_attempts=5, base_delay=10.0, clock=clock, seed=0
            ),
            clock=clock,
        )
        engine = DeliveryEngine(
            [backend], DeliveryConfig(deadline_s=0.5)
        )
        outcome = engine.deliver(DeliveryRequest(key="k", prompt="p"))
        assert outcome.status == "deadline"
        assert engine.counters() == {"deliveries": 1, "deadline": 1}


class TestHedging:
    """Several backends, all failing: the outcome is typed, never raised."""

    def test_hedged_failure_surfaces_last_error(self):
        engine = DeliveryEngine(
            [
                DeliveryBackend("a", _AlwaysFailing()),
                DeliveryBackend("b", _AlwaysFailing()),
            ]
        )
        outcome = engine.deliver(DeliveryRequest(key="k", prompt="p"))
        assert outcome.status == "failed"
        assert "down" in outcome.error
        assert engine.counters() == {"deliveries": 1, "failed": 1}


class TestResponseCaching:
    def test_run_serves_warm_requests_from_cache(self, tmp_path):
        requests = [
            DeliveryRequest(key=str(i), prompt=f"prompt {i}", index=i)
            for i in range(6)
        ]
        with ResponseCache(tmp_path / "cache") as cache:
            with DeliveryEngine(
                [DeliveryBackend("b0", EchoClient())], cache=cache
            ) as engine:
                first = engine.run(requests)
            with DeliveryEngine(
                [DeliveryBackend("b0", EchoClient())], cache=cache
            ) as engine:
                second = engine.run(requests)
        assert first.delivered == 6 and first.cache_hits == 0
        assert second.delivered == 0 and second.cache_hits == 6
        assert {key: o.text for key, o in second.outcomes.items()} == {
            key: o.text for key, o in first.outcomes.items()
        }

    def test_failures_are_not_cached(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        with DeliveryEngine(
            [DeliveryBackend("b0", _AlwaysFailing())], cache=cache
        ) as engine:
            engine.run([DeliveryRequest(key="k", prompt="p")])
        assert cache.get(EchoClient().name, "p", 0) is None
        assert cache.get("EchoClient", "p", 0) is None

    def test_cache_hits_do_not_consume_the_budget(self, tmp_path):
        requests = [
            DeliveryRequest(key=str(i), prompt=f"prompt {i}", index=i)
            for i in range(4)
        ]
        with ResponseCache(tmp_path / "cache") as cache:
            with DeliveryEngine(
                [DeliveryBackend("b0", EchoClient())], cache=cache
            ) as engine:
                engine.run(requests[:2])
            with DeliveryEngine(
                [DeliveryBackend("b0", EchoClient())], cache=cache
            ) as engine:
                report = engine.run(requests, max_deliveries=2)
        assert report.cache_hits == 2
        assert report.delivered == 2
        assert report.skipped == 0


class TestEngineMatchesSequential:
    """Concurrency, faults and caching against the jobs=1 default."""

    def test_concurrent_table_is_byte_identical(self, icl_setup):
        sequential = _sequential_result(icl_setup)
        with DeliveryEngine(
            _backends(icl_setup, n=3), DeliveryConfig(jobs=4)
        ) as engine:
            concurrent = _engine_result(icl_setup, engine)
        assert concurrent.as_row() == sequential.as_row()

    def test_faulted_concurrent_table_is_byte_identical(self, icl_setup):
        sequential = _sequential_result(icl_setup)
        retry = RetryPolicy(base_delay=0.01, clock=FaultClock(), seed=0)
        backends = _backends(
            icl_setup,
            n=3,
            fault_plan_text="timeout:0.15,http500:0.1,malformed:0.05",
            retry=retry,
        )
        with DeliveryEngine(backends, DeliveryConfig(jobs=4)) as engine:
            faulted = _engine_result(icl_setup, engine)
        assert faulted.as_row() == sequential.as_row()

    def test_kill_and_resume_matches_sequential(self, icl_setup, tmp_path):
        sequential = _sequential_result(icl_setup)
        killed_cache = ResponseCache(tmp_path)
        with DeliveryEngine(
            _backends(icl_setup, n=3), DeliveryConfig(jobs=4),
            cache=killed_cache,
        ) as engine:
            with pytest.raises(CheckpointAbort) as abort:
                _engine_result(icl_setup, engine, max_deliveries=5)
        killed_cache.close()
        assert abort.value.delivered == 5
        (segment,) = (tmp_path / "llm-response").glob("*.jsonl")
        assert len(Journal(segment).load()) == 5
        resumed_cache = ResponseCache(tmp_path)
        with DeliveryEngine(
            _backends(icl_setup, n=3), DeliveryConfig(jobs=4),
            cache=resumed_cache,
        ) as engine:
            resumed = _engine_result(icl_setup, engine)
            counters = engine.counters()
        resumed_cache.close()
        assert counters["cache_hit"] == 5
        assert counters["deliveries"] == 16 - 5
        assert resumed.as_row() == sequential.as_row()

    def test_warm_cache_rerun_rebuilds_nothing(self, icl_setup, tmp_path):
        sequential = _sequential_result(icl_setup)
        with ResponseCache(tmp_path / "cache") as cache:
            with DeliveryEngine(
                _backends(icl_setup, n=2), DeliveryConfig(jobs=4), cache=cache
            ) as engine:
                cold = _engine_result(icl_setup, engine)
                cold_counters = engine.counters()
            with DeliveryEngine(
                _backends(icl_setup, n=2), DeliveryConfig(jobs=4), cache=cache
            ) as engine:
                warm = _engine_result(icl_setup, engine)
                warm_counters = engine.counters()
        n_deliveries = cold_counters["deliveries"]
        assert warm_counters == {"cache_hit": n_deliveries}
        assert "completions" not in warm_counters
        assert warm.as_row() == sequential.as_row()
        assert cold.as_row() == sequential.as_row()


class TestJournalUnderConcurrency:
    def test_concurrent_appends_replay_to_one_map(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        entries = {f"{r}:{q}": "true" for r in range(4) for q in range(25)}

        def write(keys):
            for key in keys:
                journal.record(key, entries[key])

        keys = sorted(entries)
        chunks = [keys[i::8] for i in range(8)]
        threads = [
            threading.Thread(target=write, args=(chunk,)) for chunk in chunks
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        journal.close()
        assert journal.load() == entries

    @pytest.mark.parametrize("seed", range(5))
    def test_append_order_never_changes_the_replay(self, tmp_path, seed):
        # Property over seeded schedules: any permutation of the appends a
        # worker pool could produce loads to the same state.
        entries = {f"0:{q}": ("true" if q % 3 else "failed") for q in range(30)}
        order = list(entries)
        derive_rng(seed, "journal-order").shuffle(order)
        journal = Journal(tmp_path / f"j{seed}.jsonl")
        for key in order:
            journal.record(key, entries[key])
        journal.close()
        assert journal.load() == entries


class TestICLParadigmEngine:
    def test_engine_path_matches_client_path(self, icl_setup):
        from repro.core.paradigms import ICLParadigm

        triples = icl_setup["pool"][:6]
        train = icl_setup["pool"][6:60]
        direct = ICLParadigm(
            SimulatedChatModel(GPT35_PROFILE, icl_setup["truth"], 1, seed=0),
            seed=0,
        ).fit(train)
        expected = direct.classify(triples)
        with DeliveryEngine(_backends(icl_setup, n=2)) as engine:
            routed = ICLParadigm(
                SimulatedChatModel(
                    GPT35_PROFILE, icl_setup["truth"], 1, seed=0
                ),
                seed=0,
                engine=engine,
            ).fit(train)
            assert routed.classify(triples) == expected

    def test_engine_failure_degrades_to_none(self, icl_setup):
        from repro.core.paradigms import ICLParadigm

        train = icl_setup["pool"][6:60]
        with DeliveryEngine([DeliveryBackend("b0", _AlwaysFailing())]) as engine:
            paradigm = ICLParadigm(
                _AlwaysFailing(), seed=0, engine=engine
            ).fit(train)
            labels = paradigm.classify(icl_setup["pool"][:3])
        assert labels == [None, None, None]
