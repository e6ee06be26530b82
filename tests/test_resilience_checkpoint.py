"""Tests for the checkpoint journal and ICL kill-and-resume behaviour.

A killed ICL run resumes from its response cache: every successful
completion is a fsynced journal record, so a rerun over the same cache
serves those as hits and delivers only the remainder.
"""

import json

import pytest

from repro.core.datasets import train_test_split_9_1
from repro.delivery import DeliveryBackend, DeliveryEngine, ResponseCache
from repro.llm.client import ChatClient, ChatClientError, EchoClient
from repro.llm.icl import (
    ICLConfig,
    build_icl_queries,
    run_icl_experiment,
)
from repro.llm.prompts import PromptVariant
from repro.llm.simulated import GPT4_PROFILE, SimulatedChatModel, truth_table
from repro.resilience.checkpoint import CheckpointAbort, Journal
from repro.resilience.faults import FaultClock, FaultPlan, FaultyClient
from repro.resilience.retry import RetryPolicy

SMALL = ICLConfig(
    n_positive_queries=15,
    n_negative_queries=15,
    n_repeats=3,
    seed=0,
)


class CountingClient(ChatClient):
    """Echoes 'True'; counts completions."""

    def __init__(self):
        self.completions = 0

    def complete(self, prompt: str) -> str:
        self.completions += 1
        return "True"


class FailingClient(ChatClient):
    """An endpoint that is down until ``healthy`` is flipped."""

    def __init__(self, healthy: bool = False):
        self.healthy = healthy

    def complete(self, prompt: str) -> str:
        if self.healthy:
            return "True"
        raise ChatClientError("endpoint is down", status=503, retryable=True,
                              kind="http")


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.record("0:0", "true")
            journal.record("0:1", "false")
            journal.record("__meta__", {"model": "m"})
        assert Journal(path).load() == {
            "0:0": "true", "0:1": "false", "__meta__": {"model": "m"},
        }

    def test_missing_file_loads_empty(self, tmp_path):
        assert Journal(tmp_path / "absent.jsonl").load() == {}

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.record("a", "true")
            journal.record("b", "false")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "c", "val')  # crash mid-append
        assert Journal(path).load() == {"a": "true", "b": "false"}

    def test_appends_after_torn_tail_survive_the_next_load(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.record("a", "true")
            journal.record("b", {"model": "m"})
        intact = path.read_bytes()
        last_start = intact.rindex(b"\n", 0, len(intact) - 1) + 1
        for cut in range(last_start, len(intact)):
            path.write_bytes(intact[:cut])  # crash mid-append of record "b"
            with Journal(path) as journal:
                journal.record("c", 1)
                journal.record("d", [2])
            loaded = Journal(path).load()
            assert loaded["c"] == 1 and loaded["d"] == [2], cut
            assert loaded["a"] == "true", cut
            # only the newline was lost: the record itself is intact
            assert ("b" in loaded) == (cut == len(intact) - 1), cut

    def test_non_record_line_stops_load(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"key": "a", "value": 1}) + "\n")
            handle.write(json.dumps(["not", "a", "record"]) + "\n")
            handle.write(json.dumps({"key": "b", "value": 2}) + "\n")
        assert Journal(path).load() == {"a": 1}

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "j.jsonl"
        with Journal(path) as journal:
            journal.record("a", 1)
        assert Journal(path).load() == {"a": 1}


def _run(client, dataset, cache_dir=None, **kwargs):
    """The small protocol over ``client``; with ``cache_dir``, through a
    one-backend engine whose response cache lives there."""
    split = train_test_split_9_1(dataset, seed=0)
    queries = build_icl_queries(dataset, SMALL)
    if cache_dir is not None:
        cache = ResponseCache(cache_dir)
        kwargs["engine"] = DeliveryEngine(
            [DeliveryBackend(client.name, client)], cache=cache
        )
    try:
        return run_icl_experiment(
            client, list(split.train), queries, PromptVariant.BASE, SMALL,
            **kwargs,
        )
    finally:
        if cache_dir is not None:
            cache.close()


def _segment_sizes(cache_dir):
    """Record count of each response-cache segment under ``cache_dir``."""
    return [
        len(Journal(segment).load())
        for segment in (cache_dir / "llm-response").glob("*.jsonl")
    ]


class TestICLCheckpointResume:
    def run(self, client, dataset, **kwargs):
        return _run(client, dataset, **kwargs)

    def test_completed_journal_skips_every_delivery(self, tmp_path, task1_dataset):
        first = CountingClient()
        self.run(first, task1_dataset, cache_dir=tmp_path)
        assert first.completions == 90

        second = CountingClient()
        result = self.run(second, task1_dataset, cache_dir=tmp_path)
        assert second.completions == 0
        assert result.n_resumed == 0  # unused field, kept for digests

    def test_kill_and_resume_matches_uninterrupted(self, tmp_path, task1_dataset):
        client = SimulatedChatModel(
            GPT4_PROFILE, truth_table(task1_dataset), 1, seed=0
        )
        baseline = self.run(client, task1_dataset)

        killed = SimulatedChatModel(
            GPT4_PROFILE, truth_table(task1_dataset), 1, seed=0
        )
        with pytest.raises(CheckpointAbort) as exc:
            self.run(killed, task1_dataset, cache_dir=tmp_path,
                     max_deliveries=37)
        assert exc.value.delivered == 37
        assert _segment_sizes(tmp_path) == [37]

        resumed_client = SimulatedChatModel(
            GPT4_PROFILE, truth_table(task1_dataset), 1, seed=0
        )
        resumed = self.run(resumed_client, task1_dataset, cache_dir=tmp_path)
        # The rerun appended only the 53 deliveries the kill left undone.
        assert sorted(_segment_sizes(tmp_path)) == [37, 90 - 37]
        assert resumed.accuracy_mean == baseline.accuracy_mean
        assert resumed.kappa == baseline.kappa
        assert resumed.f1_mean == baseline.f1_mean
        assert resumed.n_unclassified == baseline.n_unclassified


class TestGracefulDegradation:
    def run(self, client, dataset, **kwargs):
        return _run(client, dataset, **kwargs)

    def test_dead_endpoint_degrades_not_crashes(self, task1_dataset):
        result = self.run(FailingClient(), task1_dataset)
        assert result.n_failed == 90
        assert result.n_unclassified == 90
        assert result.accuracy_mean == 0.0

    def test_failed_deliveries_are_reasked_on_resume(
        self, tmp_path, task1_dataset
    ):
        with pytest.raises(CheckpointAbort):
            self.run(FailingClient(), task1_dataset, cache_dir=tmp_path,
                     max_deliveries=20)
        # Failures are never cached: the healed endpoint answers all 90.
        result = self.run(FailingClient(healthy=True), task1_dataset,
                          cache_dir=tmp_path)
        assert result.n_failed == 0
        assert result.n_unclassified == 0

    def test_error_faults_with_retry_are_invisible(self, task1_dataset):
        """Retryable injected faults leave the table byte-identical."""
        baseline_client = SimulatedChatModel(
            GPT4_PROFILE, truth_table(task1_dataset), 1, seed=0
        )
        baseline = self.run(baseline_client, task1_dataset)

        inner = SimulatedChatModel(
            GPT4_PROFILE, truth_table(task1_dataset), 1, seed=0
        )
        plan = FaultPlan.parse("timeout:0.1,http500:0.05,malformed:0.05", seed=4)
        faulty = FaultyClient(inner, plan)
        retry = RetryPolicy(base_delay=0.01, clock=FaultClock(), seed=0)
        with DeliveryEngine(
            [DeliveryBackend(faulty.name, faulty, retry=retry)]
        ) as engine:
            result = self.run(faulty, task1_dataset, engine=engine)

        assert sum(faulty.injected.values()) > 0  # faults actually fired
        assert result.n_failed == 0
        assert result.accuracy_mean == baseline.accuracy_mean
        assert result.kappa == baseline.kappa
        assert result.f1_mean == baseline.f1_mean
        assert result.precision_mean == baseline.precision_mean
        assert result.recall_mean == baseline.recall_mean

    def test_corruption_faults_degrade_gracefully(self, task1_dataset):
        inner = EchoClient("True")
        faulty = FaultyClient(inner, FaultPlan.parse("garbage:0.2", seed=1))
        result = self.run(faulty, task1_dataset)
        # Garbage completions parse as unclassified, not crashes.
        assert result.n_unclassified > 0
        assert result.n_failed == 0
