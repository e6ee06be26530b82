"""Golden Table 5 results: the ICL protocol's outcome pinned as digests.

Each digest is the sha256 of one :class:`~repro.llm.icl.ICLResult`
(``dataclasses.asdict`` as canonical JSON, so every count and every float
bit is covered).  They were recorded from the original sequential delivery
loop, before every delivery went through
:class:`~repro.delivery.engine.DeliveryEngine`, and are the reference the
engine path must reproduce: all three simulated models under all three
prompt variants, a run killed after 37 deliveries and resumed from its
response cache (which must equal the uninterrupted run), and a run under
retried error faults.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core.datasets import train_test_split_9_1
from repro.delivery import DeliveryBackend, DeliveryEngine, ResponseCache
from repro.llm.icl import ICLConfig, build_icl_queries, run_icl_experiment
from repro.llm.prompts import PromptVariant
from repro.llm.simulated import (
    BIOGPT_PROFILE,
    GPT35_PROFILE,
    GPT4_PROFILE,
    SimulatedChatModel,
    truth_table,
)
from repro.resilience.checkpoint import CheckpointAbort
from repro.resilience.faults import FaultClock, FaultPlan, FaultyClient
from repro.resilience.retry import RetryPolicy

SMALL = ICLConfig(
    n_positive_queries=15,
    n_negative_queries=15,
    n_repeats=3,
    seed=0,
)

PROFILES = {
    profile.name: profile
    for profile in (GPT4_PROFILE, GPT35_PROFILE, BIOGPT_PROFILE)
}

#: (model, variant) -> digest of the uninterrupted, fault-free result.
GOLDEN = {
    ("gpt-4", 1): "c89a6f131a47f85961cea34c1d85e8db31645029f87de151225676cd42d73da8",
    ("gpt-4", 2): "4b79654369bcb14fa024f2aca1b1f438a816c5419d26df5fa01f83d98a70e498",
    ("gpt-4", 3): "5f025c8b20ea84ef4d926a9bb9d6270344d7e676b42b0201944073ea8ee7a132",
    ("gpt-3.5-turbo", 1): "2d38b1f391def8465a89edcc81933d97370224ecf0091de2a4cbe8f74a658bad",
    ("gpt-3.5-turbo", 2): "6ec1b6c57cdf51792086d3b8b9340fd77abe83823dbb5ce331ddcedfeab98a93",
    ("gpt-3.5-turbo", 3): "e33db5ba3fea5706b6da583369a78b738df842d20e3edde09a42109b12a9b989",
    ("biogpt", 1): "604ab2f83e1ab537d28a3e5c5c573cb42564fb4db453e9b091ff529ae977243b",
    ("biogpt", 2): "9f9d8a252ec69f0f94adfd563c76dcd20873b957df27af42c518181dcbe40066",
    ("biogpt", 3): "50fe1867e564dd693a34a492aa8c0dd30bab76711f479349613a0d46fad6a4b3",
}


def result_digest(result):
    row = dataclasses.asdict(result)
    row["variant"] = result.variant.value
    return hashlib.sha256(json.dumps(row, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def icl_inputs(task1_dataset):
    split = train_test_split_9_1(task1_dataset, seed=0)
    return {
        "pool": list(split.train),
        "queries": build_icl_queries(task1_dataset, SMALL),
        "truth": truth_table(task1_dataset),
    }


def run(icl_inputs, client, variant=PromptVariant.BASE, **kwargs):
    return run_icl_experiment(
        client, icl_inputs["pool"], icl_inputs["queries"], variant, SMALL,
        **kwargs,
    )


def gpt4(icl_inputs):
    return SimulatedChatModel(GPT4_PROFILE, icl_inputs["truth"], 1, seed=0)


@pytest.mark.parametrize("model,variant", sorted(GOLDEN))
def test_table5_cell_matches_golden(icl_inputs, model, variant):
    client = SimulatedChatModel(PROFILES[model], icl_inputs["truth"], 1, seed=0)
    result = run(icl_inputs, client, PromptVariant(variant))
    assert result_digest(result) == GOLDEN[(model, variant)], result


def test_kill_at_37_and_resume_matches_golden(icl_inputs, tmp_path):
    def run_cached(**kwargs):
        client = gpt4(icl_inputs)
        cache = ResponseCache(tmp_path)
        engine = DeliveryEngine(
            [DeliveryBackend(client.name, client)], cache=cache
        )
        try:
            return run(icl_inputs, client, engine=engine, **kwargs)
        finally:
            cache.close()

    with pytest.raises(CheckpointAbort) as abort:
        run_cached(max_deliveries=37)
    assert abort.value.delivered == 37
    resumed = run_cached()
    assert result_digest(resumed) == GOLDEN[("gpt-4", 1)], resumed


def test_retried_error_faults_match_golden(icl_inputs):
    plan = FaultPlan.parse("timeout:0.1,http500:0.05,malformed:0.05", seed=4)
    faulty = FaultyClient(gpt4(icl_inputs), plan)
    retry = RetryPolicy(base_delay=0.01, clock=FaultClock(), seed=0)
    with DeliveryEngine(
        [DeliveryBackend(faulty.name, faulty, retry=retry)]
    ) as engine:
        result = run(icl_inputs, faulty, engine=engine)
    assert sum(faulty.injected.values()) > 0  # faults actually fired
    assert result_digest(result) == GOLDEN[("gpt-4", 1)], result
