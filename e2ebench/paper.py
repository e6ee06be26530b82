"""The paper workload: regenerate Tables 3a, 4 and 5 through a fresh ``Lab``.

One regeneration builds every stage the three tables need, in topological order,
then evaluates the 15 random-forest cells of Table 3a (task 1), the three
fine-tuned tasks of Table 4 and the 27 in-context-learning cells of
Table 5.  Table 5 runs through a ``DeliveryEngine`` over simulated,
latency-bound replicas with a ``ResponseCache`` in the round's artifact
store, so a first run writes every completion and its re-run reads it.

A regeneration is a pure function of its ``LabConfig``: its table digest does not
depend on the store being cold or warm, on the engine's concurrency, or on
whether the timing proxies are installed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from typing import Dict, List

import numpy as np

from tracing import (
    OFF,
    DeliveryClock,
    Recorder,
    TimedCache,
    TimedClient,
    TimedEngine,
    TimedStore,
)

from repro.core import Lab, LabConfig
from repro.core.datasets import train_test_split_9_1
from repro.delivery import (
    DeliveryBackend,
    DeliveryConfig,
    DeliveryEngine,
    LatencyClient,
    ResponseCache,
)
from repro.llm.icl import ICLConfig, build_icl_queries, run_icl_experiment
from repro.llm.prompts import PromptVariant
from repro.llm.simulated import (
    BIOGPT_PROFILE,
    GPT35_PROFILE,
    GPT4_PROFILE,
    SimulatedChatModel,
    truth_table,
)
from repro.pipeline.store import ArtifactStore

#: Simulated per-completion latency of every Table 5 replica, and its
#: seeded jitter.  Nonzero, so the response cache's cost (cold) and saving
#: (warm) are both measured against a latency-bound backend.  A hosted
#: model answers in 0.3-3 s; 20 ms keeps a round short, and its 8 ms jitter
#: band is wide enough that a delivery's p99 is the band's top rather than
#: the host's scheduling hiccups, which a 2 ms band (5 ms) let through.
LATENCY_S = 0.020
LATENCY_JITTER = 0.2

#: Smaller than ``benchmarks/conftest.py``'s 2,000-entity apparatus, whose
#: ~3 min warm-up does not fit one benchmark run; the stage graph and every
#: code path are the same.
LAB_SIZES = dict(
    n_chemical_entities=150,
    corpus_documents=30,
    corpus_sentences=10,
    embedding_dim=8,
    embedding_epochs=2,
    glove_epochs=3,
    wordpiece_vocab=200,
    bert_d_model=16,
    bert_layers=1,
    bert_heads=2,
    bert_d_ff=32,
    bert_max_len=24,
    pretrain_epochs=1,
    pretrain_sentences=200,
    max_train=120,
    max_test=40,
    rf_estimators=4,
    rf_max_depth=6,
    ft_epochs=1,
)

#: Table 5's protocol at reduced size: 10 queries delivered twice per cell,
#: so 27 cells make 540 completions a round.
ICL_SIZES = dict(n_positive_queries=5, n_negative_queries=5, n_repeats=2)

TASKS = (1, 2, 3)
PROFILES = (GPT4_PROFILE, GPT35_PROFILE, BIOGPT_PROFILE)

#: Table 3a: RF on task 1, embedding x adaptation as the paper reports it.
CELLS_3A = tuple(
    (embedding, adaptation)
    for embedding in ("Random", "GloVe", "W2V-Chem", "GloVe-Chem", "BioWordVec")
    for adaptation in ("none", "naive", "task-oriented")
    if (embedding, adaptation) != ("Random", "task-oriented")
) + (("PubmedBERT", "none"),)

#: Every stage the three tables read; their closure is built in order.
TARGETS = (
    [f"forest-1-{embedding}-{adaptation}" for embedding, adaptation in CELLS_3A]
    + [f"fine-tuned-{task}" for task in TASKS]
    + [f"dataset-{task}" for task in TASKS]
)


def lab_config(seed: int, artifact_dir=None) -> LabConfig:
    """The workload's apparatus: sizes fixed, every seed drawn from ``seed``."""
    draws = np.random.default_rng(seed).integers(0, 2**31 - 1, size=4)
    ontology_seed, corpus_seed, dataset_seed, lab_seed = (int(d) for d in draws)
    return LabConfig(
        ontology_seed=ontology_seed,
        corpus_seed=corpus_seed,
        dataset_seed=dataset_seed,
        seed=lab_seed,
        artifact_dir=artifact_dir,
        **LAB_SIZES,
    )


def stage_layer(name: str) -> str:
    """The layer a stage's build belongs to."""
    if name == "ontology":
        return "ontology.synthesize"
    if name.startswith("corpus-"):
        return "text.corpora"
    if name == "wordpiece":
        return "bert.wordpiece"
    if name == "bert":
        return "bert.pretrain"
    if name.startswith(("glove-cooccur-", "glove-chem-cooccur-", "w2v-pairs-")):
        return "embeddings.shards"
    if name.startswith("embedding-"):
        return f"embeddings.{name[len('embedding-'):]}.train"
    if name.startswith("task-filter-"):
        return "adaptation.task_filter"
    if name.startswith(("dataset-", "ml-split-", "ft-split-")):
        return "core.datasets"
    if name.startswith("forest-"):
        return "ml.forest_fit"
    if name.startswith("fine-tuned-"):
        return "bert.finetune"
    raise ValueError(f"no layer for stage {name!r}")


def digest(obj) -> str:
    """Digest of a table: floats enter with every digit (``repr``)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _icl_row(task: int, result) -> dict:
    row = dataclasses.asdict(result)
    row["variant"] = result.variant.value
    row["task"] = task
    return row


def _icl_inputs(lab: Lab, task: int, icl: ICLConfig, recorder: Recorder):
    with recorder.span("core.datasets"):
        dataset = lab.dataset(task)
        pool = list(train_test_split_9_1(dataset, seed=lab.config.seed).train)
    with recorder.span("llm.icl"):
        queries = build_icl_queries(dataset, icl)
        truth = truth_table(dataset)
    return pool, queries, truth


def reference_table5(config: LabConfig) -> str:
    """Table 5 digest via the sequential ``run_icl_experiment`` loop.

    Built in a store-less Lab, one fresh simulated client per cell and no
    engine, cache or latency: the path the engine must agree with.
    """
    lab = Lab(dataclasses.replace(config, artifact_dir=None))
    icl = ICLConfig(seed=config.seed, **ICL_SIZES)
    rows = []
    for task in TASKS:
        pool, queries, truth = _icl_inputs(lab, task, icl, OFF)
        for profile in PROFILES:
            for variant in PromptVariant:
                client = SimulatedChatModel(profile, truth, task, seed=config.seed)
                result = run_icl_experiment(client, pool, queries, variant, icl)
                rows.append(_icl_row(task, result))
    return digest(rows)


@dataclasses.dataclass
class Round:
    """What one regeneration measured and produced."""

    wall_s: float
    digest: str
    table5_digest: str
    #: Stages materialized + table cells evaluated + ICL deliveries.
    attempted: int
    #: ICL deliveries that degraded into a ``failed`` outcome.
    failed: int
    clock: DeliveryClock
    recorder: Recorder


def _replicas(profile, truth, task, config, replicas, recorder):
    backends = []
    for index in range(replicas):
        client = LatencyClient(
            SimulatedChatModel(profile, truth, task, seed=config.seed),
            LATENCY_S,
            jitter=LATENCY_JITTER,
            seed=config.seed + index,
        )
        if recorder.enabled:
            client = TimedClient(client, recorder)
        backends.append(DeliveryBackend(f"{profile.name}-{index}", client))
    return backends


def regenerate(config: LabConfig, replicas: int, recorder: Recorder = OFF) -> Round:
    """One round: Tables 3a, 4 and 5 through a fresh Lab over ``config``'s store.

    Table 5 is delivered by one engine job over ``replicas`` backends: with
    concurrent jobs a delivery's latency mostly measures how long its worker
    waited for the interpreter lock.  With an enabled ``recorder`` the
    timing proxies are installed; without one the program runs as a user
    would call it, bar the delivery clock.
    """
    clock = DeliveryClock()
    started = time.perf_counter()
    lab = Lab(config)
    if recorder.enabled:
        lab.store = TimedStore(lab.store.root, recorder)
    # The cache shares the round's store directory through its own handle,
    # so completion writes are never counted as stage-artifact writes.
    cache = TimedCache(ResponseCache(ArtifactStore(lab.store.root)), clock, recorder)
    attempted = failed = 0

    for name in lab.graph.topological_order(TARGETS):
        with recorder.span(stage_layer(name)):
            lab.materialize(name)
        attempted += 1

    tables: Dict[str, List] = {"3a": [], "4": [], "5": []}
    for embedding, adaptation in CELLS_3A:
        with recorder.span("ml.forest_predict"):
            report, _ = lab.evaluate_random_forest(1, embedding, adaptation)
        tables["3a"].append([embedding, adaptation, dataclasses.asdict(report)])
    for task in TASKS:
        with recorder.span("bert.ft_predict"):
            report = lab.evaluate_fine_tuned(task)
        tables["4"].append([task, dataclasses.asdict(report)])

    icl = ICLConfig(seed=config.seed, **ICL_SIZES)
    for task in TASKS:
        pool, queries, truth = _icl_inputs(lab, task, icl, recorder)
        for profile in PROFILES:
            for variant in PromptVariant:
                with recorder.span("llm.icl"):
                    backends = _replicas(
                        profile, truth, task, config, replicas, recorder
                    )
                    with DeliveryEngine(
                        backends,
                        DeliveryConfig(jobs=1, seed=config.seed),
                        cache=cache,
                    ) as engine:
                        result = run_icl_experiment(
                            backends[0].client,
                            pool,
                            queries,
                            variant,
                            icl,
                            engine=TimedEngine(engine, clock, recorder),
                        )
                tables["5"].append(_icl_row(task, result))
                attempted += len(queries) * icl.n_repeats
                failed += result.n_failed
    wall_s = time.perf_counter() - started
    attempted += len(tables["3a"]) + len(tables["4"]) + len(tables["5"])
    return Round(
        wall_s=wall_s,
        digest=digest(tables),
        table5_digest=digest(tables["5"]),
        attempted=attempted,
        failed=failed,
        clock=clock,
        recorder=recorder,
    )


__all__ = [
    "LATENCY_S",
    "LAB_SIZES",
    "ICL_SIZES",
    "CELLS_3A",
    "TARGETS",
    "lab_config",
    "stage_layer",
    "digest",
    "reference_table5",
    "Round",
    "regenerate",
]
