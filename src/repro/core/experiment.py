"""The Lab: one-stop construction and caching of the whole apparatus.

Benchmarks and examples need the same expensive objects — the synthetic
ontology, the corpora, six trained embedding models, a pretrained mini-BERT,
task datasets and their splits.  :class:`Lab` exposes each lazily; the
substrates form an explicit **stage graph** (:mod:`repro.pipeline`) where
every substrate is a named stage with declared dependencies and a
deterministic content-addressed cache key.

:mod:`repro.pipeline.stages` is the only place a substrate is built.  Each
``Lab`` accessor checks its arguments against the same sources of truth the
graph is registered from (task numbers, embedding names, adaptation kinds)
and then materialises one stage; an argument the graph has no stage for is
rejected before anything is built.

Three consequences of the graph:

* **Persistent caching.**  With ``LabConfig.artifact_dir`` (or the
  ``$REPRO_ARTIFACTS`` environment variable) set, stage artifacts persist
  in an on-disk :class:`~repro.pipeline.store.ArtifactStore`; a second run
  with the same configuration loads every substrate instead of rebuilding
  it.  Cache keys hash the exact configuration slice each stage reads, so
  changing an upstream knob invalidates precisely the affected stages.
* **Parallel warming.**  :meth:`Lab.warm` topologically schedules ready
  stages concurrently (threads by default; a process pool for CPU-heavy
  builds against a shared store).
* **Observability.**  Every materialisation records a ``lab.<stage>`` span,
  bumps an ``artifacts.hit``/``miss``/``built`` counter, and lands in run
  manifests under ``context.stages``.

Results are independent of cache state and schedule: builders derive all
randomness from the configuration, artifacts round-trip byte-identically,
and the pretrained BERT is canonicalised so warm and cold runs produce
identical tables.

Scale note: the paper's full datasets hold ~620k triples; the Lab defaults
target minutes-not-hours runtimes (a few thousand entities, capped training
sets).  Every knob is in :class:`LabConfig`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Sequence, Tuple

from repro.adaptation.naive import naive_token_filter
from repro.adaptation.task_oriented import PHRASE_LEVEL_ERROR, stopword_filter
from repro.bert.finetune import FineTuneConfig, FineTunedClassifier
from repro.bert.model import MiniBert
from repro.bert.wordpiece import WordPieceTokenizer
from repro.core.datasets import Dataset, DatasetSplit
from repro.core.tasks import task_by_number
from repro.embeddings.base import EmbeddingModel
from repro.embeddings.registry import MODEL_NAMES, STATIC_MODEL_NAMES
from repro.metrics.classification import ClassificationReport, evaluate_binary
from repro.ml.features import FeatureExtractor, TokenFilter
from repro.ml.forest import RandomForest, RandomForestConfig
from repro.ml.lstm import LSTMClassifier, LSTMConfig
from repro.obs.manifest import record_config, record_stage_event
from repro.obs.trace import get_tracer, span
from repro.ontology.model import Ontology
from repro.pipeline.graph import StageGraph
from repro.pipeline.scheduler import StageResult, StageScheduler
from repro.pipeline.stages import build_lab_graph
from repro.pipeline.store import ArtifactStore
from repro.utils.rng import SeedLike, stable_hash

#: Adaptation kinds accepted by :meth:`Lab.adaptation_filter`.
ADAPTATIONS = ("none", "naive", "task-oriented")


@dataclass(frozen=True)
class LabConfig:
    """Every knob of the experimental apparatus."""

    # ontology
    n_chemical_entities: int = 2_000
    ontology_seed: int = 7
    # corpora
    corpus_documents: int = 250
    corpus_sentences: int = 25
    corpus_seed: int = 11
    statement_coverage: float = 0.6
    generic_chemistry_fraction: float = 0.12
    biomedical_chemistry_fraction: float = 0.55
    # embeddings
    embedding_dim: int = 64
    embedding_epochs: int = 3
    glove_epochs: int = 10
    # BERT
    wordpiece_vocab: int = 900
    bert_d_model: int = 64
    bert_layers: int = 4
    bert_heads: int = 4
    bert_d_ff: int = 128
    bert_max_len: int = 64
    pretrain_epochs: int = 3
    pretrain_sentences: int = 3_000
    # datasets
    dataset_seed: int = 42
    max_train: Optional[int] = 4_000
    max_test: Optional[int] = 1_000
    # models
    rf_estimators: int = 30
    rf_max_depth: int = 16
    lstm_hidden: int = 32
    lstm_epochs: int = 5
    ft_epochs: int = 6
    ft_learning_rate: float = 1e-3
    seed: int = 0
    # pipeline: directory for the persistent artifact store (None falls back
    # to $REPRO_ARTIFACTS; unset disables on-disk caching entirely)
    artifact_dir: Optional[str] = None


#: The grid search's pinned subsample stream (Section 2.6); the split
#: streams live beside the split builders in :mod:`repro.pipeline.stages`.
GRID_SEARCH_CAP_SEED = 6


def subsample(
    dataset: Dataset, max_size: Optional[int], seed: Optional[SeedLike] = None
) -> Dataset:
    """Class-ratio-preserving random subsample of at most ``max_size``.

    With ``seed=None`` the draw's seed is derived from the dataset's
    identity (its name and the cap), so two different datasets subsampled
    "with the defaults" no longer share one hard-coded seed.  Callers that
    pin a protocol (the Lab's split stages, the grid-search cap) pass their
    seeds explicitly, which keeps historical golden values unchanged.
    """
    if max_size is None or len(dataset) <= max_size:
        return dataset
    if seed is None:
        seed = stable_hash("subsample", dataset.name, max_size)
    n_pos, n_neg = dataset.counts()
    total = n_pos + n_neg
    take_pos = max(1, int(round(max_size * n_pos / total)))
    take_neg = max(1, max_size - take_pos)
    return dataset.sample(min(take_pos, n_pos), min(take_neg, n_neg), seed=seed)


# The stage graph is pure structure (frozen stages, builder functions), so a
# single shared instance serves every Lab in the process.
_GRAPH: Optional[StageGraph] = None
_GRAPH_LOCK = threading.Lock()


def lab_graph() -> StageGraph:
    """The process-wide Lab stage graph (built once, shared by all Labs)."""
    global _GRAPH
    if _GRAPH is None:
        with _GRAPH_LOCK:
            if _GRAPH is None:
                _GRAPH = build_lab_graph()
    return _GRAPH


def _check_embedding(name: str) -> None:
    if name not in MODEL_NAMES:
        raise KeyError(
            f"unknown embedding {name!r}; have {sorted(MODEL_NAMES)}"
        )


def _check_adaptation(kind: str, embedding_name: Optional[str]) -> None:
    if kind not in ADAPTATIONS:
        raise ValueError(f"unknown adaptation {kind!r}; valid: {ADAPTATIONS}")
    if kind != "task-oriented":
        return
    if embedding_name is None:
        raise ValueError("task-oriented adaptation needs an embedding name")
    _check_embedding(embedding_name)
    if embedding_name not in STATIC_MODEL_NAMES:
        raise ValueError(PHRASE_LEVEL_ERROR)


class Lab:
    """Lazily constructed, cached experimental apparatus (a stage-graph facade)."""

    def __init__(self, config: Optional[LabConfig] = None):
        self.config = config or LabConfig()
        self.graph = lab_graph()
        self.store: Optional[ArtifactStore] = ArtifactStore.from_config(
            self.config
        )
        self._cache: Dict[str, object] = {}
        self._stage_locks: Dict[str, threading.Lock] = {}
        self._locks_guard = threading.Lock()
        self._keys: Dict[str, str] = self.graph.keys(self.config)
        record_config(self.config)

    # -- pipeline plumbing ----------------------------------------------------

    def _lock_for(self, name: str) -> threading.Lock:
        """The per-stage lock serialising one stage's materialisation."""
        with self._locks_guard:
            lock = self._stage_locks.get(name)
            if lock is None:
                lock = self._stage_locks[name] = threading.Lock()
            return lock

    def stage_key(self, name: str) -> str:
        """The content-addressed cache key of one stage under this config."""
        try:
            return self._keys[name]
        except KeyError:
            return self.graph.key(name, self.config)

    def stage_keys(self) -> Dict[str, str]:
        """Stage name -> content-addressed key, for every graph stage."""
        return dict(self._keys)

    def materialize(self, name: str) -> object:
        """Materialise one stage (and, recursively, its dependencies).

        Resolution order: the in-process memo, then the artifact store
        (persistable stages with a store configured), then a build — which
        also persists the artifact for the next run.  Thread-safe: a
        per-stage lock guarantees each stage is materialised at most once
        per Lab even under the parallel scheduler, and lock acquisition
        follows dependency edges only (a DAG), so it cannot deadlock.
        """
        stage = self.graph.stage(name)
        with self._lock_for(name):
            if name in self._cache:
                return self._cache[name]
            start = time.perf_counter()
            with span(f"lab.{name}") as sp:
                inputs = {dep: self.materialize(dep) for dep in stage.deps}
                if self.store is not None and stage.persistable:
                    key = self.stage_key(name)
                    artifact, status = self.store.build_or_load(
                        stage, key, inputs, lambda: stage.build(self, inputs)
                    )
                else:
                    key = None
                    artifact = stage.build(self, inputs)
                    status = "built"
                duration = time.perf_counter() - start
                sp.annotate(stage=name, status=status, key=key)
                sp.incr(f"artifacts.{status}")
                get_tracer().count(f"artifacts.{status}")
                record_stage_event(name, status, key=key, duration_s=duration)
            self._cache[name] = artifact
            return artifact

    def warm(
        self,
        targets: Optional[Sequence[str]] = None,
        jobs: Optional[int] = None,
        executor: str = "thread",
    ) -> Dict[str, StageResult]:
        """Materialise stages in parallel (default: every persistable stage).

        With an artifact store configured this populates it, so subsequent
        runs (and other processes sharing the store) load instead of
        building.  See :class:`~repro.pipeline.scheduler.StageScheduler`
        for executor semantics and failure isolation.
        """
        return StageScheduler(self).run(
            targets=targets, jobs=jobs, executor=executor
        )

    # -- substrates -----------------------------------------------------------

    @property
    def ontology(self) -> Ontology:
        return self.materialize("ontology")

    @property
    def chemistry_sentences(self):
        return self.materialize("corpus-chemistry")

    @property
    def generic_sentences(self):
        return self.materialize("corpus-generic")

    @property
    def biomedical_sentences(self):
        return self.materialize("corpus-biomedical")

    # -- BERT -------------------------------------------------------------------

    @property
    def wordpiece(self) -> WordPieceTokenizer:
        return self.materialize("wordpiece")

    @property
    def bert(self) -> MiniBert:
        return self.materialize("bert")

    # -- embeddings ----------------------------------------------------------------

    @cached_property
    def embeddings(self) -> Dict[str, EmbeddingModel]:
        return {name: self.embedding(name) for name in MODEL_NAMES}

    def embedding(self, name: str) -> EmbeddingModel:
        _check_embedding(name)
        return self.materialize(f"embedding-{name}")

    # -- datasets ---------------------------------------------------------------------

    def dataset(self, task: int) -> Dataset:
        task_by_number(task)
        return self.materialize(f"dataset-{task}")

    def ml_split(self, task: int) -> DatasetSplit:
        """9:1 supervised-learning split with the configured size caps."""
        task_by_number(task)
        return self.materialize(f"ml-split-{task}")

    def ft_split(self, task: int) -> DatasetSplit:
        """8:1:1 fine-tuning split with the configured size caps."""
        task_by_number(task)
        return self.materialize(f"ft-split-{task}")

    # -- adaptations --------------------------------------------------------------------

    def adaptation_filter(
        self, kind: str, embedding_name: Optional[str] = None
    ) -> Optional[TokenFilter]:
        """Token filter for an adaptation kind (and embedding, if needed).

        ``none`` returns ``None``; ``naive`` is shared across embeddings;
        ``task-oriented`` wraps the embedding's ``task-filter-*`` stage, so
        Algorithm 2 runs once per embedding (and persists in the artifact
        store, when configured).
        """
        _check_adaptation(kind, embedding_name)
        if kind == "none":
            return None
        if kind == "naive":
            return naive_token_filter()
        return stopword_filter(self.materialize(f"task-filter-{embedding_name}"))

    # -- evaluation helpers -----------------------------------------------------------------

    def rf_config(self) -> RandomForestConfig:
        return RandomForestConfig(
            n_estimators=self.config.rf_estimators,
            max_depth=self.config.rf_max_depth,
            seed=self.config.seed,
        )

    def lstm_config(self) -> LSTMConfig:
        return LSTMConfig(
            hidden_size=self.config.lstm_hidden,
            epochs=self.config.lstm_epochs,
            seed=self.config.seed,
        )

    def trained_forest(
        self, task: int, embedding_name: str, adaptation: str = "none"
    ) -> Tuple[FeatureExtractor, RandomForest]:
        """Memoized (extractor, fitted forest) for one RF cell.

        Several experiments reuse the same trained forests (Tables 3/6,
        Figures 2/A1), so cells are trained once per Lab.
        """
        task_by_number(task)
        _check_adaptation(adaptation, embedding_name)
        _check_embedding(embedding_name)
        return self.materialize(f"forest-{task}-{embedding_name}-{adaptation}")

    def evaluate_random_forest(
        self, task: int, embedding_name: str, adaptation: str = "none"
    ) -> Tuple[ClassificationReport, RandomForest]:
        """Train (cached) + evaluate one (task, embedding, adaptation) cell."""
        split = self.ml_split(task)
        extractor, forest = self.trained_forest(task, embedding_name, adaptation)
        predictions = forest.predict(extractor.matrix(split.test.triples))
        report = evaluate_binary(split.test.labels(), predictions)
        return report, forest

    def ft_config(self) -> FineTuneConfig:
        return FineTuneConfig(
            epochs=self.config.ft_epochs,
            learning_rate=self.config.ft_learning_rate,
            seed=self.config.seed,
        )

    def fine_tuned(self, task: int) -> FineTunedClassifier:
        """Memoized fine-tuned classifier for a task (Table 4 protocol)."""
        task_by_number(task)
        return self.materialize(f"fine-tuned-{task}")

    def evaluate_fine_tuned(self, task: int) -> ClassificationReport:
        """Evaluate the cached fine-tuned model on the FT test split."""
        split = self.ft_split(task)
        classifier = self.fine_tuned(task)
        predictions = classifier.predict(split.test.triples)
        return evaluate_binary(split.test.labels(), predictions)

    def grid_search_random_forest(
        self,
        task: int,
        embedding_name: str,
        adaptation: str = "naive",
        grid: Optional[Dict[str, Sequence[object]]] = None,
        n_folds: int = 5,
        max_samples: Optional[int] = 1_000,
    ):
        """The paper's hyperparameter protocol: 5-fold CV grid search on the
        training split, scored by F1 (Section 2.6).

        Returns a :class:`~repro.ml.grid_search.GridSearchResult`.  The
        default grid covers tree count and depth; ``max_samples`` caps the
        search data (CV multiplies training cost by folds x combinations).
        """
        from repro.ml.grid_search import grid_search

        grid = grid or {
            "n_estimators": [10, self.config.rf_estimators],
            "max_depth": [8, self.config.rf_max_depth],
        }
        split = self.ml_split(task)
        train = subsample(split.train, max_samples, seed=GRID_SEARCH_CAP_SEED)
        extractor = FeatureExtractor(
            self.embedding(embedding_name),
            self.adaptation_filter(adaptation, embedding_name),
        )
        features = extractor.matrix(train.triples)
        labels = extractor.labels(train.triples)

        def factory(params):
            return RandomForest(
                RandomForestConfig(seed=self.config.seed, **params)
            )

        return grid_search(
            factory, grid, features, labels, n_folds=n_folds,
            seed=self.config.seed,
        )

    def evaluate_lstm(
        self, task: int, embedding_name: str, adaptation: str = "none"
    ) -> Tuple[ClassificationReport, LSTMClassifier]:
        """Train + evaluate one LSTM cell (Appendix Table A6)."""
        split = self.ml_split(task)
        token_filter = self.adaptation_filter(adaptation, embedding_name)
        extractor = FeatureExtractor(self.embedding(embedding_name), token_filter)
        model = LSTMClassifier(
            extractor.embeddings.dim, self.lstm_config()
        ).fit(
            extractor.sequences(split.train.triples),
            extractor.labels(split.train.triples),
        )
        predictions = model.predict(extractor.sequences(split.test.triples))
        report = evaluate_binary(split.test.labels(), predictions)
        return report, model


__all__ = ["LabConfig", "Lab", "subsample", "lab_graph", "ADAPTATIONS"]
