"""Unified interface over the three NLP paradigms.

The head-to-head comparison (Table 6) and the data-availability scenarios
(Figure 3) evaluate heterogeneous models on the same triples.  Every paradigm
is wrapped as: ``fit(train_triples)`` then ``classify(triples) ->
List[Optional[int]]`` where ``None`` marks an unclassified response (only the
ICL paradigm produces those; the paper counts them as errors for accuracy and
excludes them from precision/recall/F1).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

import numpy as np

from repro.bert.finetune import FineTuneConfig, fine_tune
from repro.bert.model import MiniBert
from repro.core.triples import LabeledTriple
from repro.embeddings.base import EmbeddingModel
from repro.llm.client import ChatClient
from repro.llm.icl import TRUE, UNCLASSIFIED, _draw_examples, parse_response
from repro.llm.prompts import PromptVariant, render_prompt
from repro.ml.features import FeatureExtractor, TokenFilter
from repro.ml.forest import RandomForest, RandomForestConfig
from repro.ml.lstm import LSTMClassifier, LSTMConfig
from repro.utils.rng import SeedLike, derive_rng

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.delivery.engine import DeliveryEngine


class Paradigm(abc.ABC):
    """A fit/classify wrapper around one modelling approach."""

    def __init__(self, name: str):
        self.name = name

    @abc.abstractmethod
    def fit(self, train: Sequence[LabeledTriple]) -> "Paradigm":
        """Train (or prepare) the paradigm on labelled triples."""

    @abc.abstractmethod
    def classify(self, triples: Sequence[LabeledTriple]) -> List[Optional[int]]:
        """Per-triple 0/1 decision, or ``None`` when unclassified."""

    def predict(self, triples: Sequence[LabeledTriple]) -> np.ndarray:
        """Hard labels with unclassified responses mapped to 0 (reject)."""
        return np.array(
            [0 if c is None else c for c in self.classify(triples)], dtype=np.int64
        )


class RandomForestParadigm(Paradigm):
    """Supervised learning: embedding features + Random Forest."""

    def __init__(
        self,
        embeddings: EmbeddingModel,
        token_filter: Optional[TokenFilter] = None,
        config: Optional[RandomForestConfig] = None,
        name: Optional[str] = None,
    ):
        super().__init__(name or f"RF({embeddings.name})")
        self.extractor = FeatureExtractor(embeddings, token_filter)
        self.config = config or RandomForestConfig()
        self.model: Optional[RandomForest] = None

    def fit(self, train: Sequence[LabeledTriple]) -> "RandomForestParadigm":
        features = self.extractor.matrix(train)
        labels = self.extractor.labels(train)
        self.model = RandomForest(self.config).fit(features, labels)
        return self

    def classify(self, triples: Sequence[LabeledTriple]) -> List[Optional[int]]:
        if self.model is None:
            raise RuntimeError(f"{self.name} is not fitted")
        return [int(p) for p in self.model.predict(self.extractor.matrix(triples))]

    def predict_proba(self, triples: Sequence[LabeledTriple]) -> np.ndarray:
        """Positive-class probabilities (for ROC analyses)."""
        if self.model is None:
            raise RuntimeError(f"{self.name} is not fitted")
        return self.model.predict_proba(self.extractor.matrix(triples))


class LogisticRegressionParadigm(Paradigm):
    """Supervised learning: embedding features + logistic regression.

    The linear comparator to :class:`RandomForestParadigm` (an extension
    beyond the paper's RF/LSTM archetypes).
    """

    def __init__(
        self,
        embeddings: EmbeddingModel,
        token_filter: Optional[TokenFilter] = None,
        config: Optional["LogisticRegressionConfig"] = None,
        name: Optional[str] = None,
    ):
        from repro.ml.logistic import LogisticRegression, LogisticRegressionConfig

        super().__init__(name or f"LogReg({embeddings.name})")
        self.extractor = FeatureExtractor(embeddings, token_filter)
        self.config = config or LogisticRegressionConfig()
        self.model: Optional[LogisticRegression] = None

    def fit(self, train: Sequence[LabeledTriple]) -> "LogisticRegressionParadigm":
        from repro.ml.logistic import LogisticRegression

        self.model = LogisticRegression(self.config).fit(
            self.extractor.matrix(train), self.extractor.labels(train)
        )
        return self

    def classify(self, triples: Sequence[LabeledTriple]) -> List[Optional[int]]:
        if self.model is None:
            raise RuntimeError(f"{self.name} is not fitted")
        return [int(p) for p in self.model.predict(self.extractor.matrix(triples))]

    def predict_proba(self, triples: Sequence[LabeledTriple]) -> np.ndarray:
        if self.model is None:
            raise RuntimeError(f"{self.name} is not fitted")
        return self.model.predict_proba(self.extractor.matrix(triples))


class LSTMParadigm(Paradigm):
    """Supervised learning: embedding sequences + LSTM classifier."""

    def __init__(
        self,
        embeddings: EmbeddingModel,
        token_filter: Optional[TokenFilter] = None,
        config: Optional[LSTMConfig] = None,
        name: Optional[str] = None,
    ):
        super().__init__(name or f"LSTM({embeddings.name})")
        self.extractor = FeatureExtractor(embeddings, token_filter)
        self.config = config or LSTMConfig()
        self.model: Optional[LSTMClassifier] = None

    def fit(self, train: Sequence[LabeledTriple]) -> "LSTMParadigm":
        sequences = self.extractor.sequences(train)
        labels = self.extractor.labels(train)
        self.model = LSTMClassifier(self.extractor.embeddings.dim, self.config)
        self.model.fit(sequences, labels)
        return self

    def classify(self, triples: Sequence[LabeledTriple]) -> List[Optional[int]]:
        if self.model is None:
            raise RuntimeError(f"{self.name} is not fitted")
        return [int(p) for p in self.model.predict(self.extractor.sequences(triples))]

    def predict_proba(self, triples: Sequence[LabeledTriple]) -> np.ndarray:
        if self.model is None:
            raise RuntimeError(f"{self.name} is not fitted")
        return self.model.predict_proba(self.extractor.sequences(triples))


class FineTuneParadigm(Paradigm):
    """Fine-tuning: pretrained mini-BERT + classification head."""

    def __init__(
        self,
        pretrained: MiniBert,
        config: Optional[FineTuneConfig] = None,
        name: str = "FT(PubmedBERT)",
    ):
        super().__init__(name)
        self.pretrained = pretrained
        self.config = config or FineTuneConfig()
        self.classifier = None

    def fit(self, train: Sequence[LabeledTriple]) -> "FineTuneParadigm":
        self.classifier = fine_tune(self.pretrained, train, self.config)
        return self

    def classify(self, triples: Sequence[LabeledTriple]) -> List[Optional[int]]:
        if self.classifier is None:
            raise RuntimeError(f"{self.name} is not fitted")
        return [int(p) for p in self.classifier.predict(triples)]

    def predict_proba(self, triples: Sequence[LabeledTriple]) -> np.ndarray:
        if self.classifier is None:
            raise RuntimeError(f"{self.name} is not fitted")
        return self.classifier.predict_proba(triples)


class ICLParadigm(Paradigm):
    """In-context learning: few-shot prompting of a chat model.

    ``fit`` stores the training triples as the example pool (no parameters
    are updated — the defining property of the paradigm).  ``classify``
    renders one prompt per triple and parses the single completion;
    unparseable or abstaining completions come back as ``None``, as do
    deliveries that ended in a typed failure.

    Completions go through ``engine`` (a
    :class:`repro.delivery.DeliveryEngine`), which carries the retries,
    circuit breakers and response cache; without one, a one-backend
    engine over ``client`` is built.  Each query is delivered at repeat
    index 0, so the answer is a pure function of the prompt regardless of
    what else the engine is serving (the serving batch-invariance
    contract).
    """

    def __init__(
        self,
        client: ChatClient,
        variant: PromptVariant = PromptVariant.BASE,
        n_examples_per_class: int = 3,
        seed: SeedLike = 0,
        name: Optional[str] = None,
        engine: Optional["DeliveryEngine"] = None,
    ):
        from repro.delivery import DeliveryBackend, DeliveryEngine

        super().__init__(name or f"ICL({client.name})")
        self.client = client
        self.variant = variant
        self.n_examples_per_class = n_examples_per_class
        self.seed = seed
        self.engine = engine or DeliveryEngine(
            [DeliveryBackend(client.name, client)]
        )
        self._pool_pos: List[LabeledTriple] = []
        self._pool_neg: List[LabeledTriple] = []

    def fit(self, train: Sequence[LabeledTriple]) -> "ICLParadigm":
        self._pool_pos = [t for t in train if t.label == 1]
        self._pool_neg = [t for t in train if t.label == 0]
        if (
            len(self._pool_pos) < self.n_examples_per_class
            or len(self._pool_neg) < self.n_examples_per_class
        ):
            raise ValueError("training pool too small for the few-shot budget")
        return self

    def classify(self, triples: Sequence[LabeledTriple]) -> List[Optional[int]]:
        from repro.delivery import DeliveryError

        if not self._pool_pos:
            raise RuntimeError(f"{self.name} is not fitted")
        results: List[Optional[int]] = []
        for index, query in enumerate(triples):
            rng = derive_rng(self.seed, "icl-paradigm", index, query.as_text())
            positives, negatives = _draw_examples(
                self._pool_pos,
                self._pool_neg,
                query,
                self.n_examples_per_class,
                rng,
            )
            prompt = render_prompt(
                positives,
                negatives,
                query,
                variant=self.variant,
                seed=derive_rng(self.seed, "icl-paradigm-order", index),
            )
            try:
                text = self.engine.complete(prompt, repeat=0)
            except DeliveryError:
                results.append(None)
                continue
            answer = parse_response(text)
            if answer == UNCLASSIFIED:
                results.append(None)
            else:
                results.append(1 if answer == TRUE else 0)
        return results


__all__ = [
    "Paradigm",
    "RandomForestParadigm",
    "LogisticRegressionParadigm",
    "LSTMParadigm",
    "FineTuneParadigm",
    "ICLParadigm",
]
