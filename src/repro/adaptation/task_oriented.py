"""Task-oriented adaptation — the paper's Algorithm 2.

Embedding-specific identification of less semantically meaningful tokens:

1. take the top 25% most frequent tokens among positive-triple head and tail
   entities;
2. cluster their embedding vectors with DBSCAN;
3. for ``I`` iterations, sample ``N`` unique entities; compute each entity's
   centroid representation with and without a cluster's tokens and record the
   variance of pairwise centroid distances (``D1`` vs ``D2``);
4. a two-sample t-test per cluster: when removing the cluster's tokens
   changes the distance-variance significantly (p <= 0.05), the cluster's
   tokens become stop words.

The resulting stop-word set plugs into the feature pipeline as a token
filter, exactly like the naive adaptation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy import stats

from repro.adaptation.dbscan import NOISE, dbscan, pairwise_distances
from repro.core.triples import LabeledTriple
from repro.embeddings.base import EmbeddingModel
from repro.text.tokenizer import ChemTokenizer
from repro.utils.rng import SeedLike, derive_rng

#: Why Algorithm 2 rejects phrase-level models (they have no token vectors).
PHRASE_LEVEL_ERROR = (
    "task-oriented adaptation requires a token-level embedding model"
)


@dataclass(frozen=True)
class TaskOrientedConfig:
    """Algorithm 2 parameters.

    Attributes:
        top_fraction: share of most frequent tokens analysed (paper: 25%).
        n_entities: entities sampled per iteration (paper: 5,000; scaled
            down by default because pairwise distances are quadratic).
        n_iterations: sampling repetitions feeding the t-test (paper: 10).
        p_threshold: significance level for stop-word promotion.
        eps: DBSCAN radius (``None`` = automatic elbow heuristic).
        min_samples: DBSCAN core-point threshold.
        seed: sampling seed.
    """

    top_fraction: float = 0.25
    n_entities: int = 300
    n_iterations: int = 10
    p_threshold: float = 0.05
    eps: Optional[float] = None
    min_samples: int = 3
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.top_fraction <= 1.0:
            raise ValueError("top_fraction must be in (0, 1]")
        if self.n_entities < 3 or self.n_iterations < 2:
            raise ValueError("need n_entities >= 3 and n_iterations >= 2")
        if not 0.0 < self.p_threshold < 1.0:
            raise ValueError("p_threshold must be in (0, 1)")


def head_tail_token_frequencies(
    positives: Sequence[LabeledTriple],
    tokenizer: Optional[ChemTokenizer] = None,
) -> Counter:
    """Token frequencies over positive-triple head and tail entity names."""
    tokenizer = tokenizer or ChemTokenizer()
    counter: Counter = Counter()
    for triple in positives:
        counter.update(tokenizer(triple.subject_name))
        counter.update(tokenizer(triple.object_name))
    if not counter:
        raise ValueError("no tokens found in positive triples")
    return counter


def _distance_variance(matrix: np.ndarray) -> float:
    """Variance of pairwise Euclidean distances between matrix rows."""
    distances = pairwise_distances(matrix)
    upper = distances[np.triu_indices(distances.shape[0], k=1)]
    return float(np.var(upper))


def _entity_centroids(
    entity_tokens: List[List[str]],
    embeddings: EmbeddingModel,
    exclude: Set[str],
) -> np.ndarray:
    rows = []
    for tokens in entity_tokens:
        kept = [t for t in tokens if t not in exclude]
        if not kept:
            kept = tokens
        rows.append(embeddings.mean_vector(kept))
    return np.stack(rows)


def select_stop_tokens(
    positives: Sequence[LabeledTriple],
    embeddings: EmbeddingModel,
    config: Optional[TaskOrientedConfig] = None,
    tokenizer: Optional[ChemTokenizer] = None,
) -> Set[str]:
    """Run Algorithm 2 and return the stop-word set for ``embeddings``.

    Phrase-level embedding models have no per-token vectors to cluster;
    the paper accordingly applies no token selection to PubmedBERT
    embeddings (Tables 3a/A7 dashes), and this function raises for them.
    """
    if embeddings.phrase_level:
        raise ValueError(PHRASE_LEVEL_ERROR)
    config = config or TaskOrientedConfig()
    tokenizer = tokenizer or ChemTokenizer()
    rng = derive_rng(config.seed, "task-oriented", embeddings.name)

    token_freq = head_tail_token_frequencies(positives, tokenizer)
    ordered = sorted(token_freq.items(), key=lambda kv: (-kv[1], kv[0]))
    n_top = max(config.min_samples + 1, int(len(ordered) * config.top_fraction))
    top_tokens = [token for token, _ in ordered[:n_top]]

    vectors = np.stack([embeddings.vector(token) for token in top_tokens])
    labels = dbscan(vectors, eps=config.eps, min_samples=config.min_samples)
    clusters: Dict[int, List[str]] = {}
    for token, label in zip(top_tokens, labels):
        if label != NOISE:
            clusters.setdefault(int(label), []).append(token)
    if not clusters:
        return set()

    # Unique head/tail entities of positive triples, pre-tokenised once.
    entity_names: Dict[str, List[str]] = {}
    for triple in positives:
        for name in (triple.subject_name, triple.object_name):
            if name not in entity_names:
                tokens = tokenizer(name)
                if tokens:
                    entity_names[name] = tokens
    all_entities = list(entity_names.values())
    if len(all_entities) < 3:
        return set()
    n_sample = min(config.n_entities, len(all_entities))

    baseline_vars: Dict[int, List[float]] = {c: [] for c in clusters}
    ablated_vars: Dict[int, List[float]] = {c: [] for c in clusters}
    for _ in range(config.n_iterations):
        chosen = rng.choice(len(all_entities), size=n_sample, replace=False)
        sample = [all_entities[int(i)] for i in chosen]
        base_matrix = _entity_centroids(sample, embeddings, exclude=set())
        base_var = _distance_variance(base_matrix)
        for cluster_id, tokens in clusters.items():
            ablated = _entity_centroids(sample, embeddings, exclude=set(tokens))
            baseline_vars[cluster_id].append(base_var)
            ablated_vars[cluster_id].append(_distance_variance(ablated))

    stop_tokens: Set[str] = set()
    for cluster_id, tokens in clusters.items():
        base = baseline_vars[cluster_id]
        ablated = ablated_vars[cluster_id]
        if np.allclose(base, ablated):
            continue  # removing the cluster changed nothing
        _, p_value = stats.ttest_ind(base, ablated, equal_var=False)
        if np.isfinite(p_value) and p_value <= config.p_threshold:
            stop_tokens.update(tokens)
    return stop_tokens


def stopword_filter(stop_tokens: Set[str]) -> Callable[[List[str]], List[str]]:
    """Token filter dropping the given stop words (keeps all if none remain)."""

    def token_filter(tokens: List[str]) -> List[str]:
        kept = [t for t in tokens if t not in stop_tokens]
        return kept if kept else list(tokens)

    return token_filter


def task_oriented_filter(
    positives: Sequence[LabeledTriple],
    embeddings: EmbeddingModel,
    config: Optional[TaskOrientedConfig] = None,
) -> Callable[[List[str]], List[str]]:
    """Convenience: run Algorithm 2 and wrap the result as a token filter."""
    return stopword_filter(select_stop_tokens(positives, embeddings, config))


__all__ = [
    "PHRASE_LEVEL_ERROR",
    "TaskOrientedConfig",
    "head_tail_token_frequencies",
    "select_stop_tokens",
    "stopword_filter",
    "task_oriented_filter",
]
