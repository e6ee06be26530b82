"""The ICL experiment protocol (paper Sections 2.4 and 3.2, Table 5).

For each task: 100 query triples (50 positive, 50 negative) of relationship
type ``is_a`` and fewer than 60 tokens are drawn; each query is wrapped in a
few-shot prompt with three positive and three negative example triples from
the training data; each prompt is delivered five times.  Reported metrics:

* **overall accuracy** per delivery pass, counting unclassified responses
  (no parsable True/False, or an explicit "I don't know") as errors —
  mean (SD) over the five passes;
* **precision / recall / F1** per pass over the *classified* responses only;
* **number unclassified** — total over all deliveries, with percentage;
* **Fleiss' kappa** across the five deliveries of each prompt.

Every delivery goes through one path, a
:class:`~repro.delivery.engine.DeliveryEngine` (a one-backend, one-job
engine over the client when the caller passes none).  A permanently failed
delivery degrades into an explicit ``failed`` outcome (scored as
unclassified, tallied in ``ICLResult.n_failed``) instead of crashing the
table.  A killed run resumes from the engine's response cache: a rerun over
the same cache serves every completion already delivered as a hit and
delivers only the remainder.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.datasets import Dataset
from repro.core.triples import LabeledTriple
from repro.llm.client import ChatClient
from repro.llm.prompts import PromptVariant, render_prompt
from repro.metrics.agreement import fleiss_kappa
from repro.obs.progress import StageProgress
from repro.obs.trace import span
from repro.resilience.checkpoint import CheckpointAbort
from repro.text.tokenizer import ChemTokenizer
from repro.utils.rng import SeedLike, derive_rng

if TYPE_CHECKING:  # imported lazily at run time to keep the module light
    from repro.delivery.engine import DeliveryEngine

#: Parse outcomes.
TRUE, FALSE, UNCLASSIFIED = "true", "false", "unclassified"

_TRUE_RE = re.compile(r"\btrue\b", re.IGNORECASE)
_FALSE_RE = re.compile(r"\bfalse\b", re.IGNORECASE)
_ABSTAIN_RE = re.compile(r"\bi\s+(?:don'?t|do\s+not)\s+know\b", re.IGNORECASE)


def parse_response(text: str) -> str:
    """Map a free-text completion to ``true`` / ``false`` / ``unclassified``.

    Explicit abstentions and responses mentioning both or neither label are
    unclassified, as in the paper's evaluation.
    """
    if _ABSTAIN_RE.search(text):
        return UNCLASSIFIED
    has_true = bool(_TRUE_RE.search(text))
    has_false = bool(_FALSE_RE.search(text))
    if has_true == has_false:
        return UNCLASSIFIED
    return TRUE if has_true else FALSE


@dataclass(frozen=True)
class ICLConfig:
    """Protocol parameters (defaults reproduce the paper's setup)."""

    n_positive_queries: int = 50
    n_negative_queries: int = 50
    n_repeats: int = 5
    n_examples_per_class: int = 3
    relation_name: Optional[str] = "is_a"
    max_query_tokens: int = 60
    seed: int = 0

    def __post_init__(self):
        if self.n_positive_queries < 1 or self.n_negative_queries < 1:
            raise ValueError("need at least one query per class")
        if self.n_repeats < 2:
            raise ValueError("n_repeats must be >= 2 for consistency metrics")
        if self.n_examples_per_class < 1:
            raise ValueError("n_examples_per_class must be >= 1")


@dataclass(frozen=True)
class ICLResult:
    """Aggregated outcome of one (model, variant, task) experiment."""

    model_name: str
    variant: PromptVariant
    accuracy_mean: float
    accuracy_sd: float
    n_unclassified: int
    unclassified_percent: float
    precision_mean: float
    precision_sd: float
    recall_mean: float
    recall_sd: float
    f1_mean: float
    f1_sd: float
    kappa: float
    #: Deliveries that permanently failed (after retries) and degraded into
    #: the unclassified bucket.
    n_failed: int = 0
    #: Unused: always 0 since a killed run resumes from the response cache.
    #: Kept only because ``e2ebench/paper.py`` digests every field.
    n_resumed: int = 0

    def as_row(self) -> dict:
        return {
            "model": self.model_name,
            "variant": self.variant.value,
            "accuracy": round(self.accuracy_mean, 4),
            "accuracy_sd": round(self.accuracy_sd, 4),
            "unclassified": self.n_unclassified,
            "unclassified_pct": round(self.unclassified_percent, 1),
            "precision": round(self.precision_mean, 4),
            "recall": round(self.recall_mean, 4),
            "f1": round(self.f1_mean, 4),
            "kappa": round(self.kappa, 2),
            "failed": self.n_failed,
        }


def build_icl_queries(
    dataset: Dataset, config: Optional[ICLConfig] = None
) -> List[LabeledTriple]:
    """Draw the query pool: 50+50 short ``is_a`` triples (Section 3.2)."""
    config = config or ICLConfig()
    tokenizer = ChemTokenizer()

    def eligible(triple: LabeledTriple) -> bool:
        if (
            config.relation_name is not None
            and triple.relation.name != config.relation_name
        ):
            return False
        return len(tokenizer(triple.as_text())) < config.max_query_tokens

    pool = [t for t in dataset if eligible(t)]
    positives = [t for t in pool if t.label == 1]
    negatives = [t for t in pool if t.label == 0]
    if len(positives) < config.n_positive_queries:
        raise ValueError(
            f"only {len(positives)} eligible positive queries, need "
            f"{config.n_positive_queries}"
        )
    if len(negatives) < config.n_negative_queries:
        raise ValueError(
            f"only {len(negatives)} eligible negative queries, need "
            f"{config.n_negative_queries}"
        )
    rng = derive_rng(config.seed, "icl-queries", dataset.name)
    chosen_pos = [positives[int(i)] for i in
                  rng.choice(len(positives), config.n_positive_queries, replace=False)]
    chosen_neg = [negatives[int(i)] for i in
                  rng.choice(len(negatives), config.n_negative_queries, replace=False)]
    combined = chosen_pos + chosen_neg
    order = rng.permutation(len(combined))
    return [combined[int(i)] for i in order]


def _draw_examples(
    pool_pos: Sequence[LabeledTriple],
    pool_neg: Sequence[LabeledTriple],
    query: LabeledTriple,
    k: int,
    rng: np.random.Generator,
) -> Tuple[List[LabeledTriple], List[LabeledTriple]]:
    """k positive and k negative example triples, excluding the query."""

    def draw(pool: Sequence[LabeledTriple]) -> List[LabeledTriple]:
        chosen: List[LabeledTriple] = []
        seen = {query.key()}
        attempts = 0
        while len(chosen) < k:
            attempts += 1
            if attempts > 100 * k:
                raise ValueError("example pool too small to avoid duplicates")
            candidate = pool[int(rng.integers(0, len(pool)))]
            if candidate.key() in seen:
                continue
            seen.add(candidate.key())
            chosen.append(candidate)
        return chosen

    return draw(pool_pos), draw(pool_neg)


def _positive_metrics(gold: List[int], predicted: List[int]) -> Tuple[float, float, float]:
    tp = sum(1 for g, p in zip(gold, predicted) if g == 1 and p == 1)
    fp = sum(1 for g, p in zip(gold, predicted) if g == 0 and p == 1)
    fn = sum(1 for g, p in zip(gold, predicted) if g == 1 and p == 0)
    precision = tp / (tp + fp) if (tp + fp) else 0.0
    recall = tp / (tp + fn) if (tp + fn) else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    return precision, recall, f1


def run_icl_experiment(
    client: ChatClient,
    example_pool: Sequence[LabeledTriple],
    queries: Sequence[LabeledTriple],
    variant: PromptVariant = PromptVariant.BASE,
    config: Optional[ICLConfig] = None,
    *,
    max_deliveries: Optional[int] = None,
    engine: Optional["DeliveryEngine"] = None,
) -> ICLResult:
    """Deliver every prompt ``n_repeats`` times and aggregate Table 5 metrics.

    Every delivery goes through ``engine`` (a
    :class:`~repro.delivery.engine.DeliveryEngine`) as a ``(prompt,
    repeat)`` request.  Without one, a single-backend engine over
    ``client`` is built for the call (one job, no cache).  Retries, circuit
    breakers and deadlines belong to the engine's backends.  A delivery
    that ends ``failed`` / ``deadline`` / ``shed`` is scored as
    unclassified and counted in ``ICLResult.n_failed`` instead of aborting
    the run.  Because backend completions are pure in
    ``(prompt, repeat)``, the table does not depend on the engine's jobs
    or backends.

    ``max_deliveries`` stops the run with
    :class:`~repro.resilience.checkpoint.CheckpointAbort` after that many
    *new* deliveries — the controlled kill used to exercise resume.  An
    engine with a :class:`~repro.delivery.cache.ResponseCache` has already
    fsynced every successful completion, so a rerun over the same cache
    serves them as hits and delivers only the remainder; failed deliveries
    are not cached and are asked again.
    """
    from repro.delivery import (
        DeliveryBackend,
        DeliveryEngine,
        DeliveryOutcome,
        DeliveryRequest,
    )

    config = config or ICLConfig()
    if not queries:
        raise ValueError("no queries supplied")
    pool_pos = [t for t in example_pool if t.label == 1]
    pool_neg = [t for t in example_pool if t.label == 0]
    if len(pool_pos) <= config.n_examples_per_class or (
        len(pool_neg) <= config.n_examples_per_class
    ):
        raise ValueError("example pool too small for the few-shot budget")

    prompts: List[str] = []
    for index, query in enumerate(queries):
        rng = derive_rng(config.seed, "icl-examples", index)
        pos_examples, neg_examples = _draw_examples(
            pool_pos, pool_neg, query, config.n_examples_per_class, rng
        )
        prompts.append(
            render_prompt(
                pos_examples,
                neg_examples,
                query,
                variant=variant,
                seed=derive_rng(config.seed, "icl-order", index),
            )
        )

    n_queries = len(queries)
    requests = [
        DeliveryRequest(
            key=f"{repeat}:{q_index}",
            prompt=prompt,
            repeat=repeat,
            index=repeat * n_queries + q_index,
        )
        for repeat in range(config.n_repeats)
        for q_index, prompt in enumerate(prompts)
    ]

    if engine is None:
        engine = DeliveryEngine([DeliveryBackend(client.name, client)])
    gold = [query.label for query in queries]
    # responses[r][q] in {true, false, unclassified}
    responses: List[List[str]] = []
    n_failed = 0
    with span(
        "icl.experiment",
        model=client.name,
        variant=variant.value,
        queries=n_queries,
        repeats=config.n_repeats,
    ) as sp, StageProgress("icl.experiment", unit="deliveries") as progress:

        def on_outcome(request: DeliveryRequest, outcome: DeliveryOutcome) -> None:
            # Runs on the engine's worker threads; progress display
            # tolerates racy increments.
            progress.advance(1)

        report = engine.run(
            requests, on_outcome=on_outcome, max_deliveries=max_deliveries
        )
        if report.skipped:
            raise CheckpointAbort(
                f"delivery budget of {max_deliveries} reached "
                f"({report.cache_hits} cached, {report.delivered} delivered, "
                f"{report.skipped} skipped)",
                delivered=report.delivered,
            )
        sp.incr("deliveries", report.delivered + report.cache_hits)
        for repeat in range(config.n_repeats):
            passes: List[str] = []
            for q_index in range(n_queries):
                outcome = report.outcomes[f"{repeat}:{q_index}"]
                if outcome.ok:
                    passes.append(parse_response(outcome.text))
                else:
                    n_failed += 1
                    sp.incr("deliveries_failed")
                    passes.append(UNCLASSIFIED)
            responses.append(passes)

    accuracies, precisions, recalls, f1s = [], [], [], []
    n_unclassified = 0
    for answers in responses:
        correct = 0
        classified_gold: List[int] = []
        classified_pred: List[int] = []
        for answer, label in zip(answers, gold):
            if answer == UNCLASSIFIED:
                n_unclassified += 1
                continue
            predicted = 1 if answer == TRUE else 0
            classified_gold.append(label)
            classified_pred.append(predicted)
            if predicted == label:
                correct += 1
        accuracies.append(correct / len(gold))
        precision, recall, f1 = _positive_metrics(classified_gold, classified_pred)
        precisions.append(precision)
        recalls.append(recall)
        f1s.append(f1)

    ratings = [
        [responses[r][q] for r in range(config.n_repeats)]
        for q in range(len(queries))
    ]
    kappa = fleiss_kappa(ratings)
    total_deliveries = config.n_repeats * len(queries)

    def mean_sd(values: List[float]) -> Tuple[float, float]:
        arr = np.asarray(values)
        return float(arr.mean()), float(arr.std(ddof=1))

    acc_m, acc_s = mean_sd(accuracies)
    pre_m, pre_s = mean_sd(precisions)
    rec_m, rec_s = mean_sd(recalls)
    f1_m, f1_s = mean_sd(f1s)
    return ICLResult(
        model_name=client.name,
        variant=variant,
        accuracy_mean=acc_m,
        accuracy_sd=acc_s,
        n_unclassified=n_unclassified,
        unclassified_percent=100.0 * n_unclassified / total_deliveries,
        precision_mean=pre_m,
        precision_sd=pre_s,
        recall_mean=rec_m,
        recall_sd=rec_s,
        f1_mean=f1_m,
        f1_sd=f1_s,
        kappa=kappa,
        n_failed=n_failed,
    )


__all__ = [
    "ICLConfig",
    "ICLResult",
    "parse_response",
    "build_icl_queries",
    "run_icl_experiment",
    "TRUE",
    "FALSE",
    "UNCLASSIFIED",
]
