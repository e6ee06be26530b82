"""Simulated GPT-4 / GPT-3.5 / BioGPT chat models.

OpenAI's APIs and a GPU for BioGPT are unavailable offline, so the ICL
experiments run against behaviour-calibrated simulators.  Each simulator is
a :class:`~repro.llm.client.ChatClient`: it receives only the rendered
prompt text, parses the query triple out of it, consults a ground-truth
table, and produces a *free-text* completion through a behaviour model with
the failure modes the paper analyses:

* per-task knowledge levels (probability of answering correctly for positive
  and negative queries), calibrated to the paper's Table 5 variant-#1 rows;
* **order bias** — with some probability the model copies the label of the
  *last* few-shot example.  Under the blocked Table 1 ordering the last
  example is always negative, which is the mechanism behind BioGPT's
  near-zero recall; the shuffled variant #3 dissolves the effect;
* **informed abstention** — when the prompt permits "I don't know"
  (variant #2), abstention is more likely when the model would have answered
  incorrectly, which raises precision while lowering overall accuracy;
* **invalid responses** — off-task completions that the parser cannot map to
  True/False (frequent for BioGPT);
* **consistency** — repeated deliveries of the same prompt resample the
  behaviour with small probability, producing the Fleiss-kappa spread of
  Table 5.

Everything is deterministic given (profile, seed, prompt, repeat index).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.core.triples import LabeledTriple
from repro.llm.client import ChatClient
from repro.llm.prompts import (
    ABSTAIN_SENTENCE,
    example_order_signature,
    extract_query_text,
)
from repro.utils.rng import stable_hash


@dataclass(frozen=True)
class TaskAbility:
    """Knowledge level on one task: P(correct | positive/negative query)."""

    p_pos: float
    p_neg: float

    def __post_init__(self):
        for value in (self.p_pos, self.p_neg):
            if not 0.0 <= value <= 1.0:
                raise ValueError("ability probabilities must be in [0, 1]")


@dataclass(frozen=True)
class BehaviourProfile:
    """Calibrated behaviour of one simulated LLM."""

    name: str
    abilities: Mapping[int, TaskAbility]
    order_bias: float = 0.0
    invalid_rate: float = 0.0
    abstain_when_wrong: float = 0.0
    abstain_when_right: float = 0.0
    consistency: float = 1.0

    def __post_init__(self):
        for value in (
            self.order_bias,
            self.invalid_rate,
            self.abstain_when_wrong,
            self.abstain_when_right,
            self.consistency,
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError("behaviour probabilities must be in [0, 1]")

    def ability(self, task_number: int) -> TaskAbility:
        try:
            return self.abilities[task_number]
        except KeyError:
            raise KeyError(
                f"profile {self.name!r} has no ability for task {task_number}"
            ) from None


#: Calibrated to Table 5 variant #1 (see module docstring for derivation).
GPT4_PROFILE = BehaviourProfile(
    name="gpt-4",
    abilities={
        1: TaskAbility(p_pos=0.88, p_neg=1.00),
        2: TaskAbility(p_pos=0.80, p_neg=0.79),
        3: TaskAbility(p_pos=0.86, p_neg=0.93),
    },
    order_bias=0.06,
    invalid_rate=0.0,
    abstain_when_wrong=0.40,
    abstain_when_right=0.03,
    consistency=0.985,
)

GPT35_PROFILE = BehaviourProfile(
    name="gpt-3.5-turbo",
    abilities={
        1: TaskAbility(p_pos=0.70, p_neg=0.98),
        2: TaskAbility(p_pos=0.69, p_neg=0.76),
        3: TaskAbility(p_pos=0.62, p_neg=0.76),
    },
    order_bias=0.07,
    invalid_rate=0.0,
    abstain_when_wrong=0.55,
    abstain_when_right=0.08,
    consistency=0.99,
)

#: Extension beyond the paper (its stated future work): an open-source
#: chat model of the Llama-2-70B class, plausibly between GPT-3.5 and
#: BioGPT — weaker chemistry knowledge than the GPT models, mild order
#: bias, occasional off-task completions, decent consistency.
LLAMA2_PROFILE = BehaviourProfile(
    name="llama-2",
    abilities={
        1: TaskAbility(p_pos=0.62, p_neg=0.85),
        2: TaskAbility(p_pos=0.58, p_neg=0.64),
        3: TaskAbility(p_pos=0.55, p_neg=0.70),
    },
    order_bias=0.18,
    invalid_rate=0.05,
    abstain_when_wrong=0.25,
    abstain_when_right=0.05,
    consistency=0.90,
)

BIOGPT_PROFILE = BehaviourProfile(
    name="biogpt",
    abilities={
        1: TaskAbility(p_pos=0.5, p_neg=0.5),
        2: TaskAbility(p_pos=0.5, p_neg=0.5),
        3: TaskAbility(p_pos=0.5, p_neg=0.5),
    },
    order_bias=0.82,
    invalid_rate=0.20,
    abstain_when_wrong=0.05,
    abstain_when_right=0.05,
    consistency=0.35,
)

_TRUE_PHRASINGS = (
    "True",
    "True.",
    "<classification>: True",
    "The triple is True.",
)
_FALSE_PHRASINGS = (
    "False",
    "False.",
    "<classification>: False",
    "The triple is False.",
)
_ABSTAIN_PHRASINGS = (
    "I don't know",
    "I don't know.",
    "I do not know the answer to this one.",
)
_INVALID_PHRASINGS = (
    "The triple describes a chemical relationship between two entities.",
    "is a compound of biological interest that has been studied extensively",
    "classification of chemical entities requires careful consideration of",
    "the answer depends on additional experimental context not provided here",
)


def truth_table(triples: Iterable[LabeledTriple]) -> Dict[str, int]:
    """Ground-truth lookup from rendered triple text to gold label."""
    return {triple.as_text(): triple.label for triple in triples}


class SimulatedChatModel(ChatClient):
    """Offline ChatClient driven by a :class:`BehaviourProfile`.

    ``truth`` maps rendered triple texts (``LabeledTriple.as_text``) to gold
    labels; queries missing from the table are answered by a fair coin,
    modelling out-of-knowledge entities.  The repeat index is explicit
    (:meth:`complete_indexed`); :meth:`complete` is the first delivery.
    """

    def __init__(
        self,
        profile: BehaviourProfile,
        truth: Mapping[str, int],
        task_number: int,
        seed: int = 0,
    ):
        self.profile = profile
        self.truth = dict(truth)
        self.ability = profile.ability(task_number)
        self.task_number = task_number
        self.seed = seed

    @property
    def name(self) -> str:
        return self.profile.name

    # -- behaviour ----------------------------------------------------------

    def _decide(
        self,
        rng: np.random.Generator,
        label: Optional[int],
        last_example_label: Optional[bool],
        abstain_allowed: bool,
    ) -> str:
        profile = self.profile
        if rng.random() < profile.invalid_rate:
            return "invalid"
        if last_example_label is not None and rng.random() < profile.order_bias:
            answer = 1 if last_example_label else 0
        elif label is None:
            answer = int(rng.random() < 0.5)
        else:
            p_correct = self.ability.p_pos if label == 1 else self.ability.p_neg
            correct = rng.random() < p_correct
            answer = label if correct else 1 - label
        if abstain_allowed:
            wrong = label is not None and answer != label
            p_abstain = (
                profile.abstain_when_wrong if wrong else profile.abstain_when_right
            )
            if rng.random() < p_abstain:
                return "abstain"
        return "true" if answer == 1 else "false"

    def _render(self, decision: str, rng: np.random.Generator) -> str:
        pools = {
            "true": _TRUE_PHRASINGS,
            "false": _FALSE_PHRASINGS,
            "abstain": _ABSTAIN_PHRASINGS,
            "invalid": _INVALID_PHRASINGS,
        }
        pool = pools[decision]
        return pool[int(rng.integers(0, len(pool)))]

    def complete(self, prompt: str) -> str:
        return self.complete_indexed(prompt, 0)

    def complete_indexed(
        self, prompt: str, repeat: int, *, timeout_s: Optional[float] = None
    ) -> str:
        """The completion for delivery ``repeat`` of ``prompt``.

        Pure in ``(prompt, repeat)``, which is what lets the delivery engine
        produce byte-identical tables whatever the thread schedule.
        ``timeout_s`` is ignored: there is no network to time out.
        """
        query = extract_query_text(prompt)
        label = self.truth.get(query)
        signature = example_order_signature(prompt)
        last_example_label = signature[-1] if signature else None
        abstain_allowed = ABSTAIN_SENTENCE in prompt

        canonical_rng = np.random.default_rng(
            stable_hash("sim-llm", self.profile.name, self.seed, prompt)
        )
        rng = canonical_rng
        if repeat > 0:
            repeat_rng = np.random.default_rng(
                stable_hash(
                    "sim-llm-repeat", self.profile.name, self.seed, prompt, repeat
                )
            )
            if repeat_rng.random() < (1.0 - self.profile.consistency):
                rng = repeat_rng  # resample the whole behaviour this delivery

        decision = self._decide(rng, label, last_example_label, abstain_allowed)
        return self._render(decision, rng)


__all__ = [
    "TaskAbility",
    "BehaviourProfile",
    "SimulatedChatModel",
    "truth_table",
    "GPT4_PROFILE",
    "GPT35_PROFILE",
    "BIOGPT_PROFILE",
    "LLAMA2_PROFILE",
]
