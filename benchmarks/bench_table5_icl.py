"""Table 5 — in-context learning: 3 models x 3 prompt variants x 3 tasks.

Paper headline numbers (accuracy mean / F1 mean / kappa), variant #1:

    task 1: GPT-4 .916/.904/.98   GPT-3.5 .804/.780/1.00   BioGPT .460/.073/.07
    task 2: GPT-4 .766/.767/.92   GPT-3.5 .674/.693/.97    BioGPT .304/.066/.06
    task 3: GPT-4 .874/.860/.94   GPT-3.5 .718/.643/.97    BioGPT .450/.115/.01

Shape targets: GPT-4 > GPT-3.5 >> BioGPT everywhere; variant #2 ("I don't
know") produces unclassified responses and lowers overall accuracy while
keeping classified-only F1 high; variant #3 (shuffled examples) rescues
BioGPT's recall and is GPT-4's best formulation overall; GPT kappas are
high, BioGPT's near zero.
"""

import os

from conftest import icl_resilience, instrumented, run_once

from repro.core.datasets import train_test_split_9_1
from repro.core.reporting import Table
from repro.llm.icl import ICLConfig, build_icl_queries, run_icl_experiment
from repro.llm.prompts import PromptVariant
from repro.llm.simulated import (
    BIOGPT_PROFILE,
    GPT35_PROFILE,
    GPT4_PROFILE,
    SimulatedChatModel,
    truth_table,
)

PROFILES = (GPT4_PROFILE, GPT35_PROFILE, BIOGPT_PROFILE)

#: Paper variant-#1 (accuracy, F1, kappa) for the side-by-side columns.
PAPER_V1 = {
    ("gpt-4", 1): (0.916, 0.904, 0.98),
    ("gpt-4", 2): (0.766, 0.767, 0.92),
    ("gpt-4", 3): (0.874, 0.860, 0.94),
    ("gpt-3.5-turbo", 1): (0.804, 0.780, 1.00),
    ("gpt-3.5-turbo", 2): (0.674, 0.693, 0.97),
    ("gpt-3.5-turbo", 3): (0.718, 0.643, 0.97),
    ("biogpt", 1): (0.460, 0.073, 0.07),
    ("biogpt", 2): (0.304, 0.066, 0.06),
    ("biogpt", 3): (0.450, 0.115, 0.01),
}


@instrumented("table5_icl")
def compute(lab):
    config = ICLConfig(seed=lab.config.seed)
    # Optional fault injection via REPRO_FAULTS; no-op in a plain run.
    engine_for = icl_resilience()
    results = {}
    for task in (1, 2, 3):
        dataset = lab.dataset(task)
        split = train_test_split_9_1(dataset, seed=lab.config.seed)
        queries = build_icl_queries(dataset, config)
        truth = truth_table(dataset)
        for profile in PROFILES:
            for variant in PromptVariant:
                client = SimulatedChatModel(
                    profile, truth, task, seed=lab.config.seed
                )
                results[(task, profile.name, variant)] = run_icl_experiment(
                    client, list(split.train), queries, variant, config,
                    engine=engine_for(client),
                )
    return results


def test_table5_icl_three_models(lab, results_dir, benchmark):
    results = run_once(benchmark, compute, lab)
    table = Table(
        "Table 5 — ICL (simulated LLMs); paper variant-#1 acc/F1 alongside",
        ["task", "model", "variant", "accuracy", "unclassified",
         "precision", "recall", "F1", "kappa", "paper acc", "paper F1"],
        precision=3,
    )
    for (task, model, variant), result in sorted(
        results.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2].value)
    ):
        paper = PAPER_V1[(model, task)] if variant is PromptVariant.BASE else None
        table.add_row(
            task, model, f"#{variant.value}", result.accuracy_mean,
            result.n_unclassified, result.precision_mean, result.recall_mean,
            result.f1_mean, result.kappa,
            paper[0] if paper else None, paper[1] if paper else None,
        )
    table.show()
    table.save(os.path.join(results_dir, "table5_icl.txt"))

    for task in (1, 2, 3):
        base = {
            model: results[(task, model, PromptVariant.BASE)]
            for model in ("gpt-4", "gpt-3.5-turbo", "biogpt")
        }
        # Model ordering: GPT-4 > GPT-3.5 >> BioGPT.
        assert base["gpt-4"].accuracy_mean > base["biogpt"].accuracy_mean + 0.2
        assert base["gpt-4"].accuracy_mean >= base["gpt-3.5-turbo"].accuracy_mean - 0.03
        # BioGPT: near-random, inconsistent, recall-starved under ordering #1.
        assert base["biogpt"].kappa < 0.45
        assert base["biogpt"].recall_mean < 0.35
        # Variant #2 produces unclassified responses for the GPT models.
        abstain = results[(task, "gpt-4", PromptVariant.ABSTAIN)]
        assert abstain.n_unclassified > 0
        # Shuffled ordering rescues BioGPT's recall.
        shuffled = results[(task, "biogpt", PromptVariant.SHUFFLED)]
        assert shuffled.recall_mean > base["biogpt"].recall_mean
