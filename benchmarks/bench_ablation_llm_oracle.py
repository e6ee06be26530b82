"""Ablation — ICL accuracy vs the simulated model's knowledge level.

Design-choice check for the LLM substitution (DESIGN.md): the simulator's
per-task ability parameters must map monotonically onto measured protocol
accuracy, i.e. the ICL pipeline (prompt render -> completion -> parse ->
metrics) neither adds nor hides systematic error.
"""

import os

from conftest import icl_resilience, instrumented, run_once

from repro.core.datasets import train_test_split_9_1
from repro.core.reporting import Table
from repro.llm.icl import ICLConfig, build_icl_queries, run_icl_experiment
from repro.llm.prompts import PromptVariant
from repro.llm.simulated import BehaviourProfile, SimulatedChatModel, TaskAbility, truth_table

ABILITIES = (0.5, 0.7, 0.9, 1.0)


@instrumented("ablation_llm_oracle")
def compute(lab):
    dataset = lab.dataset(1)
    split = train_test_split_9_1(dataset, seed=lab.config.seed)
    config = ICLConfig(seed=lab.config.seed)
    queries = build_icl_queries(dataset, config)
    truth = truth_table(dataset)
    engine_for = icl_resilience()
    rows = {}
    for ability in ABILITIES:
        profile = BehaviourProfile(
            name=f"oracle-{ability}",
            abilities={1: TaskAbility(p_pos=ability, p_neg=ability)},
            consistency=1.0,
        )
        client = SimulatedChatModel(profile, truth, 1, seed=lab.config.seed)
        result = run_icl_experiment(
            client, list(split.train), queries, PromptVariant.BASE,
            config, engine=engine_for(client),
        )
        rows[ability] = result.accuracy_mean
    return rows


def test_ablation_llm_oracle_monotonicity(lab, results_dir, benchmark):
    rows = run_once(benchmark, compute, lab)
    table = Table(
        "Ablation — measured ICL accuracy vs configured oracle ability",
        ["ability", "measured accuracy"],
        precision=3,
    )
    for ability in ABILITIES:
        table.add_row(ability, rows[ability])
    table.show()
    table.save(os.path.join(results_dir, "ablation_llm_oracle.txt"))

    # Monotone within sampling noise, and a perfect oracle scores ~1.0.
    values = [rows[a] for a in ABILITIES]
    assert all(b >= a - 0.06 for a, b in zip(values, values[1:]))
    assert rows[1.0] > 0.97
