"""Pinned result digests of seeded library kernels.

Each case builds one fixed, seeded workload over a library hot path (OBO
parsing, WordPiece training, GloVe co-occurrence counting, SGNS training,
a mini-BERT MLM pass, random-forest fitting and prediction, ICL delivery
through the concurrent engine, a warm artifact-store load, the stage graph's
cache keys), runs its body twice on the same set-up state, and asserts that
both results digest (:func:`~repro.utils.rng.stable_digest`) to the
committed checksum.  The second run checks that a body is repeatable on
warm state; the checksum checks that a refactor (flat-array trees, a new
cache format) left the kernel's output unchanged.  A changed digest needs
a fix or an explained re-golden.

Timing lives in ``e2ebench/``; these cases only check results.  The rng
labels (``perf-corpus``, ``perf-rf``, ``perf-store``) seed the pinned
workloads, so they stay as recorded.  Some values are coarse: ``obo_parse``
is an entity count, ``rf_fit`` a sum of normalised importances (1.0 for
any forest) and ``icl_delivery`` a mean accuracy and unclassified count.
So ``obo_parse_content`` pins the parsed stanzas, ``rf_fit_trees`` what the
trees compute and ``icl_delivery_outcomes`` every completion the engine
returned.
"""

from contextlib import contextmanager
import io

import numpy as np
import pytest

from repro.utils.rng import derive_rng, stable_digest

SEED = 0

#: Syllables composing the synthetic chemistry-ish corpus vocabulary.
_SYLLABLES = (
    "chlo", "ro", "ben", "zene", "meth", "yl", "ox", "ide",
    "am", "ine", "sul", "fate", "phos", "pho", "car", "box",
)


def _corpus(n_sentences, sentence_len, vocab_size):
    """A seeded synthetic token corpus with a zipf-ish frequency profile."""
    rng = derive_rng(SEED, "perf-corpus", n_sentences, sentence_len, vocab_size)
    words = []
    for _ in range(vocab_size):
        n_parts = 2 + int(rng.integers(0, 3))
        picks = rng.integers(0, len(_SYLLABLES), size=n_parts)
        words.append("".join(_SYLLABLES[int(p)] for p in picks))
    weights = 1.0 / np.arange(1.0, vocab_size + 1.0)
    weights /= weights.sum()
    return [
        [words[int(w)] for w in rng.choice(vocab_size, size=sentence_len, p=weights)]
        for _ in range(n_sentences)
    ]


# Each workload is a context manager: set-up before the ``yield``, the
# yielded zero-argument body, teardown after.


def _obo_text():
    from repro.ontology.obo import dumps_obo
    from repro.ontology.synthesis import SynthesisConfig, synthesize_chebi_like

    return dumps_obo(
        synthesize_chebi_like(
            SynthesisConfig(n_chemical_entities=400, seed=SEED)
        )
    )


@contextmanager
def obo_parse(tmp_path):
    from repro.ontology.obo import load_obo

    text = _obo_text()
    yield lambda: sum(
        1 for _ in load_obo(io.StringIO(text), name="perf").entities()
    )


@contextmanager
def obo_parse_content(tmp_path):
    """``obo_parse``'s file, digested by the stanzas the parser reads.

    Every entity's id, name, sub-ontology, definition, synonyms and
    ``is_a`` parents, plus every relation statement.
    """
    from repro.ontology.obo import load_obo

    text = _obo_text()

    def run():
        ontology = load_obo(io.StringIO(text), name="perf")
        entities = [
            (
                entity.identifier,
                entity.name,
                entity.sub_ontology.name,
                entity.definition,
                entity.synonyms,
                sorted(ontology.parents(entity.identifier)),
            )
            for entity in ontology.entities()
        ]
        return entities, sorted(s.key() for s in ontology.statements())

    yield run


@contextmanager
def wordpiece(tmp_path):
    from repro.bert.wordpiece import train_wordpiece

    corpus = _corpus(200, 12, 160)

    def run():
        tokenizer = train_wordpiece(corpus, vocab_size=300, min_pair_frequency=2)
        return (len(tokenizer), sum(len(tokenizer.encode(s)) for s in corpus[:50]))

    yield run


@contextmanager
def glove_cooccur(tmp_path):
    from repro.embeddings.glove import cooccurrence_arrays
    from repro.text.vocab import build_vocabulary

    sentences = _corpus(500, 16, 250)
    vocabulary = build_vocabulary(sentences, min_count=1)

    def run():
        _, _, values = cooccurrence_arrays(sentences, vocabulary, 6)
        return (int(values.size), round(float(values.sum()), 3))

    yield run


@contextmanager
def word2vec_neg(tmp_path):
    from repro.embeddings.word2vec import Word2Vec, Word2VecConfig

    sentences = _corpus(160, 12, 120)
    config = Word2VecConfig(dim=32, negative=5, epochs=1, min_count=1, seed=SEED)

    def run():
        model = Word2Vec.train(sentences, config, name="perf")
        # the corpus's first token always survives min_count=1
        return round(float(np.sum(model.vector(sentences[0][0]))), 5)

    yield run


@contextmanager
def bert_pretrain_step(tmp_path):
    from repro.bert.model import BertConfig
    from repro.bert.pretrain import PretrainConfig, pretrain_mlm
    from repro.bert.wordpiece import train_wordpiece

    sentences = _corpus(48, 10, 90)
    tokenizer = train_wordpiece(sentences, vocab_size=220, min_pair_frequency=2)

    def run():
        model = pretrain_mlm(
            sentences,
            tokenizer,
            BertConfig(
                d_model=32, n_heads=2, n_layers=2, d_ff=64, max_len=32, seed=SEED
            ),
            PretrainConfig(epochs=1, batch_size=16, seed=SEED),
        )
        return round(float(model.pretrain_losses[-1]), 4)

    yield run


def _rf_problem():
    """Seeded features, a linear label rule, and the forest config."""
    from repro.ml.forest import RandomForestConfig

    rng = derive_rng(SEED, "perf-rf")
    x = rng.normal(size=(400, 32))
    y = (x[:, 0] + 0.5 * x[:, 1] - 0.25 * x[:, 2] > 0).astype(np.int64)
    return x, y, RandomForestConfig(n_estimators=8, max_depth=8, seed=SEED)


@contextmanager
def rf_fit(tmp_path):
    from repro.ml.forest import RandomForest

    x, y, config = _rf_problem()
    yield lambda: round(
        float(np.sum(RandomForest(config).fit(x, y).feature_importances_)), 6
    )


@contextmanager
def rf_fit_trees(tmp_path):
    """``rf_fit``'s forest, digested by what its trees compute.

    ``rf_fit`` returns the sum of normalised importances, which is 1.0 for
    any forest; this case pins the per-feature importances and the
    predicted probabilities, so a tree refactor must keep both bit for bit.
    """
    from repro.ml.forest import RandomForest

    x, y, config = _rf_problem()

    def run():
        forest = RandomForest(config).fit(x, y)
        return (
            np.round(forest.feature_importances_, 6).tolist(),
            np.round(forest.predict_proba(x), 6).tolist(),
        )

    yield run


def _icl_workload():
    """Four simulated backends with 2 ms latency behind an 8-job engine.

    Returns a zero-argument body that runs the ICL protocol over 20
    queries x 2 repeats and hands back the result and every outcome the
    engine returned.
    """
    from repro.core.datasets import build_task_dataset
    from repro.delivery import DeliveryConfig, DeliveryEngine, simulated_backends
    from repro.llm.icl import ICLConfig, build_icl_queries, run_icl_experiment
    from repro.llm.prompts import PromptVariant
    from repro.llm.simulated import GPT35_PROFILE, SimulatedChatModel, truth_table
    from repro.ontology.synthesis import SynthesisConfig, synthesize_chebi_like

    ontology = synthesize_chebi_like(
        SynthesisConfig(n_chemical_entities=350, seed=SEED)
    )
    dataset = build_task_dataset(ontology, 1, seed=SEED)
    config = ICLConfig(
        n_positive_queries=10, n_negative_queries=10, n_repeats=2, seed=SEED
    )
    truth = truth_table(dataset)
    pool = list(dataset)[:300]
    queries = build_icl_queries(dataset, config)
    client = SimulatedChatModel(GPT35_PROFILE, truth, 1, seed=SEED)
    engine = DeliveryEngine(
        simulated_backends(
            GPT35_PROFILE, truth, 1, n_backends=4, seed=SEED, latency_s=0.002
        ),
        DeliveryConfig(jobs=8),
    )

    def run():
        outcomes = []

        class Recording:
            """Forwards ``run`` to the engine and keeps its outcomes."""

            def run(self, requests, **kwargs):
                report = engine.run(requests, **kwargs)
                outcomes.extend(report.outcomes.values())
                return report

        result = run_icl_experiment(
            client, pool, queries, PromptVariant.BASE, config, engine=Recording()
        )
        return result, outcomes

    return run


@contextmanager
def icl_delivery(tmp_path):
    body = _icl_workload()

    def run():
        result, _ = body()
        return (round(result.accuracy_mean, 4), result.n_unclassified)

    yield run


@contextmanager
def icl_delivery_outcomes(tmp_path):
    """``icl_delivery``, digested by every per-query ``(key, status, text)``."""
    body = _icl_workload()

    def run():
        _, outcomes = body()
        return sorted((o.key, o.status, o.text) for o in outcomes)

    yield run


@contextmanager
def store_roundtrip(tmp_path):
    """A warm load of one persisted static-embedding entry."""
    from repro.embeddings.base import StaticEmbeddings
    from repro.pipeline.stage import Stage
    from repro.pipeline.store import ArtifactStore
    from repro.text.vocab import Vocabulary
    from repro.utils.persistence import load_embeddings_entry, save_embeddings_entry

    rng = derive_rng(SEED, "perf-store")
    vocabulary = Vocabulary(
        {f"tok{i:05d}": int(c) for i, c in enumerate(rng.integers(1, 500, size=2048))}
    )
    matrix = rng.normal(size=(len(vocabulary), 128))
    store = ArtifactStore(str(tmp_path / "store"))
    stage = Stage(
        name="perf-embedding",
        build=lambda lab, inputs: None,
        save=lambda artifact, path: save_embeddings_entry(artifact, path),
        load=lambda path, inputs: load_embeddings_entry(path),
    )
    store.put(stage, "warm", StaticEmbeddings(vocabulary, matrix, name="perf"))

    def run():
        model = store.load(stage, "warm", {})
        return round(float(np.asarray(model.matrix[::64, ::8]).sum()), 6)

    yield run


@contextmanager
def stage_keys(tmp_path):
    """Every stage's cache key under the default and the micro Lab config.

    A warm store built by an earlier revision hits only while these keys
    hold, so a refactor of the stage graph must leave them unchanged.
    """
    from repro.core.experiment import LabConfig, lab_graph
    from tests.conftest import MICRO_LAB_CONFIG

    graph = lab_graph()
    yield lambda: (graph.keys(LabConfig()), graph.keys(MICRO_LAB_CONFIG))


#: Workload -> the committed digest of its body's result.
DIGESTS = {
    obo_parse: "d7b95854ae83925dad7f8ed57ad9c899",
    obo_parse_content: "2415a55166b6111672ad0bd7b162a4bc",
    wordpiece: "c6d786b8d684aa8d206f2fa6dc0cbb5a",
    glove_cooccur: "bd56fb0069155d2f8e11390b9edb4259",
    word2vec_neg: "b243fd4b139c07d5e5ec809351d257ba",
    bert_pretrain_step: "7eba524d33a9ed38a3e5488f7a520c0a",
    rf_fit: "5f8a2d42fe0030845fc28162720f81ef",
    rf_fit_trees: "349a0f0d88e796f9fb2973680ec01cfa",
    icl_delivery: "55c62a285b2b599a7926b7605dff5080",
    icl_delivery_outcomes: "d842e03f37cb62ea509695e334360962",
    store_roundtrip: "12f9e4227f305c1ed24def4e153a7609",
    stage_keys: "7d4485e77af90ec8c3ba02746150369a",
}


@pytest.mark.parametrize(
    "workload", list(DIGESTS), ids=[w.__name__ for w in DIGESTS]
)
def test_kernel_result_matches_committed_digest(workload, tmp_path):
    with workload(tmp_path) as run:
        for _ in range(2):
            assert stable_digest(run()) == DIGESTS[workload]
