"""The Lab's stage graph: every substrate of the apparatus as a node.

This module is the only place a substrate of the benchmark apparatus is
built: it alone knows how each expensive object is constructed, which slice
of :class:`~repro.core.experiment.LabConfig` feeds it, and how it persists.
:class:`~repro.core.experiment.Lab` holds no builders of its own — each of
its accessors (``lab.ontology``, ``lab.embedding("GloVe")``,
``lab.dataset(1)``, ...) validates its arguments and materialises exactly
one stage of this graph.

Stage lineup (deps in parentheses)::

    ontology
    corpus-chemistry / corpus-generic / corpus-biomedical   (ontology)
    wordpiece                                               (corpus-chemistry)
    bert                                 (corpus-chemistry, wordpiece)
    embedding-Random
    glove-cooccur-{s}                                       (corpus-generic)
    w2v-pairs-{s}                                           (corpus-chemistry)
    glove-chem-cooccur-{s}               (corpus-chemistry, embedding-GloVe)
    embedding-GloVe                    (corpus-generic, glove-cooccur-{s}*)
    embedding-W2V-Chem                (corpus-chemistry, w2v-pairs-{s}*)
    embedding-GloVe-Chem  (corpus-chemistry, embedding-GloVe, glove-chem-cooccur-{s}*)
    embedding-BioWordVec                                    (corpus-biomedical)
    embedding-PubmedBERT                                    (bert)      [derived]
    dataset-{1,2,3}                                         (ontology)
    ml-split-{t} / ft-split-{t}                             (dataset-{t})
    task-filter-{static embedding}             (ontology, embedding-{e})
    forest-{t}-{e}-{a}        (ml-split-{t}, embedding-{e}[, task-filter-{e}])
    fine-tuned-{t}                                  (bert, ft-split-{t})

All stages except the trained classifiers, the random baseline and the
contextual BERT wrapper carry save/load hooks, so a populated artifact
store turns a cold benchmark run into a sequence of loads.

Determinism note: the ``bert`` stage *canonicalises* the pretrained model by
round-tripping it through its serialised form even when no store is
configured.  Pretraining advances the per-layer dropout RNGs; without the
round-trip, fine-tuning from a freshly pretrained model and from a
store-loaded one would draw different dropout masks and diverge.  After
canonicalisation the artifact is identical either way, so warm and cold
runs produce byte-identical tables.
"""

from __future__ import annotations

import tempfile
from functools import partial
from pathlib import Path
from typing import Dict, List

from repro.adaptation.naive import naive_token_filter
from repro.adaptation.task_oriented import (
    TaskOrientedConfig,
    select_stop_tokens,
    stopword_filter,
)
from repro.bert.finetune import fine_tune
from repro.bert.model import BertConfig
from repro.bert.pretrain import PretrainConfig, pretrain_mlm
from repro.bert.wordpiece import WordPieceTokenizer, train_wordpiece
from repro.core.datasets import (
    DatasetSplit,
    build_task_dataset,
    train_test_split_9_1,
    train_val_test_split_8_1_1,
)
from repro.core.tasks import positive_triples
from repro.embeddings.base import (
    build_pairs,
    pair_shard_arrays,
    sentences_to_ids,
    shard_bounds,
)
from repro.embeddings.contextual import ContextualEmbeddings
from repro.embeddings.fasttext import FastText, FastTextConfig
from repro.embeddings.glove import (
    GloVe,
    GloVeConfig,
    _joined_vocabulary,
    cooccur_shard,
    merge_cooccurrence,
)
from repro.embeddings.random import RandomEmbeddings
from repro.embeddings.registry import STATIC_MODEL_NAMES
from repro.embeddings.word2vec import Word2Vec, Word2VecConfig
from repro.ml.features import FeatureExtractor
from repro.ml.forest import RandomForest
from repro.ontology.synthesis import SynthesisConfig, synthesize_chebi_like
from repro.pipeline import serialize
from repro.pipeline.graph import StageGraph
from repro.pipeline.stage import Stage
from repro.pipeline.arrays import load_array, save_array
from repro.text.corpus import (
    CorpusConfig,
    corpus_sentences,
    generate_chemistry_corpus,
    generate_generic_corpus,
)
from repro.text.vocab import build_vocabulary
from repro.utils.persistence import (
    load_bert,
    load_embeddings_entry,
    load_fasttext_entry,
    save_bert,
    save_embeddings_entry,
    save_fasttext_entry,
)

#: The shared ``min_count`` of the embedding registry (a code constant, not
#: a LabConfig knob); changes go through the stage version tags.
EMBEDDING_MIN_COUNT = 2

#: Fixed shard count for the embedding precompute sub-stages (co-occurrence
#: tables and skip-gram pair streams).  A *code constant*, deliberately not
#: a LabConfig knob: shard boundaries and shard-local RNG streams depend on
#: the count, and keeping it fixed is what makes ``repro cache warm
#: --jobs N`` byte-identical to a sequential warm — jobs only decide how
#: many shards build concurrently, never what any shard contains.
EMBEDDING_SHARDS = 4

TASKS = (1, 2, 3)

# The paper protocol's pinned subsample streams (Section 2.5): split caps
# draw from fixed streams so train/test membership never shifts under
# config sweeps.  The golden tables encode exactly these values (statcheck
# FLOW001 traces seed provenance to enforce it).
ML_TRAIN_SPLIT_SEED = 1
ML_TEST_SPLIT_SEED = 2
FT_TRAIN_SPLIT_SEED = 3
FT_TEST_SPLIT_SEED = 4
FT_VALIDATION_SPLIT_SEED = 5

#: Adaptations without per-embedding state (cf. Lab.adaptation_filter).
_SIMPLE_ADAPTATIONS = ("none", "naive")


# -- persistence hooks -------------------------------------------------------


def _save_payload(to_payload):
    def save(artifact, entry_dir: Path) -> None:
        serialize.write_json(entry_dir / "artifact.json", to_payload(artifact))

    return save


def _load_payload(from_payload, expected_format):
    def load(entry_dir: Path, inputs: Dict[str, object]):
        return from_payload(
            serialize.read_json(entry_dir / "artifact.json", expected_format)
        )

    return load


def _save_static_embedding(model, entry_dir: Path) -> None:
    save_embeddings_entry(model, entry_dir)


def _load_static_embedding(entry_dir: Path, inputs):
    return load_embeddings_entry(entry_dir)


def _save_fasttext_embedding(model, entry_dir: Path) -> None:
    save_fasttext_entry(model, entry_dir)


def _load_fasttext_embedding(entry_dir: Path, inputs):
    return load_fasttext_entry(entry_dir)


def _save_array_tuple(*names):
    """Save hook for artifacts that are tuples of numpy arrays; each array
    becomes a standalone (mmap-eligible) ``.npy`` file."""

    def save(artifact, entry_dir: Path) -> None:
        for name, array in zip(names, artifact):
            save_array(entry_dir / f"{name}.npy", array)

    return save


def _load_array_tuple(*names):
    def load(entry_dir: Path, inputs):
        return tuple(load_array(entry_dir / f"{name}.npy") for name in names)

    return load


def _save_bert_model(model, entry_dir: Path) -> None:
    save_bert(model, entry_dir / "model.npz")
    serialize.write_json(
        entry_dir / "pretrain.json",
        {
            "format": "repro-bert-pretrain-v1",
            "losses": [float(x) for x in getattr(model, "pretrain_losses", [])],
        },
    )


def _load_bert_model(entry_dir: Path, inputs):
    model = load_bert(entry_dir / "model.npz")
    payload = serialize.read_json(
        entry_dir / "pretrain.json", "repro-bert-pretrain-v1"
    )
    model.pretrain_losses = list(payload["losses"])
    return model


def _save_wordpiece(tokenizer, entry_dir: Path) -> None:
    serialize.write_json(
        entry_dir / "artifact.json",
        {
            "format": serialize.PIECES_FORMAT,
            "pieces": [tokenizer.piece_of(i) for i in range(len(tokenizer))],
        },
    )


def _load_wordpiece(entry_dir: Path, inputs):
    payload = serialize.read_json(
        entry_dir / "artifact.json", serialize.PIECES_FORMAT
    )
    return WordPieceTokenizer([str(p) for p in payload["pieces"]])


# -- builders ----------------------------------------------------------------


def _build_ontology(lab, inputs):
    return synthesize_chebi_like(
        SynthesisConfig(
            n_chemical_entities=lab.config.n_chemical_entities,
            seed=lab.config.ontology_seed,
        )
    )


def _corpus_config(config, seed_offset: int) -> CorpusConfig:
    return CorpusConfig(
        n_documents=config.corpus_documents,
        sentences_per_document=config.corpus_sentences,
        statement_coverage=config.statement_coverage,
        seed=config.corpus_seed + seed_offset,
    )


def _build_chemistry_corpus(lab, inputs):
    return corpus_sentences(
        generate_chemistry_corpus(
            inputs["ontology"], _corpus_config(lab.config, 0)
        )
    )


def _build_generic_corpus(lab, inputs):
    return corpus_sentences(
        generate_generic_corpus(
            inputs["ontology"],
            _corpus_config(lab.config, 1),
            chemistry_fraction=lab.config.generic_chemistry_fraction,
        )
    )


def _build_biomedical_corpus(lab, inputs):
    return corpus_sentences(
        generate_generic_corpus(
            inputs["ontology"],
            _corpus_config(lab.config, 2),
            chemistry_fraction=lab.config.biomedical_chemistry_fraction,
        )
    )


def _build_wordpiece(lab, inputs):
    return train_wordpiece(
        inputs["corpus-chemistry"], vocab_size=lab.config.wordpiece_vocab
    )


def _build_bert(lab, inputs):
    config = lab.config
    bert_config = BertConfig(
        d_model=config.bert_d_model,
        n_heads=config.bert_heads,
        n_layers=config.bert_layers,
        d_ff=config.bert_d_ff,
        max_len=config.bert_max_len,
        seed=config.seed,
    )
    sentences = inputs["corpus-chemistry"][: config.pretrain_sentences]
    model = pretrain_mlm(
        sentences,
        inputs["wordpiece"],
        bert_config,
        PretrainConfig(epochs=config.pretrain_epochs, seed=config.seed),
    )
    # Canonicalise RNG state via a serialisation round-trip (module docstring).
    # statcheck: ignore[PUR002] - scratch dir vanishes before return; output depends only on inputs
    with tempfile.TemporaryDirectory(prefix="repro-bert-") as tmp:
        _save_bert_model(model, Path(tmp))
        return _load_bert_model(Path(tmp), inputs)


def _build_random_embedding(lab, inputs):
    return RandomEmbeddings(dim=lab.config.embedding_dim, seed=lab.config.seed)


def _glove_config(config) -> GloVeConfig:
    """Shared by the GloVe/GloVe-Chem builders and the GloVe-Chem shards.

    The ``glove-cooccur`` shards have an empty config slice, so they build
    their own config from the two fields they use, the class-default
    ``window`` and ``EMBEDDING_MIN_COUNT``, which this one shares."""
    return GloVeConfig(
        dim=config.embedding_dim,
        epochs=config.glove_epochs,
        min_count=EMBEDDING_MIN_COUNT,
        seed=config.seed,
    )


def _w2v_config(config) -> Word2VecConfig:
    """The W2V-Chem builder's config.  Its pair-stream shards use only the
    class-default ``window``, ``EMBEDDING_MIN_COUNT`` and ``seed``."""
    return Word2VecConfig(
        dim=config.embedding_dim,
        epochs=config.embedding_epochs,
        min_count=EMBEDDING_MIN_COUNT,
        seed=config.seed,
    )


def _merged_cooccurrence(inputs, prefix: str, vocab_size: int):
    """Merge shard artifacts ``{prefix}-{0..S}`` into COO arrays."""
    codes, values = merge_cooccurrence(
        [inputs[f"{prefix}-{shard}"] for shard in range(EMBEDDING_SHARDS)]
    )
    return codes // vocab_size, codes % vocab_size, values


def _build_glove_cooccur_shard(shard: int, lab, inputs):
    sentences = inputs["corpus-generic"]
    config = GloVeConfig(min_count=EMBEDDING_MIN_COUNT)
    vocabulary = build_vocabulary(sentences, min_count=config.min_count)
    sentence_ids = sentences_to_ids(sentences, vocabulary)
    start, stop = shard_bounds(len(sentence_ids), EMBEDDING_SHARDS)[shard]
    return cooccur_shard(
        sentence_ids[start:stop], config.window, len(vocabulary)
    )


def _build_glove_chem_cooccur_shard(shard: int, lab, inputs):
    sentences = inputs["corpus-chemistry"]
    config = _glove_config(lab.config)
    vocabulary = _joined_vocabulary(
        sentences, config.min_count, inputs["embedding-GloVe"]
    )
    sentence_ids = sentences_to_ids(sentences, vocabulary)
    start, stop = shard_bounds(len(sentence_ids), EMBEDDING_SHARDS)[shard]
    return cooccur_shard(
        sentence_ids[start:stop], config.window, len(vocabulary)
    )


def _build_w2v_pairs_shard(shard: int, lab, inputs):
    sentences = inputs["corpus-chemistry"]
    config = Word2VecConfig(min_count=EMBEDDING_MIN_COUNT, seed=lab.config.seed)
    vocabulary = build_vocabulary(sentences, min_count=config.min_count)
    sentence_ids = sentences_to_ids(sentences, vocabulary)
    return pair_shard_arrays(
        sentence_ids, config.window, config.seed, shard, EMBEDDING_SHARDS
    )


def _build_glove(lab, inputs):
    sentences = inputs["corpus-generic"]
    config = _glove_config(lab.config)
    vocabulary = build_vocabulary(sentences, min_count=config.min_count)
    return GloVe.train(
        sentences,
        config,
        name="GloVe",
        cooccurrence=_merged_cooccurrence(
            inputs, "glove-cooccur", len(vocabulary)
        ),
    )


def _build_w2v_chem(lab, inputs):
    config = _w2v_config(lab.config)
    pairs = build_pairs(
        [],
        config.window,
        config.seed,
        n_shards=EMBEDDING_SHARDS,
        precomputed=[
            inputs[f"w2v-pairs-{shard}"] for shard in range(EMBEDDING_SHARDS)
        ],
    )
    return Word2Vec.train(
        inputs["corpus-chemistry"], config, name="W2V-Chem", pairs=pairs
    )


def _build_glove_chem(lab, inputs):
    sentences = inputs["corpus-chemistry"]
    config = _glove_config(lab.config)
    vocabulary = _joined_vocabulary(
        sentences, config.min_count, inputs["embedding-GloVe"]
    )
    return GloVe.train(
        sentences,
        config,
        name="GloVe-Chem",
        init_from=inputs["embedding-GloVe"],
        cooccurrence=_merged_cooccurrence(
            inputs, "glove-chem-cooccur", len(vocabulary)
        ),
    )


def _build_biowordvec(lab, inputs):
    return FastText.train(
        inputs["corpus-biomedical"],
        FastTextConfig(
            dim=lab.config.embedding_dim,
            epochs=lab.config.embedding_epochs,
            min_count=EMBEDDING_MIN_COUNT,
            seed=lab.config.seed,
        ),
        name="BioWordVec",
        shards=EMBEDDING_SHARDS,
    )


def _build_pubmedbert(lab, inputs):
    return ContextualEmbeddings(inputs["bert"], name="PubmedBERT")


def _build_dataset(task: int, lab, inputs):
    return build_task_dataset(
        inputs["ontology"], task, seed=lab.config.dataset_seed
    )


def _build_ml_split(task: int, lab, inputs):
    from repro.core.experiment import subsample

    split = train_test_split_9_1(inputs[f"dataset-{task}"], seed=lab.config.seed)
    return DatasetSplit(
        train=subsample(
            split.train, lab.config.max_train, seed=ML_TRAIN_SPLIT_SEED
        ),
        test=subsample(split.test, lab.config.max_test, seed=ML_TEST_SPLIT_SEED),
    )


def _build_ft_split(task: int, lab, inputs):
    from repro.core.experiment import subsample

    split = train_val_test_split_8_1_1(
        inputs[f"dataset-{task}"], seed=lab.config.seed
    )
    return DatasetSplit(
        train=subsample(
            split.train, lab.config.max_train, seed=FT_TRAIN_SPLIT_SEED
        ),
        test=subsample(split.test, lab.config.max_test, seed=FT_TEST_SPLIT_SEED),
        validation=subsample(
            split.validation, lab.config.max_test,
            seed=FT_VALIDATION_SPLIT_SEED,
        ),
    )


def _build_stop_tokens(embedding_name: str, lab, inputs):
    positives = positive_triples(inputs["ontology"])
    return select_stop_tokens(
        positives,
        inputs[f"embedding-{embedding_name}"],
        TaskOrientedConfig(seed=lab.config.seed),
    )


def _build_forest(task: int, embedding_name: str, adaptation: str, lab, inputs):
    split = inputs[f"ml-split-{task}"]
    if adaptation == "none":
        token_filter = None
    elif adaptation == "naive":
        token_filter = naive_token_filter()
    else:
        token_filter = stopword_filter(inputs[f"task-filter-{embedding_name}"])
    extractor = FeatureExtractor(
        inputs[f"embedding-{embedding_name}"], token_filter
    )
    forest = RandomForest(lab.rf_config()).fit(
        extractor.matrix(split.train.triples),
        extractor.labels(split.train.triples),
    )
    return extractor, forest


def _build_fine_tuned(task: int, lab, inputs):
    split = inputs[f"ft-split-{task}"]
    return fine_tune(
        inputs["bert"],
        split.train.triples,
        lab.ft_config(),
        validation_triples=(
            split.validation.triples if split.validation else None
        ),
    )


# -- the graph ---------------------------------------------------------------


def build_lab_graph() -> StageGraph:
    """Assemble (and validate) the full Lab stage graph."""
    graph = StageGraph()

    graph.register(
        Stage(
            name="ontology",
            build=_build_ontology,
            config_slice=lambda c: (c.n_chemical_entities, c.ontology_seed),
            save=_save_payload(serialize.ontology_to_payload),
            load=_load_payload(
                serialize.ontology_from_payload, serialize.ONTOLOGY_FORMAT
            ),
        )
    )

    corpus_slice = lambda c: (  # noqa: E731 - shared base slice
        c.corpus_documents,
        c.corpus_sentences,
        c.statement_coverage,
        c.corpus_seed,
    )
    corpus_save = _save_payload(serialize.sentences_to_payload)
    corpus_load = _load_payload(
        serialize.sentences_from_payload, serialize.CORPUS_FORMAT
    )
    graph.register(
        Stage(
            name="corpus-chemistry",
            build=_build_chemistry_corpus,
            config_slice=corpus_slice,
            deps=("ontology",),
            save=corpus_save,
            load=corpus_load,
        )
    )
    graph.register(
        Stage(
            name="corpus-generic",
            build=_build_generic_corpus,
            config_slice=lambda c: corpus_slice(c)
            + (c.generic_chemistry_fraction,),
            deps=("ontology",),
            save=corpus_save,
            load=corpus_load,
        )
    )
    graph.register(
        Stage(
            name="corpus-biomedical",
            build=_build_biomedical_corpus,
            config_slice=lambda c: corpus_slice(c)
            + (c.biomedical_chemistry_fraction,),
            deps=("ontology",),
            save=corpus_save,
            load=corpus_load,
        )
    )

    graph.register(
        Stage(
            name="wordpiece",
            build=_build_wordpiece,
            config_slice=lambda c: (c.wordpiece_vocab,),
            deps=("corpus-chemistry",),
            save=_save_wordpiece,
            load=_load_wordpiece,
        )
    )
    graph.register(
        Stage(
            name="bert",
            build=_build_bert,
            config_slice=lambda c: (
                c.bert_d_model,
                c.bert_heads,
                c.bert_layers,
                c.bert_d_ff,
                c.bert_max_len,
                c.pretrain_epochs,
                c.pretrain_sentences,
                c.seed,
            ),
            deps=("corpus-chemistry", "wordpiece"),
            # version 2: fused QKV attention + batched MLM path shift the
            # trained parameters by float ulps (re-goldened).
            version="2",
            save=_save_bert_model,
            load=_load_bert_model,
        )
    )

    # Embedding precompute sub-stages: deterministic sentence-index shards
    # of the GloVe co-occurrence tables and the word2vec pair stream.  All
    # are persistable, so the process-pool scheduler fans them out and a
    # warm store turns an embedding rebuild into shard loads + a merge.
    shard_specs = {
        # prefix: (builder, config_slice, deps)
        "glove-cooccur": (
            _build_glove_cooccur_shard,
            lambda c: (),
            ("corpus-generic",),
        ),
        "glove-chem-cooccur": (
            _build_glove_chem_cooccur_shard,
            lambda c: (c.embedding_dim, c.glove_epochs, c.seed),
            ("corpus-chemistry", "embedding-GloVe"),
        ),
        "w2v-pairs": (
            _build_w2v_pairs_shard,
            lambda c: (c.seed,),
            ("corpus-chemistry",),
        ),
    }
    shard_files = {
        "glove-cooccur": ("codes", "weights"),
        "glove-chem-cooccur": ("codes", "weights"),
        "w2v-pairs": ("centers", "contexts"),
    }
    for prefix, (builder, config_slice, deps) in shard_specs.items():
        names = shard_files[prefix]
        for shard in range(EMBEDDING_SHARDS):
            graph.register(
                Stage(
                    name=f"{prefix}-{shard}",
                    build=partial(builder, shard),
                    config_slice=config_slice,
                    deps=deps,
                    save=_save_array_tuple(*names),
                    load=_load_array_tuple(*names),
                )
            )

    def _shard_deps(prefix: str):
        return tuple(f"{prefix}-{shard}" for shard in range(EMBEDDING_SHARDS))

    embedding_specs = {
        # name: (builder, config_slice, deps, persistence)
        "Random": (
            _build_random_embedding,
            lambda c: (c.embedding_dim, c.seed),
            (),
            None,  # reconstructing from (dim, seed) is cheaper than any load
        ),
        "GloVe": (
            _build_glove,
            lambda c: (c.embedding_dim, c.glove_epochs, c.seed),
            ("corpus-generic",) + _shard_deps("glove-cooccur"),
            "static",
        ),
        "W2V-Chem": (
            _build_w2v_chem,
            lambda c: (c.embedding_dim, c.embedding_epochs, c.seed),
            ("corpus-chemistry",) + _shard_deps("w2v-pairs"),
            "static",
        ),
        "GloVe-Chem": (
            _build_glove_chem,
            lambda c: (c.embedding_dim, c.glove_epochs, c.seed),
            ("corpus-chemistry", "embedding-GloVe")
            + _shard_deps("glove-chem-cooccur"),
            "static",
        ),
        "BioWordVec": (
            _build_biowordvec,
            lambda c: (c.embedding_dim, c.embedding_epochs, c.seed),
            ("corpus-biomedical",),
            "fasttext",
        ),
        "PubmedBERT": (
            _build_pubmedbert,
            lambda c: (),
            ("bert",),
            None,  # a wrapper around the (persisted) bert artifact
        ),
    }
    for name, (builder, config_slice, deps, persistence) in embedding_specs.items():
        save = load = None
        if persistence == "static":
            save, load = _save_static_embedding, _load_static_embedding
        elif persistence == "fasttext":
            save, load = _save_fasttext_embedding, _load_fasttext_embedding
        graph.register(
            Stage(
                name=f"embedding-{name}",
                build=builder,
                config_slice=config_slice,
                deps=deps,
                # version 2: sharded precompute + sorted-reduction scatter
                # updates reordered float accumulation (re-goldened), and
                # store entries moved to the mmap-backed .npy layout.
                version="2" if persistence else "1",
                save=save,
                load=load,
            )
        )

    dataset_save = _save_payload(serialize.dataset_to_payload)
    dataset_load = _load_payload(
        serialize.dataset_from_payload, serialize.DATASET_FORMAT
    )
    split_save = _save_payload(serialize.split_to_payload)
    split_load = _load_payload(
        serialize.split_from_payload, serialize.SPLIT_FORMAT
    )
    for task in TASKS:
        graph.register(
            Stage(
                name=f"dataset-{task}",
                build=partial(_build_dataset, task),
                config_slice=lambda c: (c.dataset_seed,),
                deps=("ontology",),
                save=dataset_save,
                load=dataset_load,
            )
        )
        graph.register(
            Stage(
                name=f"ml-split-{task}",
                build=partial(_build_ml_split, task),
                config_slice=lambda c: (c.seed, c.max_train, c.max_test),
                deps=(f"dataset-{task}",),
                save=split_save,
                load=split_load,
            )
        )
        graph.register(
            Stage(
                name=f"ft-split-{task}",
                build=partial(_build_ft_split, task),
                config_slice=lambda c: (c.seed, c.max_train, c.max_test),
                deps=(f"dataset-{task}",),
                save=split_save,
                load=split_load,
            )
        )

    for embedding_name in STATIC_MODEL_NAMES:
        graph.register(
            Stage(
                name=f"task-filter-{embedding_name}",
                build=partial(_build_stop_tokens, embedding_name),
                config_slice=lambda c: (c.seed,),
                deps=("ontology", f"embedding-{embedding_name}"),
                save=_save_payload(serialize.tokens_to_payload),
                load=_load_payload(
                    serialize.tokens_from_payload, serialize.TOKENS_FORMAT
                ),
            )
        )

    for task in TASKS:
        for embedding_name in embedding_specs:
            adaptations = list(_SIMPLE_ADAPTATIONS)
            if embedding_name in STATIC_MODEL_NAMES:
                adaptations.append("task-oriented")
            for adaptation in adaptations:
                deps = [f"ml-split-{task}", f"embedding-{embedding_name}"]
                if adaptation == "task-oriented":
                    deps.append(f"task-filter-{embedding_name}")
                graph.register(
                    Stage(
                        name=f"forest-{task}-{embedding_name}-{adaptation}",
                        build=partial(
                            _build_forest, task, embedding_name, adaptation
                        ),
                        config_slice=lambda c: (
                            c.rf_estimators,
                            c.rf_max_depth,
                            c.seed,
                        ),
                        deps=tuple(deps),
                    )
                )
        graph.register(
            Stage(
                name=f"fine-tuned-{task}",
                build=partial(_build_fine_tuned, task),
                config_slice=lambda c: (c.ft_epochs, c.ft_learning_rate, c.seed),
                deps=("bert", f"ft-split-{task}"),
            )
        )

    graph.validate()
    return graph


#: Names of the persistable substrate stages — the ones a warm store turns
#: into loads (used by the warm helpers, the CLI and CI assertions).
def substrate_stage_names(graph: StageGraph) -> List[str]:
    return [stage.name for stage in graph if stage.persistable]


__all__ = [
    "EMBEDDING_MIN_COUNT",
    "EMBEDDING_SHARDS",
    "TASKS",
    "build_lab_graph",
    "substrate_stage_names",
]
