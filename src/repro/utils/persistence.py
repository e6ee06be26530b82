"""Model persistence: save/load trained embeddings and mini-BERT models.

Two layouts, one per model family:

* *store entry* layouts for static/fastText embeddings: the big matrix as
  a standalone uncompressed ``.npy`` (via :mod:`repro.pipeline.arrays`, so
  large tables memory-map on load) next to an ``embedding.json`` carrying
  the vocabulary and metadata.  Tokens are written in vocabulary-id order,
  so reloading needs no row realignment and the mapped matrix is served
  zero-copy;
* a single-file ``.npz`` archive for mini-BERT (every parameter tensor in
  construction order plus config and WordPiece vocabulary) — a portable
  model export.

Saves are crash-safe: files are written to a temp name in the target
directory and renamed into place, so a killed run never leaves a truncated
artifact behind.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.bert.model import BertConfig, MiniBert
from repro.bert.wordpiece import WordPieceTokenizer
from repro.embeddings.base import StaticEmbeddings
from repro.embeddings.fasttext import FastText, FastTextConfig
from repro.pipeline import serialize
from repro.pipeline.arrays import load_array, save_array
from repro.text.vocab import Vocabulary
from repro.utils.atomic import atomic_write

PathLike = Union[str, Path]

_BERT_FORMAT = "repro-minibert-v1"
_EMBEDDING_ENTRY_FORMAT = "repro-static-embeddings-entry-v1"
_FASTTEXT_ENTRY_FORMAT = "repro-fasttext-entry-v1"


def _vocabulary_payload(vocabulary: Vocabulary) -> dict:
    tokens = list(vocabulary)  # iteration order == dense id order
    return {
        "tokens": tokens,
        "counts": [vocabulary.count(t) for t in tokens],
    }


def _vocabulary_and_order(payload: dict, matrix_rows: int):
    """Rebuild the vocabulary; returns ``(vocabulary, order_or_None)``.

    ``order`` is ``None`` when file rows already sit in dense-id order (the
    layout this module writes), letting callers keep a memory-mapped matrix
    as-is instead of realigning (which would copy it into RAM).
    """
    tokens = [str(t) for t in payload["tokens"]]
    counts = {t: int(c) for t, c in zip(tokens, payload["counts"])}
    vocabulary = Vocabulary(counts)
    if all(vocabulary.token_of(i) == tokens[i] for i in range(len(vocabulary))):
        return vocabulary, None
    row_of = {token: row for row, token in enumerate(tokens)}
    return vocabulary, [
        row_of[vocabulary.token_of(i)] for i in range(len(vocabulary))
    ]


def _npz_path(path: PathLike) -> Path:
    """Mirror numpy's string-path behaviour: append ``.npz`` if missing."""
    path = Path(path)
    if not str(path).endswith(".npz"):
        path = Path(str(path) + ".npz")
    return path


# -- store entry layouts (mmap-backed) ---------------------------------------


def save_embeddings_entry(model: StaticEmbeddings, entry_dir: PathLike) -> None:
    """Store-entry layout: ``matrix.npy`` + ``embedding.json``.

    The matrix is a standalone uncompressed ``.npy`` with rows in dense
    vocabulary-id order, so loads can memory-map it and serve it without a
    realignment copy.
    """
    entry_dir = Path(entry_dir)
    save_array(entry_dir / "matrix.npy", model.matrix)
    serialize.write_json(
        entry_dir / "embedding.json",
        {
            "format": _EMBEDDING_ENTRY_FORMAT,
            "name": model.name,
            "oov_seed": int(getattr(model, "oov_seed", 0)),
            **_vocabulary_payload(model.vocabulary),
        },
    )


def load_embeddings_entry(entry_dir: PathLike) -> StaticEmbeddings:
    """Load a :func:`save_embeddings_entry` layout (matrix mmap-eligible)."""
    entry_dir = Path(entry_dir)
    payload = serialize.read_json(
        entry_dir / "embedding.json", _EMBEDDING_ENTRY_FORMAT
    )
    matrix = load_array(entry_dir / "matrix.npy")
    vocabulary, order = _vocabulary_and_order(payload, matrix.shape[0])
    if order is not None:  # foreign row order: realign (copies, drops mmap)
        matrix = np.asarray(matrix)[order]
    return StaticEmbeddings(
        vocabulary,
        matrix,
        name=str(payload["name"]),
        oov_seed=int(payload.get("oov_seed", 0)),
    )


def save_fasttext_entry(model: FastText, entry_dir: PathLike) -> None:
    """Store-entry layout: ``table.npy`` + ``embedding.json`` (+ config)."""
    entry_dir = Path(entry_dir)
    config = model.config
    save_array(entry_dir / "table.npy", model.table)
    serialize.write_json(
        entry_dir / "embedding.json",
        {
            "format": _FASTTEXT_ENTRY_FORMAT,
            "name": model.name,
            "config": {
                "dim": config.dim,
                "window": config.window,
                "negative": config.negative,
                "epochs": config.epochs,
                "learning_rate": config.learning_rate,
                "min_count": config.min_count,
                "batch_size": config.batch_size,
                "min_n": config.min_n,
                "max_n": config.max_n,
                "bucket": config.bucket,
                "seed": config.seed,
            },
            **_vocabulary_payload(model.vocabulary),
        },
    )


def load_fasttext_entry(entry_dir: PathLike) -> FastText:
    """Load a :func:`save_fasttext_entry` layout (table mmap-eligible)."""
    entry_dir = Path(entry_dir)
    payload = serialize.read_json(
        entry_dir / "embedding.json", _FASTTEXT_ENTRY_FORMAT
    )
    table = load_array(entry_dir / "table.npy")
    config = FastTextConfig(**payload["config"])
    vocabulary, order = _vocabulary_and_order(payload, table.shape[0])
    if order is not None:  # foreign row order: realign (copies, drops mmap)
        table = np.concatenate(
            [np.asarray(table)[order], np.asarray(table)[len(vocabulary):]]
        )
    return FastText(vocabulary, table, config, name=str(payload["name"]))


def save_bert(model: MiniBert, path: PathLike) -> None:
    """Serialise a mini-BERT (parameters + config + WordPiece vocab)."""
    config = model.config
    config_json = json.dumps(
        {
            "d_model": config.d_model,
            "n_heads": config.n_heads,
            "n_layers": config.n_layers,
            "d_ff": config.d_ff,
            "max_len": config.max_len,
            "dropout": config.dropout,
            "n_classes": config.n_classes,
            "seed": config.seed,
        },
        sort_keys=True,
    )
    pieces = [model.tokenizer.piece_of(i) for i in range(len(model.tokenizer))]
    arrays = {
        f"param_{index:04d}": parameter.value
        for index, parameter in enumerate(model.parameters())
    }
    with atomic_write(_npz_path(path), "wb") as handle:
        np.savez_compressed(
            handle,
            format=np.array(_BERT_FORMAT),
            config=np.array(config_json),
            pieces=np.array(pieces, dtype=object),
            **arrays,
        )


def load_bert(path: PathLike) -> MiniBert:
    """Load a mini-BERT written by :func:`save_bert`.

    Parameters are restored in construction order, which is deterministic
    for a given config, so the loaded model reproduces the saved one
    exactly (verified by the round-trip tests).
    """
    with np.load(path, allow_pickle=True) as data:
        if str(data["format"]) != _BERT_FORMAT:
            raise ValueError(
                f"{path} is not a {_BERT_FORMAT} file (found {data['format']!r})"
            )
        config = BertConfig(**json.loads(str(data["config"])))
        tokenizer = WordPieceTokenizer([str(p) for p in data["pieces"]])
        model = MiniBert(tokenizer, config)
        parameters = model.parameters()
        param_keys = sorted(k for k in data.files if k.startswith("param_"))
        if len(param_keys) != len(parameters):
            raise ValueError(
                f"parameter count mismatch: file has {len(param_keys)}, "
                f"model expects {len(parameters)}"
            )
        for key, parameter in zip(param_keys, parameters):
            saved = np.asarray(data[key])
            if saved.shape != parameter.value.shape:
                raise ValueError(
                    f"shape mismatch for {parameter.name}: "
                    f"{saved.shape} vs {parameter.value.shape}"
                )
            parameter.value[...] = saved
        model.set_training(False)
        return model


__all__ = [
    "save_embeddings_entry",
    "load_embeddings_entry",
    "save_fasttext_entry",
    "load_fasttext_entry",
    "save_bert",
    "load_bert",
]
