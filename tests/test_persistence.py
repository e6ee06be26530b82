"""Round-trip tests for model persistence."""

import numpy as np
import pytest

from repro.bert.model import BertConfig, MiniBert
from repro.bert.pretrain import PretrainConfig, pretrain_mlm
from repro.bert.wordpiece import train_wordpiece
from repro.embeddings.fasttext import FastText, FastTextConfig
from repro.embeddings.word2vec import Word2Vec, Word2VecConfig
from repro.pipeline.serialize import write_json
from repro.utils.persistence import (
    load_bert,
    load_embeddings_entry,
    load_fasttext_entry,
    save_bert,
    save_embeddings_entry,
    save_fasttext_entry,
)

CORPUS = [["alpha", "beta", "gamma", "delta"], ["beta", "gamma", "alpha"]] * 15


class TestEmbeddingPersistence:
    """Store-entry layout: ``matrix.npy`` + ``embedding.json``."""

    @pytest.fixture(scope="class")
    def model(self):
        return Word2Vec.train(
            CORPUS, Word2VecConfig(dim=12, epochs=1, min_count=1, seed=0),
            name="W2V-test",
        )

    def test_round_trip_vectors(self, model, tmp_path):
        save_embeddings_entry(model, tmp_path)
        loaded = load_embeddings_entry(tmp_path)
        assert loaded.name == "W2V-test"
        assert loaded.dim == model.dim
        for token in ("alpha", "beta", "gamma"):
            assert np.allclose(loaded.vector(token), model.vector(token))

    def test_round_trip_vocabulary_counts(self, model, tmp_path):
        save_embeddings_entry(model, tmp_path)
        loaded = load_embeddings_entry(tmp_path)
        for token in model.vocabulary:
            assert loaded.vocabulary.count(token) == model.vocabulary.count(token)

    def test_oov_behaviour_preserved_by_name(self, model, tmp_path):
        save_embeddings_entry(model, tmp_path)
        loaded = load_embeddings_entry(tmp_path)
        assert not loaded.contains("zzz")
        assert np.array_equal(loaded.vector("zzz"), model.vector("zzz"))

    def test_wrong_format_rejected(self, tmp_path):
        write_json(tmp_path / "embedding.json", {"format": "something-else"})
        with pytest.raises(ValueError, match="not a repro-static"):
            load_embeddings_entry(tmp_path)

    def test_static_entry_rejected_as_fasttext(self, model, tmp_path):
        save_embeddings_entry(model, tmp_path)
        with pytest.raises(ValueError, match="not a repro-fasttext"):
            load_fasttext_entry(tmp_path)

    def test_bert_file_rejected_as_embeddings(self, tmp_path):
        """Cross-format confusion: a mini-BERT export is not an embedding entry."""
        tokenizer = train_wordpiece(CORPUS, vocab_size=40)
        bert = MiniBert(
            tokenizer,
            BertConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32, max_len=16),
        )
        save_bert(bert, tmp_path / "bert.npz")
        with pytest.raises(FileNotFoundError):
            load_embeddings_entry(tmp_path)

    def test_fasttext_round_trip(self, tmp_path):
        model = FastText.train(
            CORPUS,
            FastTextConfig(dim=8, epochs=1, min_count=1, bucket=50, seed=0),
            name="FT-test",
        )
        save_fasttext_entry(model, tmp_path)
        loaded = load_fasttext_entry(tmp_path)
        assert loaded.name == "FT-test"
        assert loaded.config == model.config
        assert np.array_equal(loaded.table, model.table)
        # Subword composition survives: an unseen word maps identically.
        assert np.allclose(loaded.vector("alphabet"), model.vector("alphabet"))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_embeddings_entry(tmp_path / "absent")


class TestBertPersistence:
    @pytest.fixture(scope="class")
    def model(self):
        tokenizer = train_wordpiece(CORPUS, vocab_size=50)
        return pretrain_mlm(
            CORPUS,
            tokenizer,
            BertConfig(d_model=16, n_heads=2, n_layers=2, d_ff=32,
                       max_len=16, dropout=0.0, seed=1),
            PretrainConfig(epochs=1, seed=1),
        )

    def test_round_trip_exact(self, model, tmp_path):
        path = tmp_path / "bert.npz"
        save_bert(model, path)
        loaded = load_bert(path)
        assert loaded.config == model.config
        assert len(loaded.tokenizer) == len(model.tokenizer)
        original = model.cls_embedding(["alpha", "beta"])
        restored = loaded.cls_embedding(["alpha", "beta"])
        assert np.allclose(original, restored)

    def test_classification_logits_identical(self, model, tmp_path):
        path = tmp_path / "bert.npz"
        save_bert(model, path)
        loaded = load_bert(path)
        ids, mask = model.pad_batch([[2, 5, 6, 3]])
        model.set_training(False)
        assert np.allclose(
            model.forward_classify(ids, mask),
            loaded.forward_classify(ids, mask),
        )

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bogus.npz"
        np.savez(path, format=np.array("nope"))
        with pytest.raises(ValueError, match="not a repro-minibert"):
            load_bert(path)

    def test_embedding_file_rejected_as_bert(self, tmp_path):
        """Cross-format confusion: an embedding .npz is not a mini-BERT file."""
        path = tmp_path / "emb.npz"
        np.savez(
            path,
            format=np.array("repro-static-embeddings-v1"),
            matrix=np.zeros((2, 4)),
        )
        with pytest.raises(ValueError, match="not a repro-minibert"):
            load_bert(path)

    def test_parameter_count_mismatch_rejected(self, model, tmp_path):
        path = tmp_path / "bert.npz"
        save_bert(model, path)
        with np.load(path, allow_pickle=True) as data:
            arrays = {key: data[key] for key in data.files}
        param_keys = sorted(k for k in arrays if k.startswith("param_"))
        del arrays[param_keys[-1]]  # drop one tensor
        truncated = tmp_path / "truncated.npz"
        np.savez(truncated, **arrays)
        with pytest.raises(ValueError, match="parameter count mismatch"):
            load_bert(truncated)

    def test_parameter_shape_mismatch_rejected(self, model, tmp_path):
        path = tmp_path / "bert.npz"
        save_bert(model, path)
        with np.load(path, allow_pickle=True) as data:
            arrays = {key: data[key] for key in data.files}
        param_keys = sorted(k for k in arrays if k.startswith("param_"))
        arrays[param_keys[0]] = np.zeros((3, 3))  # wrong shape
        mangled = tmp_path / "mangled.npz"
        np.savez(mangled, **arrays)
        with pytest.raises(ValueError, match="shape mismatch"):
            load_bert(mangled)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_bert(tmp_path / "absent.npz")

    def test_loaded_model_is_eval_mode(self, model, tmp_path):
        path = tmp_path / "bert.npz"
        save_bert(model, path)
        assert load_bert(path).training is False
