"""Tests for the Lab orchestration object."""

import pytest

from repro.core.datasets import Dataset
from repro.core.experiment import Lab, LabConfig, subsample
from repro.core.triples import LabeledTriple
from repro.embeddings.registry import MODEL_NAMES
from repro.obs import trace
from repro.obs.manifest import build_manifest, clear_context
from repro.obs.trace import get_tracer
from repro.ontology.relations import IS_A
from tests.conftest import MICRO_LAB_CONFIG

UNKNOWN_EMBEDDING = "unknown embedding {!r}; have " + str(sorted(MODEL_NAMES))


class TestSubsample:
    def make(self, n_pos, n_neg):
        triples = [
            LabeledTriple(f"s{i}", f"s {i}", IS_A, f"o{i}", f"o {i}", 1)
            for i in range(n_pos)
        ] + [
            LabeledTriple(f"t{i}", f"t {i}", IS_A, f"u{i}", f"u {i}", 0)
            for i in range(n_neg)
        ]
        return Dataset(triples)

    def test_noop_when_small_enough(self):
        dataset = self.make(5, 5)
        assert subsample(dataset, 100) is dataset
        assert subsample(dataset, None) is dataset

    def test_cap_and_ratio(self):
        dataset = self.make(60, 30)
        small = subsample(dataset, 30, seed=0)
        n_pos, n_neg = small.counts()
        assert n_pos + n_neg == 30
        assert n_pos == 20  # 2:1 ratio preserved

    def test_default_seed_derives_from_dataset_identity(self):
        dataset = self.make(60, 30)
        # deterministic: the same dataset always draws the same subsample
        assert (
            subsample(dataset, 30).triples == subsample(dataset, 30).triples
        )
        # but the derived seed is a function of the dataset's identity, so
        # differently-named datasets no longer share one hard-coded draw
        renamed = Dataset(list(dataset), name="another-name")
        assert (
            subsample(dataset, 30).triples != subsample(renamed, 30).triples
        )
        # and of the cap
        assert subsample(dataset, 30).triples != subsample(dataset, 31).triples[:30]

    def test_explicit_seed_overrides_derivation(self):
        dataset = self.make(60, 30)
        renamed = Dataset(list(dataset), name=dataset.name)
        assert (
            subsample(dataset, 30, seed=1).triples
            == subsample(renamed, 30, seed=1).triples
        )
        assert (
            subsample(dataset, 30, seed=1).triples
            != subsample(dataset, 30, seed=2).triples
        )


class TestLab:
    def test_caching_returns_same_objects(self, lab):
        assert lab.ontology is lab.ontology
        assert lab.dataset(1) is lab.dataset(1)
        assert lab.embeddings is lab.embeddings

    def test_embedding_lineup_complete(self, lab):
        assert set(lab.embeddings) == set(MODEL_NAMES)

    def test_embedding_lookup_error(self, lab):
        with pytest.raises(KeyError, match="unknown embedding"):
            lab.embedding("NotAModel")

    def test_split_caps_respected(self, lab):
        split = lab.ml_split(1)
        assert len(split.train) <= lab.config.max_train
        assert len(split.test) <= lab.config.max_test

    def test_ft_split_has_validation(self, lab):
        split = lab.ft_split(1)
        assert split.validation is not None

    def test_adaptation_filters(self, lab):
        assert lab.adaptation_filter("none") is None
        naive = lab.adaptation_filter("naive")
        assert naive(["3", "acid"]) == ["acid"]
        task = lab.adaptation_filter("task-oriented", "W2V-Chem")
        assert callable(task)
        with pytest.raises(ValueError):
            lab.adaptation_filter("bogus")
        with pytest.raises(ValueError):
            lab.adaptation_filter("task-oriented")

    def test_evaluate_random_forest_cell(self, lab):
        report, forest = lab.evaluate_random_forest(1, "W2V-Chem", "naive")
        assert 0.5 < report.accuracy <= 1.0
        assert forest.feature_importances_ is not None

    def test_evaluate_lstm_cell(self, lab):
        report, model = lab.evaluate_lstm(1, "Random", "none")
        assert 0.0 <= report.f1 <= 1.0
        assert model.history

    def test_bert_pretrained(self, lab):
        assert lab.bert.pretrain_losses
        assert lab.bert.training is False


class TestGridSearch:
    def test_grid_search_random_forest(self, lab):
        result = lab.grid_search_random_forest(
            1,
            "Random",
            "none",
            grid={"n_estimators": [4, 8], "max_depth": [6]},
            n_folds=3,
            max_samples=300,
        )
        assert result.best_params["max_depth"] == 6
        assert result.best_params["n_estimators"] in (4, 8)
        assert 0.0 <= result.best_score <= 1.0
        assert len(result.all_scores) == 2
        # the refit best model can predict
        split = lab.ml_split(1)
        from repro.ml.features import FeatureExtractor

        extractor = FeatureExtractor(lab.embedding("Random"))
        predictions = result.best_model.predict(
            extractor.matrix(split.test.triples[:20])
        )
        assert set(predictions.tolist()) <= {0, 1}


class TestOneMaterializationPath:
    """Every accessor is a stage lookup: arguments the graph has no stage
    for are rejected before anything is built, and every ``lab.*`` span is
    a recorded stage."""

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda lab: lab.dataset(9), KeyError,
             "no task 9; valid numbers are 1-3"),
            (lambda lab: lab.ml_split(0), KeyError,
             "no task 0; valid numbers are 1-3"),
            (lambda lab: lab.ft_split(7), KeyError,
             "no task 7; valid numbers are 1-3"),
            (lambda lab: lab.fine_tuned(4), KeyError,
             "no task 4; valid numbers are 1-3"),
            (lambda lab: lab.trained_forest(1, "PubmedBERT", "task-oriented"),
             ValueError,
             "task-oriented adaptation requires a token-level embedding model"),
            (lambda lab: lab.adaptation_filter("task-oriented", "PubmedBERT"),
             ValueError,
             "task-oriented adaptation requires a token-level embedding model"),
            (lambda lab: lab.trained_forest(1, "NotAModel", "none"), KeyError,
             UNKNOWN_EMBEDDING.format("NotAModel")),
            (lambda lab: lab.trained_forest(1, "GloVe", "bogus"), ValueError,
             "unknown adaptation 'bogus'; valid: "
             "('none', 'naive', 'task-oriented')"),
            (lambda lab: lab.embedding("Nope"), KeyError,
             UNKNOWN_EMBEDDING.format("Nope")),
        ],
        ids=[
            "dataset-9", "ml-split-0", "ft-split-7", "fine-tuned-4",
            "forest-task-oriented-PubmedBERT", "filter-task-oriented-PubmedBERT",
            "forest-NotAModel", "forest-bogus-adaptation", "embedding-Nope",
        ],
    )
    def test_off_graph_arguments_raise_before_any_build(
        self, call, error, message
    ):
        lab = Lab(MICRO_LAB_CONFIG)
        clear_context()
        with pytest.raises(error) as excinfo:
            call(lab)
        assert excinfo.value.args == (message,)
        assert build_manifest()["context"].get("stages", {}) == {}

    def test_every_lab_span_is_a_recorded_stage(self):
        tracer = get_tracer()
        was_enabled = tracer.enabled
        tracer.enabled = True
        trace.reset()
        clear_context()
        try:
            lab = Lab(MICRO_LAB_CONFIG)
            assert list(lab.embeddings) == list(MODEL_NAMES)  # the row lineup
            lab.evaluate_random_forest(1, "W2V-Chem", "naive")  # one cell
            manifest = build_manifest()
        finally:
            tracer.enabled = was_enabled
            trace.reset()

        def lab_spans(spans):
            for span in spans:
                if span["name"].startswith("lab."):
                    yield span["name"]
                yield from lab_spans(span.get("children", []))

        names = set(lab_spans(manifest["spans"]))
        assert "lab.forest-1-W2V-Chem-naive" in names
        stages = manifest["context"]["stages"]
        unrecorded = {name for name in names if name[len("lab."):] not in stages}
        assert not unrecorded
