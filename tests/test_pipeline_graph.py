"""Stage-graph structure, content-addressed cache-key and stage-contract
tests."""

from collections.abc import Mapping
import dataclasses

import pytest

from repro.core.experiment import Lab, LabConfig, lab_graph
from repro.pipeline.graph import StageGraph
from repro.pipeline.stage import Stage, StageError
from tests.conftest import MICRO_LAB_CONFIG


def _stage(name, deps=(), **kwargs):
    return Stage(name=name, build=lambda lab, inputs: name, deps=deps, **kwargs)


class TestStage:
    def test_requires_name(self):
        with pytest.raises(ValueError, match="non-empty"):
            _stage("")

    def test_save_load_must_pair(self):
        with pytest.raises(ValueError, match="both save and load"):
            Stage(
                name="x",
                build=lambda lab, inputs: None,
                save=lambda artifact, entry_dir: None,
            )

    def test_persistable(self):
        assert not _stage("x").persistable
        paired = Stage(
            name="x",
            build=lambda lab, inputs: None,
            save=lambda artifact, entry_dir: None,
            load=lambda entry_dir, inputs: None,
        )
        assert paired.persistable

    def test_stage_error_names_stage(self):
        error = StageError("bert", "exploded")
        assert error.stage == "bert"
        assert "bert" in str(error)
        assert "exploded" in str(error)


class TestStageGraphStructure:
    def test_register_rejects_duplicates(self):
        graph = StageGraph([_stage("a")])
        with pytest.raises(ValueError, match="already registered"):
            graph.register(_stage("a"))

    def test_unknown_stage_is_keyerror(self):
        graph = StageGraph([_stage("a")])
        with pytest.raises(KeyError, match="unknown stage 'b'"):
            graph.stage("b")

    def test_validate_rejects_unknown_dep(self):
        graph = StageGraph([_stage("a", deps=("ghost",))])
        with pytest.raises(ValueError, match="unknown stage 'ghost'"):
            graph.validate()

    def test_topological_order_is_deterministic_and_deps_first(self):
        graph = StageGraph(
            [
                _stage("z"),
                _stage("m", deps=("z",)),
                _stage("a", deps=("z",)),
                _stage("end", deps=("m", "a")),
            ]
        )
        order = graph.topological_order()
        assert order == ["z", "a", "m", "end"]  # lexicographic among ready
        assert order == graph.topological_order()

    def test_topological_order_detects_cycles(self):
        graph = StageGraph(
            [_stage("a", deps=("b",)), _stage("b", deps=("a",))]
        )
        with pytest.raises(ValueError, match="cycle"):
            graph.topological_order()

    def test_closure_and_dependents(self):
        graph = StageGraph(
            [
                _stage("root"),
                _stage("mid", deps=("root",)),
                _stage("leaf", deps=("mid",)),
                _stage("other"),
            ]
        )
        assert graph.closure(["leaf"]) == {"root", "mid", "leaf"}
        assert graph.dependents("root") == ["mid"]


class TestLabGraph:
    def test_builds_and_validates(self):
        graph = lab_graph()
        assert len(graph) > 50
        for expected in (
            "ontology",
            "corpus-chemistry",
            "wordpiece",
            "bert",
            "embedding-GloVe-Chem",
            "dataset-1",
            "ml-split-3",
            "task-filter-W2V-Chem",
            "forest-1-W2V-Chem-naive",
            "fine-tuned-2",
        ):
            assert expected in graph

    def test_persistable_subgraph_closed_under_persistable_deps(self):
        # A persistable stage may depend on a derived one (task-filter-Random
        # on the random embedding), but every *expensive* substrate of a
        # persistable stage must itself persist, or warm runs would rebuild.
        graph = lab_graph()
        for stage in graph:
            if not stage.persistable:
                continue
            for dep in stage.deps:
                dep_stage = graph.stage(dep)
                assert dep_stage.persistable or dep.startswith("embedding-"), (
                    f"{stage.name} depends on unpersistable {dep}"
                )


class TestCacheKeys:
    def test_keys_are_stable_across_calls(self):
        graph = lab_graph()
        config = LabConfig()
        assert graph.keys(config) == graph.keys(config)

    def test_config_field_changes_stage_and_dependent_keys(self):
        graph = lab_graph()
        base = graph.keys(LabConfig())
        moved = graph.keys(LabConfig(ontology_seed=8))
        # ontology feeds (almost) everything: only the random baseline
        # survives an ontology change.
        changed = {name for name in base if base[name] != moved[name]}
        assert "ontology" in changed
        assert "corpus-chemistry" in changed
        assert "bert" in changed
        assert "forest-1-W2V-Chem-naive" in changed
        assert base["embedding-Random"] == moved["embedding-Random"]

    def test_midstream_field_only_touches_downstream(self):
        graph = lab_graph()
        base = graph.keys(LabConfig())
        moved = graph.keys(LabConfig(embedding_epochs=4))
        changed = {name for name in base if base[name] != moved[name]}
        # word2vec/fasttext train with embedding_epochs; GloVe does not.
        assert "embedding-W2V-Chem" in changed
        assert "embedding-BioWordVec" in changed
        assert "task-filter-W2V-Chem" in changed
        assert "forest-2-W2V-Chem-none" in changed
        assert "embedding-GloVe" not in changed
        assert "ontology" not in changed
        assert "bert" not in changed

    def test_unrelated_field_changes_nothing(self):
        graph = lab_graph()
        base = graph.keys(LabConfig())
        moved = graph.keys(LabConfig(lstm_hidden=128, lstm_epochs=9))
        assert base == moved

    def test_version_tag_changes_key(self):
        stage = _stage("a")
        bumped = dataclasses.replace(stage, version="2")
        key_v1 = StageGraph([stage]).key("a", LabConfig())
        key_v2 = StageGraph([bumped]).key("a", LabConfig())
        assert key_v1 != key_v2

    def test_dep_key_change_propagates(self):
        upstream = _stage("up")
        downstream = _stage("down", deps=("up",))
        base = StageGraph([upstream, downstream]).keys(LabConfig())
        bumped = StageGraph(
            [dataclasses.replace(upstream, version="2"), downstream]
        ).keys(LabConfig())
        assert base["up"] != bumped["up"]
        assert base["down"] != bumped["down"]


class _RecordingConfig:
    """A LabConfig view that records the name of every field read."""

    def __init__(self, config):
        self._config = config
        self.reads = set()

    def __getattr__(self, name):
        self.reads.add(name)
        return getattr(self._config, name)


class _RecordingInputs(Mapping):
    """A stage's ``inputs`` mapping that records every key asked for.

    It holds every artifact built so far, not just the declared deps
    ``Lab.materialize`` passes, so a read outside ``deps`` is reported by
    name instead of ending the build in a bare ``KeyError``.
    """

    def __init__(self, artifacts):
        self._artifacts = artifacts
        self.reads = set()

    def __getitem__(self, key):
        self.reads.add(key)
        return self._artifacts[key]

    def __iter__(self):
        return iter(self._artifacts)

    def __len__(self):
        return len(self._artifacts)


class _ContractLab:
    """All of a Lab a builder may use: its config and the model configs
    derived from it."""

    rf_config = Lab.rf_config
    ft_config = Lab.ft_config

    def __init__(self, config):
        self.config = config


@pytest.fixture(scope="module")
def stage_reads(tmp_path_factory):
    """Build every stage of the micro graph in topological order, saving
    and reloading each persistable one, and return stage name ->
    ``(slice fields, builder fields, builder inputs, loader inputs)``."""
    graph = lab_graph()
    root = tmp_path_factory.mktemp("stage-contract")
    artifacts = {}
    reads = {}
    for name in graph.topological_order():
        stage = graph.stage(name)
        slice_config = _RecordingConfig(MICRO_LAB_CONFIG)
        stage.config_slice(slice_config)
        build_config = _RecordingConfig(MICRO_LAB_CONFIG)
        build_inputs = _RecordingInputs(artifacts)
        artifact = stage.build(_ContractLab(build_config), build_inputs)
        load_inputs = _RecordingInputs(artifacts)
        if stage.persistable:
            entry = root / name
            entry.mkdir()
            stage.save(artifact, entry)
            stage.load(entry, load_inputs)
        artifacts[name] = artifact
        reads[name] = (
            slice_config.reads,
            build_config.reads,
            build_inputs.reads,
            load_inputs.reads,
        )
    return reads


class TestStageContract:
    """A stage's cache key hashes its config slice and its deps' keys, so
    a warm store is correct only if the builder reads nothing else."""

    @pytest.mark.parametrize("name", lab_graph().topological_order())
    def test_builder_reads_only_its_slice_and_deps(self, stage_reads, name):
        slice_fields, config_fields, build_inputs, load_inputs = stage_reads[name]
        deps = set(lab_graph().stage(name).deps)
        assert config_fields <= slice_fields, (
            f"{name} reads LabConfig fields outside its config_slice: "
            f"{sorted(config_fields - slice_fields)}"
        )
        assert build_inputs | load_inputs <= deps, (
            f"{name} reads inputs it does not declare as deps: "
            f"{sorted((build_inputs | load_inputs) - deps)}"
        )
        assert deps <= build_inputs | load_inputs, (
            f"{name} declares deps that neither its builder nor its loader "
            f"reads: {sorted(deps - build_inputs - load_inputs)}"
        )
