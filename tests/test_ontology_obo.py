"""Tests for the OBO parser/writer round-trip."""

import gzip
import io

import pytest

from repro.ontology.model import Entity, Ontology, SubOntology
from repro.ontology.obo import OboParseError, dump_obo, dumps_obo, load_obo
from repro.ontology.relations import HAS_ROLE, IS_A

SAMPLE = """format-version: 1.2
ontology: chebi-sample

[Term]
id: CHEBI:1
name: chemical entity
namespace: chemical_entity

[Term]
id: CHEBI:2
name: butanoic acid
namespace: chemical_entity
def: "A short-chain fatty acid." []
synonym: "butyric acid" RELATED []
is_a: CHEBI:1

[Term]
id: CHEBI:3
name: metabolite
namespace: role

[Term]
id: CHEBI:4
name: 3-hydroxybutanoic acid
namespace: chemical_entity
is_a: CHEBI:2 ! a comment
relationship: has_role CHEBI:3

[Term]
id: CHEBI:5
name: obsolete thing
is_obsolete: true
"""


class TestLoadObo:
    def test_entities_parsed(self):
        onto = load_obo(io.StringIO(SAMPLE))
        assert onto.num_entities == 4  # obsolete term skipped
        assert onto.entity("CHEBI:2").name == "butanoic acid"
        assert onto.entity("CHEBI:3").sub_ontology is SubOntology.ROLE

    def test_def_and_synonyms(self):
        onto = load_obo(io.StringIO(SAMPLE))
        entity = onto.entity("CHEBI:2")
        assert entity.definition == "A short-chain fatty acid."
        assert entity.synonyms == ("butyric acid",)

    def test_statements_parsed_with_comments_stripped(self):
        onto = load_obo(io.StringIO(SAMPLE))
        assert onto.has_statement("CHEBI:4", IS_A, "CHEBI:2")
        assert onto.has_statement("CHEBI:4", HAS_ROLE, "CHEBI:3")

    def test_missing_target_raises(self):
        bad = "[Term]\nid: A:1\nname: x\nis_a: A:9\n"
        with pytest.raises(KeyError):
            load_obo(io.StringIO(bad))

    def test_cycle_rejected(self):
        bad = (
            "[Term]\nid: A:1\nname: x\nis_a: A:2\n\n"
            "[Term]\nid: A:2\nname: y\nis_a: A:1\n"
        )
        with pytest.raises(OboParseError, match="cycle"):
            load_obo(io.StringIO(bad))

    def test_malformed_line_raises(self):
        bad = "[Term]\nid: A:1\nname: x\nrelationship: only_one_part\n"
        with pytest.raises(OboParseError, match="relationship"):
            load_obo(io.StringIO(bad))

    def test_term_without_name_raises(self):
        bad = "[Term]\nid: A:1\n"
        with pytest.raises(OboParseError, match="missing"):
            load_obo(io.StringIO(bad))

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "sample.obo"
        path.write_text(SAMPLE)
        onto = load_obo(path)
        assert onto.num_entities == 4


    def test_gzipped_file_loads_like_plain(self, tmp_path, ontology):
        text = dumps_obo(ontology)
        plain = tmp_path / "chebi.obo"
        plain.write_text(text, encoding="utf-8")
        packed = tmp_path / "chebi.obo.gz"
        packed.write_bytes(gzip.compress(text.encode("utf-8")))
        assert dumps_obo(load_obo(packed)) == dumps_obo(load_obo(plain))

    def test_non_utf8_file_raises_typed_error(self, tmp_path):
        path = tmp_path / "latin1.obo"
        path.write_bytes("[Term]\nid: A:1\nname: caf\u00e9\n".encode("latin-1"))
        with pytest.raises(OboParseError, match="not UTF-8"):
            load_obo(path)

    def test_truncated_gzip_raises_typed_error(self, tmp_path):
        path = tmp_path / "cut.obo.gz"
        path.write_bytes(gzip.compress(SAMPLE.encode("utf-8"))[:-12])
        with pytest.raises(OboParseError, match="corrupt gzip"):
            load_obo(path)


class TestRoundTrip:
    def test_dump_then_load_preserves_everything(self):
        original = load_obo(io.StringIO(SAMPLE), name="x")
        text = dumps_obo(original)
        reloaded = load_obo(io.StringIO(text), name="x")
        assert reloaded.num_entities == original.num_entities
        assert reloaded.num_statements == original.num_statements
        for entity in original.entities():
            copy = reloaded.entity(entity.identifier)
            assert copy == entity

    def test_quotes_escaped(self):
        onto = Ontology("q")
        onto.add_entity(
            Entity("E:1", "thing", definition='contains "quotes" and \\ slash')
        )
        reloaded = load_obo(io.StringIO(dumps_obo(onto)))
        assert reloaded.entity("E:1").definition == 'contains "quotes" and \\ slash'

    def test_synthetic_ontology_round_trips(self, ontology):
        text = dumps_obo(ontology)
        reloaded = load_obo(io.StringIO(text))
        assert reloaded.num_entities == ontology.num_entities
        assert reloaded.num_statements == ontology.num_statements

    def test_dump_to_path(self, tmp_path, ontology):
        path = tmp_path / "out.obo"
        dump_obo(ontology, path)
        assert load_obo(path).num_entities == ontology.num_entities
