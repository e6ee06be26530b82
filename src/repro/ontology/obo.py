"""Minimal OBO 1.2 reader/writer.

ChEBI is distributed in OBO format.  This module round-trips the subset the
experiments use: ``[Term]`` stanzas with ``id``, ``name``, ``def``,
``synonym``, ``subset`` (mapped to sub-ontologies), ``is_a`` lines and
``relationship: <type> <target>`` lines.  Users with a real ChEBI download can
load it with :func:`load_obo` — plain or gzipped, as ChEBI ships
``chebi.obo.gz`` — and run the full benchmark on genuine data; the writer
exists so the synthetic ontology can be exported, inspected, and
round-tripped in tests.
"""

from __future__ import annotations

import gzip
import io
import re
import zlib
from pathlib import Path
from typing import Dict, Iterable, List, Optional, TextIO, Tuple, Union

from repro.ontology.model import Entity, Ontology, SubOntology
from repro.ontology.queries import is_dag
from repro.ontology.relations import IS_A, relation_by_name

_SUBSET_TO_SUBONTOLOGY = {
    "1_STAR": SubOntology.CHEMICAL,  # ChEBI star subsets are orthogonal;
    "2_STAR": SubOntology.CHEMICAL,  # namespace handling below overrides.
    "3_STAR": SubOntology.CHEMICAL,
}

_NAMESPACE_TO_SUBONTOLOGY = {
    "chebi_ontology": SubOntology.CHEMICAL,
    "chemical_entity": SubOntology.CHEMICAL,
    "role": SubOntology.ROLE,
    "subatomic_particle": SubOntology.SUBATOMIC,
}

_DEF_RE = re.compile(r'^"(?P<text>(?:[^"\\]|\\.)*)"')
_SYNONYM_RE = re.compile(r'^"(?P<text>(?:[^"\\]|\\.)*)"')


class OboParseError(ValueError):
    """Raised on malformed OBO input, with a line number in the message."""


def _unescape(text: str) -> str:
    return text.replace('\\"', '"').replace("\\\\", "\\")


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _strip_comment(line: str) -> str:
    # OBO comments start with '!' outside quoted strings; the fields we parse
    # never contain '!' inside quotes except defs, handled by regex first.
    in_quote = False
    for index, char in enumerate(line):
        if char == '"' and (index == 0 or line[index - 1] != "\\"):
            in_quote = not in_quote
        elif char == "!" and not in_quote:
            return line[:index].rstrip()
    return line.rstrip()


def load_obo(source: Union[str, Path, TextIO], name: str = "obo") -> Ontology:
    """Parse an OBO document into an :class:`Ontology`.

    ``source`` may be a path or an open text stream.  A path whose file
    starts with the gzip magic bytes is decompressed on the fly; bytes that
    are not UTF-8, or a corrupt gzip stream, raise :class:`OboParseError`.
    Statements referencing terms that are never defined are rejected;
    ``is_obsolete: true`` terms are skipped (ChEBI keeps obsolete stubs).
    The resulting ``is_a`` graph is verified acyclic.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as probe:
            opener = gzip.open if probe.read(2) == b"\x1f\x8b" else open
        with opener(source, "rt", encoding="utf-8") as handle:
            try:
                return load_obo(handle, name=name)
            except UnicodeDecodeError as error:
                raise OboParseError(
                    f"{source}: not UTF-8 text ({error})"
                ) from error
            except (EOFError, gzip.BadGzipFile, zlib.error) as error:
                raise OboParseError(
                    f"{source}: corrupt gzip stream ({error})"
                ) from error

    terms: List[dict] = []
    current: Optional[dict] = None
    in_term_stanza = False

    for line_number, raw in enumerate(source, start=1):
        line = _strip_comment(raw)
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            in_term_stanza = stripped == "[Term]"
            if in_term_stanza:
                current = {"is_a": [], "relationships": [], "synonyms": []}
                terms.append(current)
            continue
        if not in_term_stanza or current is None:
            continue
        if ":" not in stripped:
            raise OboParseError(f"line {line_number}: expected 'tag: value'")
        tag, _, value = stripped.partition(":")
        tag = tag.strip()
        value = value.strip()
        if tag == "id":
            current["id"] = value
        elif tag == "name":
            current["name"] = value
        elif tag == "namespace":
            current["namespace"] = value
        elif tag == "def":
            match = _DEF_RE.match(value)
            if not match:
                raise OboParseError(f"line {line_number}: malformed def line")
            current["def"] = _unescape(match.group("text"))
        elif tag == "synonym":
            match = _SYNONYM_RE.match(value)
            if not match:
                raise OboParseError(f"line {line_number}: malformed synonym line")
            current["synonyms"].append(_unescape(match.group("text")))
        elif tag == "is_a":
            current["is_a"].append(value.split()[0])
        elif tag == "relationship":
            parts = value.split()
            if len(parts) < 2:
                raise OboParseError(
                    f"line {line_number}: relationship needs '<type> <target>'"
                )
            current["relationships"].append((parts[0], parts[1]))
        elif tag == "is_obsolete" and value.lower() == "true":
            current["obsolete"] = True

    ontology = Ontology(name=name)
    for term in terms:
        if term.get("obsolete"):
            continue
        if "id" not in term or "name" not in term:
            raise OboParseError("term stanza missing id or name")
        sub = _NAMESPACE_TO_SUBONTOLOGY.get(
            term.get("namespace", ""), SubOntology.CHEMICAL
        )
        ontology.add_entity(
            Entity(
                identifier=term["id"],
                name=term["name"],
                sub_ontology=sub,
                definition=term.get("def", ""),
                synonyms=tuple(term["synonyms"]),
            )
        )
    for term in terms:
        if term.get("obsolete"):
            continue
        for parent in term["is_a"]:
            ontology.add_statement(term["id"], IS_A, parent)
        for rel_name, target in term["relationships"]:
            ontology.add_statement(term["id"], relation_by_name(rel_name), target)
    if not is_dag(ontology):
        raise OboParseError("is_a hierarchy contains a cycle")
    return ontology


def dump_obo(ontology: Ontology, target: Union[str, Path, TextIO]) -> None:
    """Serialise ``ontology`` to OBO 1.2.

    Output round-trips through :func:`load_obo` (entities, sub-ontologies via
    ``namespace``, definitions, synonyms, and all statements).
    """
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as handle:
            dump_obo(ontology, handle)
        return

    target.write("format-version: 1.2\n")
    target.write(f"ontology: {ontology.name}\n")
    statements_by_subject: Dict[str, List] = {}
    for statement in ontology.statements():
        statements_by_subject.setdefault(statement.subject, []).append(statement)
    for entity in ontology.entities():
        target.write("\n[Term]\n")
        target.write(f"id: {entity.identifier}\n")
        target.write(f"name: {entity.name}\n")
        target.write(f"namespace: {entity.sub_ontology.value}\n")
        if entity.definition:
            target.write(f'def: "{_escape(entity.definition)}" []\n')
        for synonym in entity.synonyms:
            target.write(f'synonym: "{_escape(synonym)}" RELATED []\n')
        for statement in statements_by_subject.get(entity.identifier, []):
            if statement.relation.name == IS_A.name:
                target.write(f"is_a: {statement.object}\n")
            else:
                target.write(
                    f"relationship: {statement.relation.name} {statement.object}\n"
                )


def dumps_obo(ontology: Ontology) -> str:
    """Serialise to an OBO string (convenience wrapper over :func:`dump_obo`)."""
    buffer = io.StringIO()
    dump_obo(ontology, buffer)
    return buffer.getvalue()


__all__ = ["load_obo", "dump_obo", "dumps_obo", "OboParseError"]
