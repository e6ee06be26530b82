"""Request/response JSON schemas for the curation service.

The wire format is deliberately small and schema-versioned: every response
carries ``"format": "repro-serve-v1"`` so clients (and the golden round-trip
tests) can detect drift the same way run manifests do.  A classify request
names a backend and carries either one ``triple`` or a ``triples`` batch; a
triple is the JSON rendering of :class:`~repro.core.triples.LabeledTriple`
minus the gold label::

    {"subject": "ammonium chloride", "relation": "has_role",
     "object": "ferroptosis inhibitor"}

Identifiers are optional — curation queries usually arrive as names — and
default to a deterministic ``req:<name>`` placeholder, so the same request
always parses to the same triple (and therefore the same content-addressed
behaviour downstream).  An identifier that is present must be a string
(``null`` or ``""`` count as absent).

All serialisation goes through :func:`render_json` (``sort_keys=True``) so
responses are byte-stable for a given payload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.triples import LabeledTriple
from repro.ontology.relations import relation_by_name

#: Format tag carried by every serve request/response document.
SERVE_FORMAT = "repro-serve-v1"

#: Hard cap on triples per request — larger batches must be split client-side
#: so one request cannot monopolise the micro-batcher.
MAX_TRIPLES_PER_REQUEST = 256


class SchemaError(ValueError):
    """A request or response document does not match the serve schema."""


def _require_str(obj: dict, key: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str) or not value.strip():
        raise SchemaError(f"triple field {key!r} must be a non-empty string")
    return value


def _optional_id(obj: dict, key: str, name: str) -> str:
    value = obj.get(key)
    if value is not None and not isinstance(value, str):
        raise SchemaError(
            f"triple field {key!r} must be a string when present, "
            f"got {type(value).__name__}"
        )
    return value or f"req:{name}"


def parse_triple(obj: object) -> LabeledTriple:
    """Parse one request triple into a :class:`LabeledTriple`.

    The gold label is unknown at request time; the placeholder ``label=0``
    is never read by ``classify`` paths.
    """
    if not isinstance(obj, dict):
        raise SchemaError(f"triple must be an object, got {type(obj).__name__}")
    subject = _require_str(obj, "subject")
    object_name = _require_str(obj, "object")
    relation_name = _require_str(obj, "relation")
    try:
        relation = relation_by_name(relation_name)
    except KeyError as error:
        raise SchemaError(str(error)) from None
    return LabeledTriple(
        subject_id=_optional_id(obj, "subject_id", subject),
        subject_name=subject,
        relation=relation,
        object_id=_optional_id(obj, "object_id", object_name),
        object_name=object_name,
        label=0,
    )


def triple_payload(triple: LabeledTriple) -> dict:
    """The JSON rendering of one triple (inverse of :func:`parse_triple`)."""
    return {
        "subject": triple.subject_name,
        "subject_id": triple.subject_id,
        "relation": triple.relation.name,
        "object": triple.object_name,
        "object_id": triple.object_id,
    }


@dataclass(frozen=True)
class ClassifyRequest:
    """A parsed ``POST /v1/classify`` body."""

    backend: Optional[str]
    triples: Tuple[LabeledTriple, ...]
    #: Whether the request used the batch (``triples``) or single (``triple``)
    #: spelling; responses mirror it so clients round-trip cleanly.
    batch: bool = True

    def to_payload(self) -> dict:
        payload: dict = {"format": SERVE_FORMAT}
        if self.backend is not None:
            payload["backend"] = self.backend
        if self.batch:
            payload["triples"] = [triple_payload(t) for t in self.triples]
        else:
            payload["triple"] = triple_payload(self.triples[0])
        return payload


def parse_classify_request(body: object) -> ClassifyRequest:
    """Parse a classify request document (dict, str, or bytes)."""
    if isinstance(body, (bytes, bytearray)):
        try:
            body = body.decode("utf-8")
        except UnicodeDecodeError as error:
            raise SchemaError(f"request body is not UTF-8: {error}") from None
    if isinstance(body, str):
        try:
            body = json.loads(body)
        except json.JSONDecodeError as error:
            raise SchemaError(f"request body is not JSON: {error}") from None
        except RecursionError:
            raise SchemaError("request body nests JSON too deeply") from None
    if not isinstance(body, dict):
        raise SchemaError("request body must be a JSON object")
    backend = body.get("backend")
    if backend is not None and not isinstance(backend, str):
        raise SchemaError("'backend' must be a string when present")
    if ("triple" in body) == ("triples" in body):
        raise SchemaError("request must carry exactly one of 'triple'/'triples'")
    if "triple" in body:
        return ClassifyRequest(
            backend=backend, triples=(parse_triple(body["triple"]),), batch=False
        )
    raw = body["triples"]
    if not isinstance(raw, list) or not raw:
        raise SchemaError("'triples' must be a non-empty array")
    if len(raw) > MAX_TRIPLES_PER_REQUEST:
        raise SchemaError(
            f"'triples' carries {len(raw)} items; the per-request cap is "
            f"{MAX_TRIPLES_PER_REQUEST} — split the batch client-side"
        )
    return ClassifyRequest(
        backend=backend,
        triples=tuple(parse_triple(item) for item in raw),
        batch=True,
    )


def classify_response(
    backend: str,
    labels: Sequence[Optional[int]],
    batch: bool = True,
    batched_with: Optional[int] = None,
) -> dict:
    """The response document for one classify request.

    ``labels`` entries are 1 (plausible), 0 (not plausible) or ``None``
    (the backend abstained/could not classify — ICL only).
    ``batched_with`` reports how many requests the micro-batcher coalesced
    this one with (observability for clients; absent when unknown).
    """
    payload: dict = {
        "format": SERVE_FORMAT,
        "backend": backend,
        "n": len(labels),
    }
    if batch:
        payload["labels"] = [None if l is None else int(l) for l in labels]
    else:
        payload["label"] = None if labels[0] is None else int(labels[0])
    if batched_with is not None:
        payload["batched_with"] = int(batched_with)
    return payload


def error_response(status: int, error: str, retry_after_s: Optional[float] = None) -> dict:
    """The error document (400/404/503/...) with optional retry advice."""
    payload: dict = {"format": SERVE_FORMAT, "status": int(status), "error": error}
    if retry_after_s is not None:
        payload["retry_after_s"] = round(float(retry_after_s), 3)
    return payload


def render_json(payload: dict) -> str:
    """Canonical JSON rendering: sorted keys, stable separators."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


__all__ = [
    "SERVE_FORMAT",
    "MAX_TRIPLES_PER_REQUEST",
    "SchemaError",
    "parse_triple",
    "triple_payload",
    "ClassifyRequest",
    "parse_classify_request",
    "classify_response",
    "error_response",
    "render_json",
]
