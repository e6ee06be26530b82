"""Curation-as-a-service: the online serving layer over trained paradigms.

The paper's paradigms answer "is this ChEBI triple plausible?" offline;
this package stands them up behind a stdlib HTTP API with the production
machinery real curation services need — micro-batching, circuit breakers,
bounded-queue load-shedding, and span/counter observability — all composed
from the platform's existing resilience and obs layers.  Each backend's
request path is one :meth:`~repro.resilience.retry.CircuitBreaker.call`,
and every refusal (open breaker, full queue) is one
:class:`~repro.resilience.retry.ShedError`, re-exported here.

Modules: :mod:`schemas` (wire format), :mod:`curator` (batch-invariant
paradigm adapters), :mod:`batcher` (request coalescing), :mod:`service`
(backends + shedding + stats), :mod:`server` (HTTP transport),
:mod:`bench` (the ``repro bench serve`` traffic harness).
"""

from repro.resilience.retry import ShedError
from repro.serve.batcher import BatchItem, MicroBatcher
from repro.serve.curator import (
    DEFAULT_BACKENDS,
    Curator,
    ICLCurator,
    ParadigmCurator,
    build_curator,
    build_pool,
)
from repro.serve.schemas import (
    SERVE_FORMAT,
    SchemaError,
    classify_response,
    parse_classify_request,
    parse_triple,
    render_json,
    triple_payload,
)
from repro.serve.server import CurationHTTPServer, start_server, stop_server
from repro.serve.service import Backend, CurationService, ServeStats

__all__ = [
    "SERVE_FORMAT",
    "DEFAULT_BACKENDS",
    "SchemaError",
    "ShedError",
    "BatchItem",
    "MicroBatcher",
    "Curator",
    "ParadigmCurator",
    "ICLCurator",
    "build_curator",
    "build_pool",
    "Backend",
    "ServeStats",
    "CurationService",
    "CurationHTTPServer",
    "start_server",
    "stop_server",
    "parse_triple",
    "triple_payload",
    "parse_classify_request",
    "classify_response",
    "render_json",
]
