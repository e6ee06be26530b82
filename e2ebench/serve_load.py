"""The serve workload: a closed loop of curation requests over HTTP.

``connections`` callers each hold one keep-alive connection to the
in-process ``repro.serve`` server and send their next request only after
the previous reply arrived, as a curation script does.  The request
sequence mixes the ``rf``, ``ft`` and ``icl`` backends with 1-16 triples
per request and is a pure function of the seed and the candidate pool.
Rounds send it a slice at a time, cycling, so every request is sent.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import Lab, LabConfig
from repro.core.triples import LabeledTriple
from repro.serve import (
    CurationService,
    build_pool,
    parse_triple,
    render_json,
    start_server,
    triple_payload,
)

BACKENDS = ("rf", "ft", "icl")
MAX_TRIPLES = 16
#: Requests in the seeded sequence: p99 keeps at least 10 samples beyond it.
SEQUENCE_REQUESTS = 1_000
#: Requests per round, a quarter of the sequence.
ROUND_REQUESTS = 250
#: ``repro serve``'s defaults.
SERVICE_KWARGS = dict(max_batch=32, max_wait_s=0.002, max_queue=1024)
TASK = 1
TIMEOUT_S = 60


def request_sequence(
    seed: int, n_candidates: int, n: int = SEQUENCE_REQUESTS
) -> List[Tuple[str, Tuple[int, ...]]]:
    """``n`` requests as (backend, candidate indices), drawn from ``seed``."""
    rng = np.random.default_rng([seed, n_candidates])
    sequence = []
    for _ in range(n):
        backend = BACKENDS[int(rng.integers(0, len(BACKENDS)))]
        size = int(rng.integers(1, MAX_TRIPLES + 1))
        indices = tuple(int(i) for i in rng.integers(0, n_candidates, size=size))
        sequence.append((backend, indices))
    return sequence


@dataclass
class Served:
    """A running server and what it was built from."""

    lab: Lab
    curators: Dict[str, object]
    service: object
    server: object
    thread: threading.Thread
    port: int

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=TIMEOUT_S)
        self.service.stop()


def serve(service, lab: Lab, curators) -> Served:
    """Start ``service`` behind the HTTP server and wait until it answers."""
    server, thread, port = start_server(service)
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        response.read()
        if response.status != 200:
            raise RuntimeError(f"/healthz answered {response.status}")
    finally:
        connection.close()
    return Served(lab, curators, service, server, thread, port)


def set_up(config: LabConfig) -> Served:
    """Train the three curators in a fresh store-less Lab and serve them."""
    lab = Lab(config)
    curators = build_pool(lab, BACKENDS, task=TASK, seed=config.seed)
    service = CurationService.from_curators(curators, **SERVICE_KWARGS).start()
    return serve(service, lab, curators)


def candidates(lab: Lab) -> List[LabeledTriple]:
    return list(lab.ml_split(TASK).test)


def bodies(
    sequence, pool: Sequence[LabeledTriple]
) -> List[bytes]:
    return [
        render_json(
            {"backend": backend, "triples": [triple_payload(pool[i]) for i in indices]}
        ).encode("utf-8")
        for backend, indices in sequence
    ]


@dataclass
class Reply:
    latency_s: float
    status: int
    labels: Optional[List[Optional[int]]] = None
    batched_with: int = 0


@dataclass
class LoadRound:
    wall_s: float
    #: Index in the sequence of this round's first request.
    first: int
    replies: List[Reply] = field(default_factory=list)


def _caller(port: int, work: List[Tuple[int, bytes]], replies: List[Reply]) -> None:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        for index, body in work:
            started = time.perf_counter()
            try:
                connection.request(
                    "POST",
                    "/v1/classify",
                    body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                raw = response.read()
            except (OSError, http.client.HTTPException):
                # A broken connection is a failed request; reconnect.
                replies[index] = Reply(time.perf_counter() - started, 0)
                connection.close()
                continue
            elapsed = time.perf_counter() - started
            reply = Reply(elapsed, response.status)
            if response.status == 200:
                payload = json.loads(raw)
                reply.labels = payload["labels"]
                reply.batched_with = int(payload.get("batched_with", 0))
            replies[index] = reply
    finally:
        connection.close()


def drive(
    port: int, request_bodies: Sequence[bytes], connections: int, first: int = 0
) -> LoadRound:
    """Send ``ROUND_REQUESTS`` requests from ``first`` on, each once; the
    round's request ``i`` goes on connection ``i % connections``."""
    request_bodies = request_bodies[first : first + ROUND_REQUESTS]
    replies: List[Reply] = [None] * len(request_bodies)
    shares = [
        [(i, request_bodies[i]) for i in range(k, len(request_bodies), connections)]
        for k in range(connections)
    ]
    threads = [
        threading.Thread(target=_caller, args=(port, share, replies), daemon=True)
        for share in shares
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - started
    return LoadRound(wall_s, first, replies)


def expected_labels(curators, sequence, pool) -> List[List[Optional[int]]]:
    """Offline ``Curator.classify_batch`` on exactly the triples each request sent."""
    expected = []
    for backend, indices in sequence:
        triples = [parse_triple(triple_payload(pool[i])) for i in indices]
        expected.append(list(curators[backend].classify_batch(triples)))
    return expected


def tally(replies: Sequence[Reply], expected) -> Dict[str, int]:
    """Attempted and failed requests: non-200s, sheds and label mismatches fail.

    ``expected`` lines up with ``replies``: slice it to the round's requests.
    """
    counts = {"attempted": 0, "failed": 0, "sheds": 0, "errors": 0, "mismatches": 0}
    for reply, labels in zip(replies, expected):
        counts["attempted"] += 1
        if reply.status == 503:
            counts["sheds"] += 1
        elif reply.status != 200:
            counts["errors"] += 1
        elif reply.labels != labels:
            counts["mismatches"] += 1
        else:
            continue
        counts["failed"] += 1
    return counts


__all__ = [
    "BACKENDS",
    "SEQUENCE_REQUESTS",
    "ROUND_REQUESTS",
    "SERVICE_KWARGS",
    "request_sequence",
    "Served",
    "serve",
    "set_up",
    "candidates",
    "bodies",
    "Reply",
    "LoadRound",
    "drive",
    "expected_labels",
    "tally",
]
