"""Synthetic-traffic benchmark for the curation server (``repro bench serve``).

Hundreds of concurrent clients hammer an in-process HTTP server and the
harness records what production cares about: request latency (p50/p99),
throughput, and how much load was shed.  The traffic itself is fully
deterministic — client *c*'s request *r* draws its triples from the
candidate pool with ``derive_rng(seed, "serve-bench", c, r)`` — so the
label histogram across all successful requests is a pure function of the
workload, and the :class:`~repro.perf.harness.Benchmark` determinism
checksum doubles as an end-to-end batch-invariance proof: whatever order
the scheduler interleaves clients, however the micro-batcher coalesces
them, every wave must classify every triple identically.

Timing rides the existing perf protocol (warmup waves then timed waves) and
the resulting payload is a ``repro-bench-v1`` document with one extra
``serving`` section, persisted as ``BENCH_serve.json`` next to the other
committed baselines.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.resilience.retry import SYSTEM_CLOCK, Clock

from repro.core.experiment import Lab, LabConfig
from repro.core.triples import LabeledTriple
from repro.obs.trace import get_tracer
from repro.perf.harness import FULL, Benchmark, BenchResult, Protocol, percentile
from repro.perf.baseline import result_payload
from repro.serve.curator import build_pool
from repro.serve.schemas import render_json, triple_payload
from repro.serve.server import start_server
from repro.serve.service import CurationService
from repro.utils.rng import derive_rng

#: Area name: the baseline lands in ``BENCH_serve.json``.
SERVE_AREA = "serve"

#: Give up on a request after this many 503-shed attempts.
MAX_RETRIES = 8

#: Never sleep longer than this between shed retries (keeps waves bounded).
RETRY_AFTER_CAP_S = 0.1


def bench_lab_config(entities: int = 120, seed: int = 0) -> LabConfig:
    """The micro lab the bench trains its backends on.

    Mirrors the test suite's micro configuration: every substrate is small
    enough that a cold warm-up (ontology through trained models) stays in
    seconds, while the served models remain real trained artifacts.
    """
    return LabConfig(
        n_chemical_entities=entities,
        corpus_documents=12,
        corpus_sentences=6,
        wordpiece_vocab=200,
        bert_d_model=16,
        bert_layers=1,
        bert_heads=2,
        bert_d_ff=32,
        bert_max_len=24,
        pretrain_epochs=1,
        pretrain_sentences=60,
        embedding_dim=8,
        embedding_epochs=1,
        glove_epochs=1,
        max_train=120,
        max_test=40,
        rf_estimators=4,
        rf_max_depth=4,
        lstm_epochs=1,
        ft_epochs=1,
        seed=seed,
    )


@dataclass(frozen=True)
class ServeWorkload:
    """Shape of the synthetic traffic one wave drives."""

    clients: int = 200
    requests: int = 3
    batch: int = 4
    backend: str = "rf"
    task: int = 1
    entities: int = 120
    seed: int = 0
    max_batch: int = 32
    max_wait_ms: float = 2.0
    queue_size: int = 1024

    def to_dict(self) -> dict:
        return {
            "clients": self.clients,
            "requests": self.requests,
            "batch": self.batch,
            "backend": self.backend,
            "task": self.task,
            "entities": self.entities,
            "seed": self.seed,
            "max_batch": self.max_batch,
            "max_wait_ms": self.max_wait_ms,
            "queue_size": self.queue_size,
        }


@dataclass
class _ClientOutcome:
    """What one synthetic client observed across its requests."""

    latencies_s: List[float] = field(default_factory=list)
    labels: List[Optional[int]] = field(default_factory=list)
    sheds: int = 0
    retries: int = 0
    failures: int = 0


def _client_requests(
    workload: ServeWorkload, candidates: Sequence[LabeledTriple], client: int
) -> List[List[LabeledTriple]]:
    """The deterministic request sequence for one client."""
    batches = []
    for request in range(workload.requests):
        rng = derive_rng(workload.seed, "serve-bench", client, request)
        indices = rng.integers(0, len(candidates), size=workload.batch)
        batches.append([candidates[int(i)] for i in indices])
    return batches


def _run_client(
    workload: ServeWorkload,
    candidates: Sequence[LabeledTriple],
    client: int,
    port: int,
    barrier: threading.Barrier,
    outcome: _ClientOutcome,
    clock: Clock,
) -> None:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        barrier.wait(timeout=60)
        for triples in _client_requests(workload, candidates, client):
            try:
                _run_request(workload, connection, triples, outcome, clock)
            except Exception:
                # A dead client must surface as an accounted failure, not a
                # silently shorter wave.
                get_tracer().count("serve.bench_client_errors")
                outcome.failures += 1
                return
    finally:
        connection.close()


def _run_request(
    workload: ServeWorkload,
    connection: http.client.HTTPConnection,
    triples: Sequence[LabeledTriple],
    outcome: _ClientOutcome,
    clock: Clock,
) -> None:
    """Send one request, retrying shed (503) responses with Retry-After.

    The shed-retry wait honours the server's hint — the body's precise
    ``retry_after_s``, else the whole-second ``Retry-After`` header — through
    the injected ``clock``, so tests drive the backoff with a virtual clock
    and the production path sleeps for real.  Every retried attempt is
    tallied in ``outcome.retries`` (reported, but outside the determinism
    checksum — retry counts depend on scheduler timing).
    """
    body = render_json(
        {
            "backend": workload.backend,
            "triples": [triple_payload(t) for t in triples],
        }
    ).encode("utf-8")
    for _ in range(MAX_RETRIES):
        started = time.perf_counter()
        connection.request(
            "POST",
            "/v1/classify",
            body=body,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        payload = json.loads(response.read().decode("utf-8"))
        elapsed = time.perf_counter() - started
        if response.status == 200:
            outcome.latencies_s.append(elapsed)
            outcome.labels.extend(payload["labels"])
            return
        if response.status == 503:
            outcome.sheds += 1
            outcome.retries += 1
            retry_after = float(
                payload.get("retry_after_s")
                or response.getheader("Retry-After")
                or 0.01
            )
            clock.sleep(min(retry_after, RETRY_AFTER_CAP_S))
            continue
        raise RuntimeError(f"unexpected status {response.status}: {payload}")
    outcome.failures += 1


def run_wave(
    service: CurationService,
    workload: ServeWorkload,
    candidates: Sequence[LabeledTriple],
    clock: Optional[Clock] = None,
) -> dict:
    """One traffic wave: boot HTTP, release all clients at once, aggregate.

    Returns a summary whose deterministic core (label histogram + request
    counts) becomes the benchmark checksum, plus the raw latencies that
    :func:`measure_serve` folds into the serving section.
    """
    clock = clock or SYSTEM_CLOCK
    server, thread, port = start_server(service)
    outcomes = [_ClientOutcome() for _ in range(workload.clients)]
    barrier = threading.Barrier(workload.clients)
    threads = [
        threading.Thread(
            target=_run_client,
            args=(
                workload,
                candidates,
                client,
                port,
                barrier,
                outcomes[client],
                clock,
            ),
            name=f"serve-bench-client-{client}",
            daemon=True,
        )
        for client in range(workload.clients)
    ]
    try:
        for worker in threads:
            worker.start()
        for worker in threads:
            worker.join(timeout=120)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    histogram: Dict[str, int] = {"0": 0, "1": 0, "null": 0}
    latencies: List[float] = []
    sheds = retries = failures = 0
    for outcome in outcomes:
        for label in outcome.labels:
            histogram["null" if label is None else str(label)] += 1
        latencies.extend(outcome.latencies_s)
        sheds += outcome.sheds
        retries += outcome.retries
        failures += outcome.failures
    return {
        "labels": histogram,
        "requests": workload.clients * workload.requests,
        "failures": failures,
        "sheds": sheds,
        "retries": retries,
        "latencies_s": latencies,
    }


def measure_serve(
    workload: ServeWorkload,
    protocol: Protocol = FULL,
    lab: Optional[Lab] = None,
) -> Tuple[BenchResult, dict]:
    """Train the backend, run warmup + timed waves, summarise.

    Returns the harness :class:`BenchResult` (wave wall time + determinism
    checksum over the label histogram) and the ``serving`` section
    aggregated over every wave's per-request latencies.
    """
    serving: Dict[str, object] = {}
    all_latencies: List[float] = []
    totals = {"requests": 0, "sheds": 0, "retries": 0, "failures": 0}

    def setup():
        bench_lab = lab or Lab(bench_lab_config(workload.entities, workload.seed))
        curators = build_pool(
            bench_lab, [workload.backend], task=workload.task, seed=workload.seed
        )
        service = CurationService.from_curators(
            curators,
            max_batch=workload.max_batch,
            max_wait_s=workload.max_wait_ms / 1000.0,
            max_queue=workload.queue_size,
        ).start()
        candidates = list(bench_lab.ml_split(workload.task).test)
        return service, candidates

    def run(state):
        service, candidates = state
        wave = run_wave(service, workload, candidates)
        all_latencies.extend(wave["latencies_s"])
        totals["requests"] += wave["requests"]
        totals["sheds"] += wave["sheds"]
        totals["retries"] += wave["retries"]
        totals["failures"] += wave["failures"]
        # Only the deterministic core feeds the checksum.
        return {
            "labels": wave["labels"],
            "requests": wave["requests"],
            "failures": wave["failures"],
        }

    def teardown(state):
        service, _ = state
        service.stop()

    result = Benchmark(
        f"{SERVE_AREA}-{workload.backend}",
        run,
        setup=setup,
        teardown=teardown,
        units=float(workload.clients * workload.requests),
    ).measure(protocol)

    waves = protocol.warmup + protocol.repeats
    wave_requests = workload.clients * workload.requests
    total_time_s = sum(result.stats.samples)
    serving = {
        "clients": workload.clients,
        "requests_per_wave": wave_requests,
        "requests": totals["requests"],
        "sheds": totals["sheds"],
        "retries": totals["retries"],
        "failures": totals["failures"],
        "shed_rate": (
            round(totals["sheds"] / (totals["requests"] + totals["sheds"]), 4)
            if totals["requests"]
            else 0.0
        ),
        "latency_p50_ms": (
            round(percentile(all_latencies, 50.0) * 1000, 3)
            if all_latencies
            else None
        ),
        "latency_p99_ms": (
            round(percentile(all_latencies, 99.0) * 1000, 3)
            if all_latencies
            else None
        ),
        "throughput_rps": (
            round(wave_requests * protocol.repeats / total_time_s, 1)
            if total_time_s > 0
            else None
        ),
        "waves": waves,
    }
    return result, serving


def serve_payload(
    result: BenchResult, workload: ServeWorkload, serving: dict
) -> dict:
    """The ``BENCH_serve.json`` document: bench-v1 plus a serving section."""
    payload = result_payload(result, workload.to_dict())
    payload["area"] = SERVE_AREA
    payload["serving"] = dict(serving)
    return payload


__all__ = [
    "SERVE_AREA",
    "MAX_RETRIES",
    "bench_lab_config",
    "ServeWorkload",
    "run_wave",
    "measure_serve",
    "serve_payload",
]
