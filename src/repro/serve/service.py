"""The curation service: warm backends, shedding, and request accounting.

:class:`CurationService` is the transport-free core of ``repro serve``: it
owns one :class:`Backend` per paradigm adapter — curator + micro-batcher +
circuit breaker — and exposes exactly what the HTTP layer needs:
``classify``, ``healthz_payload`` and ``statz_payload``.  Tests exercise the
full request path (batching, breaker trips, queue-full shedding) against
this class directly; the HTTP server in :mod:`repro.serve.server` is a thin
adapter over it.

Load-shedding contract: a backend's request path is one
:meth:`~repro.resilience.retry.CircuitBreaker.call`.  When the backend
cannot take a request — its breaker is open after consecutive handler
failures (advising the remaining cool-down), or its bounded queue is full —
``classify`` raises :class:`~repro.resilience.retry.ShedError` carrying the
advisory ``retry_after_s`` that the HTTP layer turns into a 503 +
``Retry-After`` header.  Shed requests are counted (``serve.shed``) so a
saturated run is visible in manifests, never silent.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.triples import LabeledTriple
from repro.obs.trace import get_tracer, span
from repro.obs.metrics import percentile
from repro.resilience.retry import CircuitBreaker, Clock, ShedError
from repro.serve.batcher import MicroBatcher
from repro.serve.curator import Curator

#: How many recent request latencies the stats window keeps.
LATENCY_WINDOW = 4096

#: Upper bound on how long one request waits for its batch to come back.
DEFAULT_REQUEST_TIMEOUT_S = 30.0


class Backend:
    """One served paradigm: curator + micro-batcher + circuit breaker."""

    def __init__(
        self,
        curator: Curator,
        max_batch: int = 32,
        max_wait_s: float = 0.005,
        max_queue: int = 256,
        failure_threshold: int = 5,
        reset_timeout: float = 5.0,
        clock: Optional[Clock] = None,
        request_timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S,
    ):
        self.curator = curator
        self.name = curator.name
        self.request_timeout_s = request_timeout_s
        self.breaker = CircuitBreaker(
            failure_threshold=failure_threshold,
            reset_timeout=reset_timeout,
            clock=clock,
        )
        self.batcher = MicroBatcher(
            curator.classify_batch,
            max_batch=max_batch,
            max_wait_s=max_wait_s,
            max_queue=max_queue,
            clock=clock,
            name=self.name,
        )

    def start(self) -> "Backend":
        self.batcher.start()
        return self

    def stop(self) -> None:
        self.batcher.stop()

    def classify(
        self, triples: Sequence[LabeledTriple]
    ) -> Tuple[List[Optional[int]], int]:
        """Labels for one request plus the coalesced batch size it rode in.

        Raises :class:`ShedError` when the breaker is open or the queue is
        full, and re-raises the handler's failure (after feeding the
        breaker) when the batch itself failed.
        """

        def round_trip() -> Tuple[List[Optional[int]], int]:
            item = self.batcher.submit(triples)
            if not item.wait(self.request_timeout_s):
                raise TimeoutError(
                    f"backend {self.name!r} did not answer within "
                    f"{self.request_timeout_s}s"
                )
            if item.error is not None:
                raise item.error
            return list(item.result or []), int(item.batch_size or len(triples))

        return self.breaker.call(round_trip)


class ServeStats:
    """Thread-safe request counters + a sliding latency window."""

    def __init__(self, window: int = LATENCY_WINDOW):
        self._lock = threading.Lock()
        self._requests = 0
        self._ok = 0
        self._shed = 0
        self._errors = 0
        self._triples = 0
        self._latencies = deque(maxlen=window)

    def record(self, outcome: str, triples: int = 0, latency_s: float = 0.0):
        with self._lock:
            self._requests += 1
            self._triples += triples
            if outcome == "ok":
                self._ok += 1
                self._latencies.append(latency_s)
            elif outcome == "shed":
                self._shed += 1
            else:
                self._errors += 1

    def snapshot(self) -> dict:
        with self._lock:
            latencies = list(self._latencies)
            payload = {
                "requests": self._requests,
                "ok": self._ok,
                "shed": self._shed,
                "errors": self._errors,
                "triples": self._triples,
            }
        payload["shed_rate"] = (
            round(payload["shed"] / payload["requests"], 4)
            if payload["requests"]
            else 0.0
        )
        payload["latency_p50_ms"] = (
            round(percentile(latencies, 50.0) * 1000, 3) if latencies else None
        )
        payload["latency_p99_ms"] = (
            round(percentile(latencies, 99.0) * 1000, 3) if latencies else None
        )
        return payload


class CurationService:
    """The warm pool of backends behind ``/v1/classify``."""

    def __init__(self, pool: Dict[str, Backend]):
        if not pool:
            raise ValueError("service needs at least one backend")
        self.pool = dict(pool)
        self.default_backend = next(iter(self.pool))
        self.stats = ServeStats()
        self._started = False

    @classmethod
    def from_curators(
        cls, curators: Dict[str, Curator], **backend_kwargs
    ) -> "CurationService":
        return cls(
            {name: Backend(curator, **backend_kwargs)
             for name, curator in curators.items()}
        )

    def start(self) -> "CurationService":
        for backend in self.pool.values():
            backend.start()
        self._started = True
        return self

    def stop(self) -> None:
        for backend in self.pool.values():
            backend.stop()
        self._started = False

    def __enter__(self) -> "CurationService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def classify(
        self, backend_name: Optional[str], triples: Sequence[LabeledTriple]
    ) -> Tuple[str, List[Optional[int]], int]:
        """Route one request; returns (backend, labels, coalesced size)."""
        name = backend_name or self.default_backend
        backend = self.pool.get(name)
        if backend is None:
            raise KeyError(
                f"unknown backend {name!r}; serving: {sorted(self.pool)}"
            )
        tracer = get_tracer()
        tracer.count("serve.requests")
        started = time.perf_counter()
        with span("serve.request", backend=name, triples=len(triples)):
            try:
                labels, batch_size = backend.classify(triples)
            except ShedError:
                tracer.count("serve.shed")
                self.stats.record("shed")
                raise
            except Exception:
                tracer.count("serve.request_errors")
                self.stats.record("error")
                raise
        self.stats.record(
            "ok", triples=len(triples), latency_s=time.perf_counter() - started
        )
        return name, labels, batch_size

    # -- introspection payloads ----------------------------------------------

    def healthz_payload(self) -> dict:
        return {
            "status": "ok" if self._started else "stopped",
            "backends": sorted(self.pool),
            "default_backend": self.default_backend,
        }

    def statz_payload(self) -> dict:
        return {
            "totals": self.stats.snapshot(),
            "backends": {
                name: {
                    "breaker": backend.breaker.state,
                    "batcher": backend.batcher.snapshot(),
                }
                for name, backend in sorted(self.pool.items())
            },
        }


__all__ = [
    "DEFAULT_REQUEST_TIMEOUT_S",
    "LATENCY_WINDOW",
    "Backend",
    "ServeStats",
    "CurationService",
]
