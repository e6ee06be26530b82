"""Spans, counters and the thin timing proxies the benchmark hands to the program.

Nothing here changes what the program computes: every proxy forwards to the
real object and only reads the clock around the call.  Per-layer numbers
come from these spans alone, so the program under test carries no
benchmark code.

Self time: a span's duration minus the time its child spans (same thread)
cover.  Spans opened on the thread that created the :class:`Recorder`
partition that thread's wall time; spans on other threads (delivery engine
workers) are busy time and are kept apart, so they are never added to the
wall-time attribution.  Serving is attributed per request instead:
:class:`TimedService` and :class:`TimedCurator` time each request's service
call and the batch it rode in.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Sequence

from repro.llm.client import ChatClient
from repro.pipeline.store import ArtifactStore
from repro.serve.curator import Curator

_NULL = nullcontext()


class Recorder:
    """Per-thread span stacks folded into per-layer self times and counters."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._owner = threading.get_ident()
        self._local = threading.local()
        self._lock = threading.Lock()
        #: layer -> self seconds on the owner thread (partitions its wall).
        self.wall_s: Dict[str, float] = defaultdict(float)
        #: layer -> self seconds summed over every other thread.
        self.busy_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)

    def span(self, layer: str):
        return self._span(layer) if self.enabled else _NULL

    @contextmanager
    def _span(self, layer: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        frame = [0.0]  # seconds covered by child spans
        stack.append(frame)
        started = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - started
            stack.pop()
            if stack:
                stack[-1][0] += duration
            own = duration - frame[0]
            table = (
                self.wall_s if threading.get_ident() == self._owner else self.busy_s
            )
            with self._lock:
                table[layer] += own

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            with self._lock:
                self.counts[name] += amount

    def attributed_s(self) -> float:
        """Owner-thread seconds that some named layer claims."""
        return sum(self.wall_s.values())


OFF = Recorder(enabled=False)


# -- pipeline ---------------------------------------------------------------


class TimedStore(ArtifactStore):
    """The Lab's artifact store with its reads and writes timed.

    ``ArtifactStore.build_or_load`` reaches entries only through ``load``
    and ``put``, so overriding those two splits store I/O out of each
    stage's build time.
    """

    def __init__(self, root, recorder: Recorder):
        super().__init__(root)
        self.recorder = recorder

    def load(self, stage, key, inputs):
        with self.recorder.span("pipeline.store_load"):
            artifact = super().load(stage, key, inputs)
        self.recorder.count("pipeline.store_loads")
        return artifact

    def put(self, stage, key, artifact):
        with self.recorder.span("pipeline.store_put"):
            path = super().put(stage, key, artifact)
        self.recorder.count("pipeline.store_entries_written")
        self.recorder.count(
            "pipeline.store_put_bytes", self.entry_bytes(stage.name, key)
        )
        return path


# -- delivery ---------------------------------------------------------------


class DeliveryClock:
    """Per-delivery answer latency on the engine's worker, always on.

    ``DeliveryEngine.run`` looks a request up in the response cache before
    anything else, on the thread that then owns the request.  The answer is
    in hand on a cache hit when ``on_outcome`` fires, and on a miss when the
    engine starts writing the backend's reply to the cache.  The write
    itself is left out: two fsyncs whose tail follows the host disk, which
    ``wall_s``, ``rps`` and ``delivery.cache_put_s`` still count.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.latencies_s: List[float] = []
        self.run_s = 0.0

    def start(self) -> None:
        self._local.started = time.perf_counter()

    def stop(self) -> None:
        started = self._local.started
        if started is None:
            return  # already stopped before this delivery's cache write
        self._local.started = None
        elapsed = time.perf_counter() - started
        with self._lock:
            self.latencies_s.append(elapsed)


class TimedCache:
    """Forwards ``ResponseCache.get``/``put``; stamps each delivery's answer."""

    def __init__(self, cache, clock: DeliveryClock, recorder: Recorder):
        self.cache = cache
        self.clock = clock
        self.recorder = recorder

    def get(self, model, prompt, repeat):
        self.clock.start()
        with self.recorder.span("delivery.cache_get"):
            text = self.cache.get(model, prompt, repeat)
        self.recorder.count("delivery.cache_gets")
        if text is not None:
            self.recorder.count("delivery.cache_hits")
        return text

    def put(self, model, prompt, repeat, text):
        self.clock.stop()
        with self.recorder.span("delivery.cache_put"):
            self.cache.put(model, prompt, repeat, text)


class TimedEngine:
    """Forwards ``DeliveryEngine.run`` (all ``run_icl_experiment`` calls)."""

    def __init__(self, engine, clock: DeliveryClock, recorder: Recorder):
        self.engine = engine
        self.clock = clock
        self.recorder = recorder

    def run(self, requests, on_outcome=None, max_deliveries=None):
        def stamped(request, outcome):
            self.clock.stop()
            if on_outcome is not None:
                on_outcome(request, outcome)

        started = time.perf_counter()
        with self.recorder.span("delivery.engine_run"):
            report = self.engine.run(
                requests, on_outcome=stamped, max_deliveries=max_deliveries
            )
        self.clock.run_s += time.perf_counter() - started
        return report


class TimedClient(ChatClient):
    """A backend replica's chat client with each completion timed."""

    def __init__(self, inner: ChatClient, recorder: Recorder):
        self.inner = inner
        self.recorder = recorder

    @property
    def name(self) -> str:
        return self.inner.name

    def complete(self, prompt: str) -> str:
        return self.complete_indexed(prompt, 0)

    def complete_indexed(self, prompt, repeat, *, timeout_s=None):
        with self.recorder.span("delivery.backend"):
            text = self.inner.complete_indexed(prompt, repeat, timeout_s=timeout_s)
        self.recorder.count("delivery.completions")
        return text


# -- serving ----------------------------------------------------------------


class TimedCurator(Curator):
    """Times ``classify_batch`` and remembers which batch each triple rode in.

    The micro-batcher hands the curator the very triple objects each request
    submitted, so a request finds its batch's curator time by the identity
    of its first triple.
    """

    def __init__(self, inner: Curator):
        super().__init__(inner.name)
        self.inner = inner
        self._lock = threading.Lock()
        self._batch_s: Dict[int, float] = {}

    def classify_batch(self, triples):
        started = time.perf_counter()
        labels = self.inner.classify_batch(triples)
        elapsed = time.perf_counter() - started
        with self._lock:
            for triple in triples:
                self._batch_s[id(triple)] = elapsed
        return labels

    def batch_seconds(self, triples: Sequence) -> float:
        with self._lock:
            return self._batch_s.pop(id(triples[0]), 0.0)


class TimedService:
    """Forwards what the HTTP handler calls on a ``CurationService``.

    Records, per classified request, the service time and the curator time
    of the batch it rode in; the difference is its queue wait.
    """

    def __init__(self, service, curators: Dict[str, TimedCurator]):
        self.service = service
        self.curators = curators
        self._lock = threading.Lock()
        #: (backend, service seconds, curator seconds) per answered request.
        self.requests: List[tuple] = []

    def classify(self, backend_name, triples):
        started = time.perf_counter()
        backend, labels, batch_size = self.service.classify(backend_name, triples)
        elapsed = time.perf_counter() - started
        curator_s = self.curators[backend].batch_seconds(triples)
        with self._lock:
            self.requests.append((backend, elapsed, curator_s))
        return backend, labels, batch_size

    def healthz_payload(self):
        return self.service.healthz_payload()

    def statz_payload(self):
        return self.service.statz_payload()

    def stop(self):
        self.service.stop()


def timed_curators(curators: Dict[str, Curator]) -> Dict[str, TimedCurator]:
    return {name: TimedCurator(curator) for name, curator in curators.items()}


__all__ = [
    "OFF",
    "Recorder",
    "TimedStore",
    "DeliveryClock",
    "TimedCache",
    "TimedEngine",
    "TimedClient",
    "TimedCurator",
    "TimedService",
    "timed_curators",
]
