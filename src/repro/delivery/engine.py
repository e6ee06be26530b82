"""The concurrent delivery engine: dispatch, degrade, cache.

:class:`DeliveryEngine` routes completions over N
:class:`~repro.delivery.backends.DeliveryBackend` replicas:

* :meth:`run` fans a batch of :class:`DeliveryRequest`\\ s out over a thread
  pool (``jobs`` workers), invoking a callback per finished delivery so the
  caller reports progress from any thread;
* each request goes to the first healthy backend in an order rotated by
  its index, so load spreads evenly and an open breaker is routed around;
* failures degrade into **typed outcomes** (``failed``, ``deadline``,
  ``shed``) rather than exceptions, feeding the ICL loop's existing
  ``failed`` accounting;
* successful completions are written to an optional
  :class:`~repro.delivery.cache.ResponseCache`; a warm rerun serves every
  delivery from the cache and rebuilds nothing, and a rerun after a kill
  delivers only what the cache lacks.

Concurrency cannot change results: backends answer through
``complete_indexed(prompt, repeat)`` and replicas are interchangeable, so
the outcome map is a pure function of the request set.  The ``--jobs 8``
table is byte-identical to the ``--jobs 1`` one.

Wall-clock calls are forbidden here by statcheck RES002 — every time read
and sleep goes through the injected :class:`~repro.resilience.retry.Clock`.
"""

from __future__ import annotations

import threading
from concurrent import futures
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.delivery.backends import DeliveryBackend
from repro.delivery.cache import ResponseCache
from repro.delivery.deadline import DeadlineBudget, DeadlineExceeded
from repro.llm.client import ChatClientError
from repro.obs.trace import get_tracer, span
from repro.resilience.retry import RetryError, ShedError
from repro.utils.rng import stable_digest

#: Typed delivery statuses.
OK, FAILED, DEADLINE, SHED = "ok", "failed", "deadline", "shed"


@dataclass(frozen=True)
class DeliveryConfig:
    """Engine knobs (all optional protections default off)."""

    #: Worker threads draining the request queue.
    jobs: int = 1
    #: Per-request deadline budget in seconds (None = unlimited).
    deadline_s: Optional[float] = None
    #: Unused: nothing in the engine is random.  Kept only because
    #: ``e2ebench/paper.py`` still passes it; drop it with that call site.
    seed: int = 0

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")


@dataclass(frozen=True)
class DeliveryRequest:
    """One completion to deliver: a keyed ``(prompt, repeat)`` pair."""

    key: str
    prompt: str
    repeat: int = 0
    #: Stable per-run position; drives backend rotation.
    index: int = 0


@dataclass(frozen=True)
class DeliveryOutcome:
    """The typed result of one delivery."""

    key: str
    status: str  # ok | failed | deadline | shed
    text: Optional[str] = None
    backend: Optional[str] = None
    cache_hit: bool = False
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == OK


@dataclass(frozen=True)
class DeliveryReport:
    """What one :meth:`DeliveryEngine.run` accomplished."""

    outcomes: Dict[str, DeliveryOutcome]
    #: Fresh (non-cached) deliveries attempted, successful or not.
    delivered: int = 0
    cache_hits: int = 0
    #: Requests never started because the delivery budget ran out.
    skipped: int = 0
    counters: Dict[str, int] = field(default_factory=dict)


class DeliveryError(RuntimeError):
    """A single delivery did not produce a completion (typed outcome)."""

    #: The outcome already absorbed the retry schedule; don't re-retry.
    retryable = False

    def __init__(self, outcome: DeliveryOutcome):
        super().__init__(
            f"delivery {outcome.key!r} ended {outcome.status}: "
            f"{outcome.error or 'no completion'}"
        )
        self.outcome = outcome


class _Budget:
    """Thread-safe fresh-delivery budget (the ``--max-deliveries`` kill)."""

    def __init__(self, limit: Optional[int]):
        self._lock = threading.Lock()
        self._left = limit

    def reserve(self) -> bool:
        if self._left is None:
            return True
        with self._lock:
            if self._left <= 0:
                return False
            self._left -= 1
            return True


class DeliveryEngine:
    """Dispatch completions over backends with typed degradation."""

    def __init__(
        self,
        backends: Sequence[DeliveryBackend],
        config: Optional[DeliveryConfig] = None,
        cache: Optional[ResponseCache] = None,
        model: Optional[str] = None,
    ):
        backends = list(backends)
        if not backends:
            raise ValueError("the engine needs at least one backend")
        names = [backend.name for backend in backends]
        if len(set(names)) != len(names):
            raise ValueError(f"backend names must be unique, got {names}")
        self.backends: List[DeliveryBackend] = backends
        self.config = config or DeliveryConfig()
        self.cache = cache
        #: Cache identity; replicas of one model share cache entries.
        self.model = model or backends[0].client.name
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}

    # -- bookkeeping ---------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        get_tracer().count(f"delivery.{name}", amount)
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def counters(self) -> Dict[str, int]:
        """Snapshot of the engine's own delivery counters."""
        with self._lock:
            return dict(self._counters)

    # -- routing policy (pure) -----------------------------------------------

    def _order(self, index: int) -> List[DeliveryBackend]:
        """Healthy backends, rotated by request index for even spread."""
        healthy = [backend for backend in self.backends if backend.healthy()]
        if not healthy:
            return []
        start = index % len(healthy)
        return healthy[start:] + healthy[:start]

    # -- single delivery -----------------------------------------------------

    def complete(self, prompt: str, repeat: int = 0) -> str:
        """Deliver one prompt; raises :class:`DeliveryError` unless ``ok``.

        :class:`~repro.core.paradigms.ICLParadigm` uses this: one request,
        key derived from content, index pinned to 0 so routing is a pure
        function of the prompt.
        """
        request = DeliveryRequest(
            key=stable_digest("delivery-single", stable_digest(prompt), repeat),
            prompt=prompt,
            repeat=repeat,
            index=0,
        )
        outcome = self.deliver(request)
        if not outcome.ok:
            raise DeliveryError(outcome)
        return outcome.text

    def deliver(self, request: DeliveryRequest) -> DeliveryOutcome:
        """Deliver one request end to end: cache, route, degrade."""
        cached = self._from_cache(request)
        if cached is not None:
            return cached
        return self._deliver_fresh(request)

    def _from_cache(self, request: DeliveryRequest) -> Optional[DeliveryOutcome]:
        if self.cache is None:
            return None
        text = self.cache.get(self.model, request.prompt, request.repeat)
        if text is None:
            return None
        self._count("cache_hit")
        return DeliveryOutcome(
            key=request.key, status=OK, text=text, cache_hit=True
        )

    def _deliver_fresh(self, request: DeliveryRequest) -> DeliveryOutcome:
        self._count("deliveries")
        deadline = (
            DeadlineBudget(self.config.deadline_s, self.backends[0].clock)
            if self.config.deadline_s is not None
            else None
        )
        order = self._order(request.index)
        if not order:
            self._count("shed")
            return DeliveryOutcome(
                key=request.key,
                status=SHED,
                error="no healthy backend (all circuit breakers open)",
            )
        try:
            text = order[0].deliver(request.prompt, request.repeat, deadline)
        except DeadlineExceeded as error:
            self._count("deadline")
            return DeliveryOutcome(
                key=request.key, status=DEADLINE, error=str(error)
            )
        except ShedError as error:
            self._count("shed")
            return DeliveryOutcome(key=request.key, status=SHED, error=str(error))
        except (ChatClientError, RetryError) as error:  # statcheck: ignore[RES001] - _count records delivery.failed
            self._count("failed")
            return DeliveryOutcome(
                key=request.key, status=FAILED, error=str(error)
            )
        if self.cache is not None:
            self.cache.put(self.model, request.prompt, request.repeat, text)
        self._count("completions")
        return DeliveryOutcome(
            key=request.key,
            status=OK,
            text=text,
            backend=order[0].name,
        )

    # -- batch dispatch ------------------------------------------------------

    def run(
        self,
        requests: Iterable[DeliveryRequest],
        on_outcome: Optional[
            Callable[[DeliveryRequest, DeliveryOutcome], None]
        ] = None,
        max_deliveries: Optional[int] = None,
    ) -> DeliveryReport:
        """Deliver a batch over the worker pool; returns a full report.

        ``on_outcome`` fires once per finished delivery *from the worker
        thread* (the ICL loop advances its progress display there).
        ``max_deliveries`` bounds *fresh* deliveries (cache hits are free, so
        a rerun after a kill spends its budget only on what the cache
        lacks); requests beyond the budget are reported as ``skipped`` and
        the caller raises its
        :class:`~repro.resilience.checkpoint.CheckpointAbort`.
        """
        requests = list(requests)
        budget = _Budget(max_deliveries)
        outcomes: Dict[str, DeliveryOutcome] = {}
        tallies = {"delivered": 0, "cache_hits": 0, "skipped": 0}
        tally_lock = threading.Lock()

        def work(request: DeliveryRequest) -> None:
            cached = self._from_cache(request)
            if cached is not None:
                outcome = cached
                with tally_lock:
                    tallies["cache_hits"] += 1
                    outcomes[request.key] = outcome
            else:
                if not budget.reserve():
                    with tally_lock:
                        tallies["skipped"] += 1
                    return
                outcome = self._deliver_fresh(request)
                with tally_lock:
                    tallies["delivered"] += 1
                    outcomes[request.key] = outcome
            if on_outcome is not None:
                on_outcome(request, outcome)

        with span(
            "delivery.run",
            jobs=self.config.jobs,
            backends=len(self.backends),
            requests=len(requests),
        ) as sp:
            if self.config.jobs == 1:
                for request in requests:
                    work(request)
            else:
                with futures.ThreadPoolExecutor(
                    max_workers=self.config.jobs,
                    thread_name_prefix="delivery-worker",
                ) as pool:
                    pending = [pool.submit(work, request) for request in requests]
                    for future in futures.as_completed(pending):
                        future.result()  # propagate unexpected worker crashes
            sp.annotate(
                delivered=tallies["delivered"],
                cache_hits=tallies["cache_hits"],
                skipped=tallies["skipped"],
            )
        return DeliveryReport(
            outcomes=outcomes,
            delivered=tallies["delivered"],
            cache_hits=tallies["cache_hits"],
            skipped=tallies["skipped"],
            counters=self.counters(),
        )

    # -- context manager ------------------------------------------------------
    # The engine holds no resources outside run(); ``with DeliveryEngine(...)``
    # stays valid for callers written that way (e2ebench/paper.py).

    def __enter__(self) -> "DeliveryEngine":
        return self

    def __exit__(self, *exc) -> bool:
        return False


__all__ = [
    "DeliveryConfig",
    "DeliveryRequest",
    "DeliveryOutcome",
    "DeliveryReport",
    "DeliveryError",
    "DeliveryEngine",
]
