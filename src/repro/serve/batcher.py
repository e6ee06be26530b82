"""Micro-batching: coalesce concurrent requests into one forward pass.

The supervised backends are vectorised — classifying 64 triples in one call
costs far less than 64 single-triple calls — but HTTP requests arrive one at
a time on independent threads.  The :class:`MicroBatcher` bridges the two: a
request thread :meth:`submit`\\ s its triples and blocks on an event; a
single worker thread coalesces everything waiting into one
``handler(triples)`` call and fans the labels back out per request.

Two knobs govern the trade-off, both expressed against an injectable
:class:`~repro.resilience.retry.Clock` so tests drive the policy on a fake
clock deterministically:

* ``max_batch`` — flush as soon as this many *triples* are waiting (the
  vectorisation sweet spot).
* ``max_wait_s`` — flush once the oldest waiting request has aged this much
  (the latency ceiling a lone request pays hoping for company).  ``0``
  disables coalescing: every request dispatches alone, immediately.

The queue is bounded: :meth:`submit` raises
:class:`~repro.resilience.retry.ShedError` (``reason="queue-full"``) instead
of queueing unboundedly, which the HTTP layer turns into an explicit 503 +
``Retry-After`` (load-shedding, not collapse).

The batching *policy* is a pure, non-blocking function of (queue, clock) —
:meth:`poll` — and the worker loop is a thin blocking shell around it, so
the policy is testable without threads or sleeps.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.triples import LabeledTriple
from repro.obs.trace import get_tracer, span
from repro.resilience.retry import Clock, SYSTEM_CLOCK, ShedError

#: Labels produced for one request's triples (None = backend abstained).
BatchHandler = Callable[[Sequence[LabeledTriple]], Sequence[Optional[int]]]


class BatchItem:
    """One submitted request: its triples, and a slot for the outcome."""

    __slots__ = ("triples", "enqueued_at", "result", "error", "batch_size", "_done")

    def __init__(self, triples: Tuple[LabeledTriple, ...], enqueued_at: float):
        self.triples = triples
        self.enqueued_at = enqueued_at
        self.result: Optional[List[Optional[int]]] = None
        self.error: Optional[BaseException] = None
        #: Total triples in the coalesced batch this item rode in.
        self.batch_size: Optional[int] = None
        self._done = threading.Event()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the batch containing this item was dispatched."""
        return self._done.wait(timeout)

    def resolve(
        self,
        result: Optional[List[Optional[int]]],
        error: Optional[BaseException],
        batch_size: int,
    ) -> None:
        self.result = result
        self.error = error
        self.batch_size = batch_size
        self._done.set()


class MicroBatcher:
    """Bounded queue + coalescing policy + optional worker thread."""

    def __init__(
        self,
        handler: BatchHandler,
        max_batch: int = 32,
        max_wait_s: float = 0.005,
        max_queue: int = 256,
        clock: Optional[Clock] = None,
        name: str = "batcher",
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.handler = handler
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.max_queue = max_queue
        self.clock = clock or SYSTEM_CLOCK
        self.name = name
        self._lock = threading.Condition()
        self._pending: List[BatchItem] = []
        self._stopped = False
        self._worker: Optional[threading.Thread] = None
        self._batches = 0
        self._items = 0
        self._triples = 0
        self._max_batch_seen = 0

    # -- submission -----------------------------------------------------------

    def submit(self, triples: Sequence[LabeledTriple]) -> BatchItem:
        """Enqueue one request; raises :class:`ShedError` when saturated."""
        item = BatchItem(tuple(triples), self.clock.monotonic())
        with self._lock:
            if self._stopped:
                raise RuntimeError(f"batcher {self.name!r} is stopped")
            if len(self._pending) >= self.max_queue:
                # A full queue usually clears within a couple of batch windows.
                raise ShedError(
                    f"batcher {self.name!r} queue is full "
                    f"({self.max_queue} requests waiting)",
                    reason="queue-full",
                    retry_after_s=max(2 * self.max_wait_s, 0.05),
                )
            self._pending.append(item)
            self._lock.notify()
        return item

    # -- the coalescing policy (non-blocking, fake-clock friendly) ------------

    def poll(self) -> List[BatchItem]:
        """Items ready to dispatch now, or ``[]`` if the policy says wait.

        Ready when coalescing is disabled (``max_wait_s == 0``), when at
        least ``max_batch`` triples are waiting, or when the oldest request
        has waited ``max_wait_s``.  Takes whole requests up to the triple
        budget — but always at least one, so a single over-budget request
        still dispatches (alone).
        """
        with self._lock:
            return self._take_ready_locked()

    def flush(self) -> List[BatchItem]:
        """Unconditionally take everything waiting (shutdown drain)."""
        with self._lock:
            taken, self._pending = self._pending, []
        return taken

    def _take_ready_locked(self) -> List[BatchItem]:
        if not self._pending:
            return []
        waiting = sum(len(item.triples) for item in self._pending)
        oldest_age = self.clock.monotonic() - self._pending[0].enqueued_at
        ready = (
            self.max_wait_s == 0
            or waiting >= self.max_batch
            or oldest_age >= self.max_wait_s
        )
        if not ready:
            return []
        taken: List[BatchItem] = []
        budget = 0
        while self._pending:
            nxt = self._pending[0]
            if taken and budget + len(nxt.triples) > self.max_batch:
                break
            taken.append(self._pending.pop(0))
            budget += len(nxt.triples)
        return taken

    def _wait_budget_locked(self) -> Optional[float]:
        """Seconds the worker may sleep before the oldest request ages out."""
        if not self._pending:
            return None
        oldest_age = self.clock.monotonic() - self._pending[0].enqueued_at
        return max(0.0, self.max_wait_s - oldest_age)

    # -- dispatch -------------------------------------------------------------

    def dispatch(self, batch: List[BatchItem]) -> None:
        """Run the handler over a coalesced batch and fan results back out."""
        if not batch:
            return
        merged: List[LabeledTriple] = []
        for item in batch:
            merged.extend(item.triples)
        try:
            with span(
                "serve.batch",
                batcher=self.name,
                requests=len(batch),
                triples=len(merged),
            ):
                labels = list(self.handler(merged))
            if len(labels) != len(merged):
                raise RuntimeError(
                    f"handler returned {len(labels)} labels "
                    f"for {len(merged)} triples"
                )
        except Exception as error:
            get_tracer().count("serve.batch_errors")
            for item in batch:
                item.resolve(None, error, len(merged))
            return
        offset = 0
        for item in batch:
            item.resolve(
                labels[offset : offset + len(item.triples)], None, len(merged)
            )
            offset += len(item.triples)
        with self._lock:
            self._batches += 1
            self._items += len(batch)
            self._triples += len(merged)
            self._max_batch_seen = max(self._max_batch_seen, len(merged))

    # -- worker thread --------------------------------------------------------

    def run_forever(self) -> None:
        """Worker loop: sleep until work is ready, dispatch, repeat."""
        while True:
            with self._lock:
                if self._stopped:
                    batch, self._pending = self._pending, []
                else:
                    batch = self._take_ready_locked()
                    if not batch:
                        self._lock.wait(timeout=self._wait_budget_locked())
                        continue
            if batch:
                self.dispatch(batch)
            elif self._is_stopped():
                return

    def _is_stopped(self) -> bool:
        with self._lock:
            return self._stopped and not self._pending

    def start(self) -> "MicroBatcher":
        if self._worker is not None:
            raise RuntimeError(f"batcher {self.name!r} already started")
        self._worker = threading.Thread(
            target=self.run_forever, name=f"microbatcher-{self.name}", daemon=True
        )
        self._worker.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Stop accepting work, drain what is queued, join the worker."""
        with self._lock:
            self._stopped = True
            self._lock.notify_all()
        if self._worker is not None:
            self._worker.join(timeout=timeout)
            self._worker = None

    # -- observability --------------------------------------------------------

    def snapshot(self) -> dict:
        with self._lock:
            pending = len(self._pending)
            batches, items, triples = self._batches, self._items, self._triples
            max_seen = self._max_batch_seen
        return {
            "pending": pending,
            "batches": batches,
            "requests": items,
            "triples": triples,
            "batch_size_max": max_seen,
            "batch_size_mean": round(triples / batches, 3) if batches else 0.0,
        }


__all__ = ["BatchHandler", "BatchItem", "MicroBatcher"]
