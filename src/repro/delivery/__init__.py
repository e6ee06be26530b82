"""Concurrent, fault-tolerant delivery of chat completions.

The paper's ICL protocol issues thousands of completions (100 prompts x 5
repeats x several models); delivering them strictly sequentially means one
slow or flaky backend stalls the whole table.  :mod:`repro.delivery` is the
dispatch layer between the experiment loops and the chat clients:

* :class:`~repro.delivery.engine.DeliveryEngine` fans deliveries out over a
  thread pool across N named :class:`~repro.delivery.backends.DeliveryBackend`
  replicas (simulated profiles and HTTP endpoints alike), rotating the
  first healthy backend by request index;
* each backend sits behind the existing
  :class:`~repro.resilience.retry.RetryPolicy` +
  :class:`~repro.resilience.retry.CircuitBreaker` (one
  :meth:`~repro.resilience.retry.CircuitBreaker.call` per attempt) and a
  per-request :class:`~repro.delivery.deadline.DeadlineBudget` — all pure
  functions of an injectable :class:`~repro.resilience.retry.Clock`;
* deadline-exceeded and all-backends-shedding degrade into *typed*
  :class:`~repro.delivery.engine.DeliveryOutcome` statuses that feed the ICL
  loop's existing ``failed`` accounting;
* a content-addressed :class:`~repro.delivery.cache.ResponseCache` keyed by
  ``(model, prompt-hash, repeat)``, stored as
  :class:`~repro.resilience.checkpoint.Journal` segments under the artifact
  store's ``llm-response`` directory, means reruns never re-pay a
  completion, and is how a killed run resumes.

Determinism survives concurrency because delivery behaviour is pure in
``(prompt, repeat)``: clients expose
:meth:`~repro.llm.client.ChatClient.complete_indexed`, so whichever thread
or backend delivers produces the same completion a one-job engine
would have — the ``--jobs 8`` table is byte-identical to the ``--jobs 1`` one.
"""

from repro.delivery.backends import DeliveryBackend, LatencyClient, simulated_backends
from repro.delivery.cache import ResponseCache
from repro.delivery.deadline import DeadlineBudget, DeadlineExceeded
from repro.delivery.engine import (
    DeliveryConfig,
    DeliveryEngine,
    DeliveryError,
    DeliveryOutcome,
    DeliveryReport,
    DeliveryRequest,
)

__all__ = [
    "DeliveryBackend",
    "LatencyClient",
    "simulated_backends",
    "ResponseCache",
    "DeadlineBudget",
    "DeadlineExceeded",
    "DeliveryConfig",
    "DeliveryEngine",
    "DeliveryError",
    "DeliveryOutcome",
    "DeliveryReport",
    "DeliveryRequest",
]
