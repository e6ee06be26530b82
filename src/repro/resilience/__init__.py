"""repro.resilience — failure handling for the benchmark apparatus.

Three layers, composable and deterministic:

* :mod:`repro.resilience.retry` — :class:`RetryPolicy` (exponential backoff
  with seeded jitter) and :class:`CircuitBreaker`, both on injectable
  clocks, with attempts/retries/give-ups counted through :mod:`repro.obs`.
  :meth:`CircuitBreaker.call` is the one guarded-call primitive that serving
  and delivery share, and :class:`ShedError` the one refusal type;
* :mod:`repro.resilience.faults` — :class:`FaultyClient` + :class:`FaultPlan`
  inject timeouts, 429/500s, malformed bodies and corrupted completions at
  deterministic rates, so every retry path is testable offline;
* :mod:`repro.resilience.checkpoint` — :class:`Journal` (append-only,
  fsynced, torn-tail-tolerant) is the on-disk format of the completion
  cache (:class:`~repro.delivery.cache.ResponseCache`), which lets a killed
  ICL run resume without re-asking a completed delivery.

The spec grammar accepted by ``FaultPlan.parse`` (and the CLI ``--faults``
flag) is ``kind:rate[,kind:rate...]``, e.g. ``timeout:0.1,http500:0.05``.
"""

from repro.resilience.checkpoint import CheckpointAbort, Journal
from repro.resilience.faults import (
    ERROR_FAULTS,
    FAULT_KINDS,
    FaultClock,
    FaultPlan,
    FaultSpec,
    FaultyClient,
)
from repro.resilience.retry import (
    SYSTEM_CLOCK,
    CircuitBreaker,
    Clock,
    RetryError,
    RetryPolicy,
    ShedError,
    is_retryable,
)

__all__ = [
    # retry
    "Clock",
    "SYSTEM_CLOCK",
    "is_retryable",
    "RetryError",
    "ShedError",
    "CircuitBreaker",
    "RetryPolicy",
    # faults
    "FAULT_KINDS",
    "ERROR_FAULTS",
    "FaultSpec",
    "FaultPlan",
    "FaultyClient",
    "FaultClock",
    # checkpoint
    "CheckpointAbort",
    "Journal",
]
