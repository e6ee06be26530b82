"""Deterministic fault injection for the chat-completion path.

The retry / checkpoint machinery must be testable offline, so instead of a
flaky network we inject faults: :class:`FaultyClient` wraps any
:class:`~repro.llm.client.ChatClient` and, per a :class:`FaultPlan`, turns
individual calls into timeouts, HTTP 429/500s, malformed JSON bodies, or
corrupted completions.  Decisions are drawn deterministically from
``(plan seed, prompt digest, repeat, attempt)``, so a faulty run is exactly
reproducible whatever order its deliveries run in.

The *error* fault kinds (``timeout``, ``http429``, ``http500``,
``malformed``) raise **before** consulting the wrapped client, so a delivery
that is retried to success consumes exactly one real completion — an ICL
table produced under an error-fault plan is byte-identical to the fault-free
table as long as retries outlast ``max_consecutive``.  The *corruption*
kinds (``garbage``, ``truncated``) consume a real completion and mangle it,
exercising the parser's graceful-degradation path instead.

:class:`FaultClock` is a virtual clock for the retry layer: ``sleep``
advances virtual time instantly, so backoff schedules are assertable and
fault-heavy test runs finish in milliseconds.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.llm.client import ChatClient, ChatClientError
from repro.obs.trace import get_tracer
from repro.utils.rng import derive_rng, stable_digest

#: Fault kinds accepted by the spec grammar, in documentation order.
FAULT_KINDS = ("timeout", "http429", "http500", "malformed", "garbage", "truncated")

#: Kinds that raise (and are retryable) rather than corrupt the completion.
ERROR_FAULTS = frozenset({"timeout", "http429", "http500", "malformed"})

_GARBAGE_COMPLETION = "<<<%$#@ injected garbage completion @#$%>>>"


@dataclass(frozen=True)
class FaultSpec:
    """One fault kind and its per-call injection rate."""

    kind: str
    rate: float

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; valid: {', '.join(FAULT_KINDS)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")


class FaultPlan:
    """A deterministic schedule of injected faults.

    ``draw_for(*labels)`` checks each spec in order against an rng derived
    from ``(seed, *labels)`` and returns the first matching kind (or
    ``None``).  ``max_consecutive`` bounds the faulted attempts of one
    delivery so that a retry policy with more attempts than that is
    guaranteed to get through — the invariant behind the
    byte-identical-under-faults benchmark check.
    """

    def __init__(
        self,
        specs: Sequence[FaultSpec],
        seed: int = 0,
        max_consecutive: int = 3,
    ):
        specs = list(specs)
        if not specs:
            raise ValueError("a fault plan needs at least one spec")
        if max_consecutive < 1:
            raise ValueError("max_consecutive must be >= 1")
        self.specs: List[FaultSpec] = specs
        self.seed = seed
        self.max_consecutive = max_consecutive

    @classmethod
    def parse(
        cls, text: str, seed: int = 0, max_consecutive: int = 3
    ) -> "FaultPlan":
        """Parse the CLI spec grammar ``kind:rate[,kind:rate...]``.

        Example: ``timeout:0.1,http500:0.05,malformed:0.02``.
        """
        specs = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            kind, sep, rate_text = part.partition(":")
            if not sep:
                raise ValueError(
                    f"bad fault spec {part!r}: expected kind:rate "
                    f"(e.g. timeout:0.1)"
                )
            try:
                rate = float(rate_text)
            except ValueError:
                raise ValueError(
                    f"bad fault rate {rate_text!r} in {part!r}"
                ) from None
            specs.append(FaultSpec(kind.strip().lower(), rate))
        if not specs:
            raise ValueError(f"empty fault spec {text!r}")
        return cls(specs, seed=seed, max_consecutive=max_consecutive)

    def draw_for(self, *labels: object) -> Optional[str]:
        """The fault kind injected for a draw keyed by ``labels``, or ``None``.

        The delivery engine interleaves calls unpredictably, so a global
        call index would make the fault schedule depend on the thread
        schedule.  Keying each draw on ``(prompt-digest, repeat, attempt)``
        keeps injection deterministic per *delivery*, whatever order
        deliveries run in.
        """
        rng = derive_rng(self.seed, "fault-plan-delivery", *labels)
        for spec in self.specs:
            if rng.random() < spec.rate:
                return spec.kind
        return None

    def describe(self) -> str:
        return ",".join(f"{s.kind}:{s.rate:g}" for s in self.specs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultPlan({self.describe()!r}, seed={self.seed})"


class FaultyClient(ChatClient):
    """Wrap a chat client and inject faults per a :class:`FaultPlan`.

    Error faults raise :class:`~repro.llm.client.ChatClientError` without
    touching the wrapped client; corruption faults consume a real completion
    and mangle it.  ``injected`` tallies injections by kind, ``calls`` the
    total calls (including the failed ones).  :meth:`complete` is the first
    delivery, ``complete_indexed(prompt, 0)``.
    """

    def __init__(self, inner: ChatClient, plan: FaultPlan):
        self.inner = inner
        self.plan = plan
        self.calls = 0
        self.injected: Dict[str, int] = {}
        self._lock = threading.Lock()
        #: Per-(prompt-digest, repeat) attempt counters.
        self._attempts: Dict[Tuple[str, int], int] = {}

    @property
    def name(self) -> str:
        return self.inner.name

    def complete(self, prompt: str) -> str:
        return self.complete_indexed(prompt, 0)

    def complete_indexed(
        self, prompt: str, repeat: int, *, timeout_s: Optional[float] = None
    ) -> str:
        """Fault injection keyed per delivery, safe under concurrency.

        Draws come from ``(prompt-digest, repeat, attempt)`` — not the
        global call counter — so the schedule is a pure function of the
        delivery, whatever thread interleaving ran it; ``max_consecutive``
        bounds faults *per delivery*, preserving the guarantee that a retry
        policy with more attempts always gets through.
        """
        delivery = (stable_digest(prompt), int(repeat))
        with self._lock:
            self.calls += 1
            attempt = self._attempts.get(delivery, 0)
            self._attempts[delivery] = attempt + 1
        kind = None
        if attempt < self.plan.max_consecutive:
            kind = self.plan.draw_for(delivery[0], delivery[1], attempt)
            if kind is not None:
                self._inject(kind)
        text = self.inner.complete_indexed(prompt, repeat, timeout_s=timeout_s)
        if kind == "truncated":
            return text[: max(1, len(text) // 2)]
        if kind == "garbage":
            return _GARBAGE_COMPLETION
        return text

    def _inject(self, kind: str) -> None:
        """Tally one injection; raise it if it is an error fault."""
        with self._lock:
            self.injected[kind] = self.injected.get(kind, 0) + 1
        get_tracer().count(f"faults.injected.{kind}")
        if kind == "timeout":
            raise ChatClientError(
                "injected fault: request timed out", retryable=True, kind="timeout"
            )
        if kind == "http429":
            raise ChatClientError(
                "injected fault: HTTP 429", status=429, retryable=True, kind="http"
            )
        if kind == "http500":
            raise ChatClientError(
                "injected fault: HTTP 500", status=500, retryable=True, kind="http"
            )
        if kind == "malformed":
            raise ChatClientError(
                "injected fault: malformed (truncated) JSON body",
                retryable=True,
                kind="malformed",
            )


class FaultClock:
    """Virtual clock: ``sleep`` advances time instantly and records waits."""

    def __init__(self, start: float = 0.0):
        self.now = float(start)
        self.sleeps: List[float] = []

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds

    def advance(self, seconds: float) -> None:
        """Move time forward without recording a sleep (breaker cool-downs)."""
        self.now += seconds


__all__ = [
    "FAULT_KINDS",
    "ERROR_FAULTS",
    "FaultSpec",
    "FaultPlan",
    "FaultyClient",
    "FaultClock",
]
