"""Named delivery backends: one chat client plus its protection stack.

A :class:`DeliveryBackend` is the unit the engine dispatches over — a
:class:`~repro.llm.client.ChatClient` (a simulated profile replica or an
HTTP endpoint) wrapped in the protections a production path needs:

* an optional :class:`~repro.resilience.retry.RetryPolicy` retrying
  transient failures per attempt;
* an optional :class:`~repro.resilience.retry.CircuitBreaker` cutting off a
  persistently failing client (an open breaker marks the backend unhealthy,
  so the engine routes around it); every attempt goes through
  :meth:`~repro.resilience.retry.CircuitBreaker.call`;
* the request's :class:`~repro.delivery.deadline.DeadlineBudget`, checked
  before each attempt and passed on as the attempt's socket timeout.

This is the only place a chat client gets these protections: wrap an
:class:`~repro.llm.client.HTTPChatClient` in a :class:`DeliveryBackend` to
retry, break and bound it.  With neither retry nor breaker a delivery is a
direct call of the client.

Deliveries go through :meth:`~repro.llm.client.ChatClient.complete_indexed`
with the repeat index made explicit, so a backend's answer is pure in
``(prompt, repeat)`` and identical replicas are interchangeable — the
foundation of the engine's guarantee that ``--jobs N`` matches ``--jobs 1``.

:class:`LatencyClient` models per-call network/inference latency on the
injectable clock; it is what makes concurrency measurable for simulated
backends (pure-CPU simulators finish in microseconds, so a thread pool
under the GIL would show nothing).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.delivery.deadline import DeadlineBudget
from repro.llm.client import ChatClient
from repro.resilience.retry import (
    CircuitBreaker,
    Clock,
    RetryPolicy,
    SYSTEM_CLOCK,
    ShedError,
    is_retryable,
)
from repro.utils.rng import derive_rng, stable_digest


class LatencyClient(ChatClient):
    """Add deterministic per-call latency to a wrapped client.

    The delay for one call is ``latency_s`` scaled by a jitter factor in
    ``[1 - jitter, 1 + jitter]`` drawn from ``(seed, prompt-digest,
    repeat)`` — the same call always takes the same simulated time.  Sleeps
    go through the injectable clock, so fake-clock tests pay nothing.
    """

    def __init__(
        self,
        inner: ChatClient,
        latency_s: float,
        jitter: float = 0.0,
        seed: int = 0,
        clock: Optional[Clock] = None,
    ):
        if latency_s < 0:
            raise ValueError("latency_s must be >= 0")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        self.inner = inner
        self.latency_s = latency_s
        self.jitter = jitter
        self.seed = seed
        self.clock = clock or SYSTEM_CLOCK

    @property
    def name(self) -> str:
        return self.inner.name

    def delay_s(self, prompt: str, repeat: int) -> float:
        """The deterministic latency of one (prompt, repeat) call."""
        if self.latency_s == 0:
            return 0.0
        scale = 1.0
        if self.jitter:
            rng = derive_rng(
                self.seed, "delivery-latency", stable_digest(prompt), repeat
            )
            scale = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return self.latency_s * scale

    def complete(self, prompt: str) -> str:
        self.clock.sleep(self.delay_s(prompt, 0))
        return self.inner.complete(prompt)

    def complete_indexed(
        self, prompt: str, repeat: int, *, timeout_s: Optional[float] = None
    ) -> str:
        self.clock.sleep(self.delay_s(prompt, repeat))
        return self.inner.complete_indexed(prompt, repeat, timeout_s=timeout_s)


class DeliveryBackend:
    """One named backend: client + retry + breaker + deadline."""

    def __init__(
        self,
        name: str,
        client: ChatClient,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        clock: Optional[Clock] = None,
    ):
        if not name:
            raise ValueError("backend name must be non-empty")
        self.name = name
        self.client = client
        self.retry = retry
        self.breaker = breaker
        self.clock = clock or SYSTEM_CLOCK

    def healthy(self) -> bool:
        """Whether the engine should route new deliveries here.

        An open breaker (still inside its cool-down) is unhealthy; closed
        and half-open (due a probe) both accept work.
        """
        if self.breaker is None:
            return True
        try:
            self.breaker.before_call()
        except ShedError:
            return False
        return True

    def deliver(
        self,
        prompt: str,
        repeat: int,
        deadline: Optional[DeadlineBudget] = None,
    ) -> str:
        """One delivery through the full protection stack.

        Raises whatever the stack raises —
        :class:`~repro.llm.client.ChatClientError`,
        :class:`~repro.resilience.retry.RetryError`,
        :class:`~repro.resilience.retry.ShedError`, or
        :class:`~repro.delivery.deadline.DeadlineExceeded` — for the engine
        to map into a typed outcome.
        """

        def attempt() -> str:
            if deadline is not None:
                deadline.check(f"delivery via {self.name}")
            timeout_s = deadline.remaining() if deadline is not None else None
            return self.client.complete_indexed(
                prompt, repeat, timeout_s=timeout_s
            )

        def classify(error: BaseException) -> bool:
            # A spent budget makes every error final: retrying after the
            # deadline has already passed only burns the schedule.
            if deadline is not None and deadline.expired():
                return False
            return is_retryable(error)

        if self.retry is not None:
            return self.retry.call(
                attempt,
                classify=classify,
                breaker=self.breaker,
                key=(self.name, stable_digest(prompt), repeat),
            )
        if self.breaker is not None:
            return self.breaker.call(attempt)
        return attempt()


def simulated_backends(
    profile,
    truth,
    task_number: int,
    *,
    n_backends: int = 1,
    seed: int = 0,
    latency_s: float = 0.0,
    latency_jitter: float = 0.2,
    fault_plan_text: Optional[str] = None,
    fault_seed: int = 0,
    retry: Optional[RetryPolicy] = None,
    clock: Optional[Clock] = None,
) -> List["DeliveryBackend"]:
    """N interchangeable simulated replicas of one behaviour profile.

    Every replica shares ``(profile, truth, task, seed)``, so each answers
    any ``(prompt, repeat)`` identically — routing cannot change
    the table.  Faults (when ``fault_plan_text`` is set) and latency jitter
    are seeded per backend, so each replica misbehaves on its own schedule
    while the underlying completions stay shared.
    """
    from repro.llm.simulated import SimulatedChatModel
    from repro.resilience.faults import FaultPlan, FaultyClient

    if n_backends < 1:
        raise ValueError("n_backends must be >= 1")
    backends: List[DeliveryBackend] = []
    for index in range(n_backends):
        client: ChatClient = SimulatedChatModel(
            profile, truth, task_number, seed=seed
        )
        if fault_plan_text:
            plan = FaultPlan.parse(fault_plan_text, seed=fault_seed + index)
            client = FaultyClient(client, plan)
        if latency_s > 0:
            client = LatencyClient(
                client,
                latency_s,
                jitter=latency_jitter,
                seed=seed + index,
                clock=clock,
            )
        backends.append(
            DeliveryBackend(
                f"{profile.name}-{index}", client, retry=retry, clock=clock
            )
        )
    return backends


__all__ = ["DeliveryBackend", "LatencyClient", "simulated_backends"]
