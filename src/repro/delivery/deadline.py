"""Per-request deadline budgets.

A delivery that retries for minutes is worse than one that fails fast: the
caller (a benchmark wave, a serving request) has long since moved on.  A
:class:`DeadlineBudget` is started when a delivery begins and consulted at
every expensive step — before each attempt and as the socket timeout of
the HTTP client — so the whole pipeline degrades into one typed
:class:`DeadlineExceeded` instead of burning the full retry schedule after
the budget is already gone.

Time comes from the injectable :class:`~repro.resilience.retry.Clock`, so
deadline policy is testable on a virtual clock without real waiting.
"""

from __future__ import annotations

from typing import Optional

from repro.resilience.retry import Clock, SYSTEM_CLOCK


class DeadlineExceeded(RuntimeError):
    """The per-request deadline budget ran out.

    Not retryable: more attempts cannot create more budget.  The engine
    maps it to the typed ``deadline`` outcome (scored as a failed
    delivery), never a crash.
    """

    retryable = False


class DeadlineBudget:
    """Countdown from ``budget_s`` seconds on an injectable clock.

    ``budget_s=None`` means unlimited: :meth:`remaining` is ``None`` and
    :meth:`check` never raises, so unlimited callers pay no branching.
    """

    def __init__(self, budget_s: Optional[float], clock: Optional[Clock] = None):
        if budget_s is not None and budget_s <= 0:
            raise ValueError("budget_s must be positive (or None for unlimited)")
        self.budget_s = budget_s
        self.clock = clock or SYSTEM_CLOCK
        self._started = self.clock.monotonic()

    def elapsed(self) -> float:
        return self.clock.monotonic() - self._started

    def remaining(self) -> Optional[float]:
        """Seconds left, clamped at 0; ``None`` when unlimited."""
        if self.budget_s is None:
            return None
        return max(0.0, self.budget_s - self.elapsed())

    def expired(self) -> bool:
        return self.budget_s is not None and self.remaining() <= 0.0

    def check(self, what: str = "delivery") -> None:
        """Raise :class:`DeadlineExceeded` when the budget is spent."""
        if self.expired():
            raise DeadlineExceeded(
                f"{what} exceeded its {self.budget_s:g}s deadline "
                f"(elapsed {self.elapsed():.3f}s)"
            )


__all__ = ["DeadlineBudget", "DeadlineExceeded"]
