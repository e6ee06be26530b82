"""The deterministic benchmark harness: warmup + repeat timing protocol.

A :class:`Benchmark` is a named workload — ``setup()`` builds the fixed
(seeded) inputs once, ``run(state)`` executes the measured hot path — and
:meth:`Benchmark.measure` times it under a :class:`Protocol`: a few warmup
executions (JIT-ish effects: allocator warm, caches primed, imports done)
followed by ``repeats`` timed executions on ``time.perf_counter``.

Robust statistics (:class:`Stats`: min / median / p99 / MAD) summarise the
samples; the *median* is what baselines compare, because it is insensitive
to the occasional scheduler hiccup that contaminates a mean.

Every run's return value is digested (:func:`repro.utils.rng.stable_digest`)
into a workload checksum.  All repeats must produce the same checksum —
that is the harness's built-in determinism check — and the checksum is
stored in baselines so :mod:`repro.perf.baseline` can detect that a
workload changed shape (numbers no longer comparable) rather than slowed.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from repro.obs.metrics import percentile
from repro.utils.rng import stable_digest


class PerfError(Exception):
    """A benchmark harness failure (bad protocol, broken workload, ...)."""


@dataclass(frozen=True)
class Protocol:
    """How many executions to discard (warmup) and to time (repeats)."""

    warmup: int = 2
    repeats: int = 7

    def __post_init__(self):
        if self.repeats < 1:
            raise PerfError(f"repeats must be >= 1, got {self.repeats}")
        if self.warmup < 0:
            raise PerfError(f"warmup must be >= 0, got {self.warmup}")

    def to_dict(self) -> dict:
        return {"warmup": self.warmup, "repeats": self.repeats}


#: The default full-fidelity protocol used by ``repro perf update``.
FULL = Protocol(warmup=2, repeats=7)

#: The abbreviated protocol behind ``--quick`` (CI smoke timing).
QUICK = Protocol(warmup=1, repeats=3)


@dataclass(frozen=True)
class Stats:
    """Robust summary of one benchmark's timed samples (seconds)."""

    samples: Tuple[float, ...]

    def __post_init__(self):
        if not self.samples:
            raise PerfError("Stats needs at least one sample")

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def min(self) -> float:
        return min(self.samples)

    @property
    def max(self) -> float:
        return max(self.samples)

    @property
    def mean(self) -> float:
        return statistics.fmean(self.samples)

    @property
    def median(self) -> float:
        return statistics.median(self.samples)

    @property
    def stdev(self) -> float:
        return statistics.stdev(self.samples) if self.n > 1 else 0.0

    @property
    def mad(self) -> float:
        """Median absolute deviation — the robust spread estimate."""
        med = self.median
        return statistics.median(abs(s - med) for s in self.samples)

    @property
    def p99(self) -> float:
        return percentile(self.samples, 99.0)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "min_s": round(self.min, 6),
            "max_s": round(self.max, 6),
            "mean_s": round(self.mean, 6),
            "median_s": round(self.median, 6),
            "stdev_s": round(self.stdev, 6),
            "mad_s": round(self.mad, 6),
            "p99_s": round(self.p99, 6),
            "samples_s": [round(s, 6) for s in self.samples],
        }


@dataclass(frozen=True)
class BenchResult:
    """Outcome of :meth:`Benchmark.measure`."""

    name: str
    stats: Stats
    protocol: Protocol
    checksum: str
    deterministic: bool
    units: Optional[float] = None

    @property
    def rate(self) -> Optional[float]:
        """Units per second at the median, when the workload declares units."""
        if self.units is None or self.stats.median <= 0:
            return None
        return self.units / self.stats.median

    def to_dict(self) -> dict:
        payload = {
            "name": self.name,
            "protocol": self.protocol.to_dict(),
            "stats": self.stats.to_dict(),
            "checksum": self.checksum,
            "deterministic": self.deterministic,
        }
        if self.units is not None:
            payload["units"] = self.units
            rate = self.rate
            payload["rate_per_s"] = None if rate is None else round(rate, 3)
        return payload


class Benchmark:
    """One measurable workload: seeded setup, timed run, optional teardown.

    ``run`` receives the state produced by ``setup`` (or ``None``) and
    returns a small, already-rounded summary value; the harness digests it
    into the workload checksum, so return something stable (counts, rounded
    losses) rather than raw float arrays.
    """

    def __init__(
        self,
        name: str,
        run: Callable[[object], object],
        setup: Optional[Callable[[], object]] = None,
        teardown: Optional[Callable[[object], None]] = None,
        units: Optional[float] = None,
    ):
        self.name = name
        self._run = run
        self._setup = setup
        self._teardown = teardown
        self.units = units

    def measure(self, protocol: Protocol = FULL) -> BenchResult:
        """Execute the warmup/repeat protocol and summarise the samples."""
        state = self._setup() if self._setup is not None else None
        checksums = []
        samples = []
        try:
            for _ in range(protocol.warmup):
                checksums.append(stable_digest(self._run(state)))
            for _ in range(protocol.repeats):
                started = time.perf_counter()
                value = self._run(state)
                samples.append(time.perf_counter() - started)
                checksums.append(stable_digest(value))
        finally:
            if self._teardown is not None:
                self._teardown(state)
        return BenchResult(
            name=self.name,
            stats=Stats(samples=tuple(samples)),
            protocol=protocol,
            checksum=checksums[-1],
            deterministic=len(set(checksums)) == 1,
            units=self.units,
        )


__all__ = [
    "PerfError",
    "Protocol",
    "FULL",
    "QUICK",
    "percentile",
    "Stats",
    "BenchResult",
    "Benchmark",
]
