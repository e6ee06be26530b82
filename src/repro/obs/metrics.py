"""Cheap metric primitives: latency percentiles and memory sampling.

:func:`percentile` summarises latency samples for the serving stats and
the timing harness alike.  Memory sampling uses ``resource`` (always
available on POSIX) for peak RSS and, optionally, ``tracemalloc`` for the
python-allocator view attached to run manifests.
"""

from __future__ import annotations

import sys
from typing import Dict, Optional, Sequence

try:  # POSIX only; absent on some platforms (e.g. Windows)
    import resource
except ImportError:  # pragma: no cover - platform dependent
    resource = None  # type: ignore[assignment]

try:
    import tracemalloc
except ImportError:  # pragma: no cover - always present on CPython
    tracemalloc = None  # type: ignore[assignment]


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of ``samples`` (``q`` in [0, 100])."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def peak_rss_bytes() -> Optional[int]:
    """Peak resident set size of this process in bytes, if measurable.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; both are
    normalised to bytes.  Returns ``None`` where ``resource`` is missing.
    """
    if resource is None:  # pragma: no cover - platform dependent
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform dependent
        return int(peak)
    return int(peak) * 1024


def peak_rss_mb() -> Optional[float]:
    """Peak RSS in mebibytes (see :func:`peak_rss_bytes`)."""
    peak = peak_rss_bytes()
    return None if peak is None else peak / (1024.0 * 1024.0)


def tracemalloc_metrics() -> Dict[str, object]:
    """Python-allocation snapshot with an *explicit* unavailable state.

    When ``tracemalloc`` is not tracing (the default — tracing is costly)
    the byte fields are ``None`` and ``tracing`` is ``False``, so manifest
    readers can distinguish "not measured" from "measured zero" instead of
    the field silently disappearing.
    """
    if tracemalloc is None:  # pragma: no cover - always present on CPython
        return {
            "available": False,
            "tracing": False,
            "current_bytes": None,
            "peak_bytes": None,
        }
    if not tracemalloc.is_tracing():
        return {
            "available": True,
            "tracing": False,
            "current_bytes": None,
            "peak_bytes": None,
        }
    current, peak = tracemalloc.get_traced_memory()
    return {
        "available": True,
        "tracing": True,
        "current_bytes": int(current),
        "peak_bytes": int(peak),
    }


def memory_metrics() -> Dict[str, object]:
    """The standard memory snapshot attached to run manifests.

    Always reports both the OS-level peak RSS and the python-allocator
    view (:func:`tracemalloc_metrics`); the latter carries an explicit
    ``tracing: False`` fallback rather than omitting the key.
    """
    return {
        "peak_rss_bytes": peak_rss_bytes(),
        "peak_rss_mb": peak_rss_mb(),
        "tracemalloc": tracemalloc_metrics(),
    }


__all__ = [
    "percentile",
    "peak_rss_bytes",
    "peak_rss_mb",
    "tracemalloc_metrics",
    "memory_metrics",
]
