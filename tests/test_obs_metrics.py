"""Tests for the metric primitives (repro.obs.metrics)."""

import pytest

from repro.obs.metrics import (
    memory_metrics,
    peak_rss_bytes,
    peak_rss_mb,
    percentile,
)


class TestPercentile:
    def test_interpolates_between_ranks(self):
        assert percentile([3.0, 1.0, 2.0, 4.0], 50) == pytest.approx(2.5)

    def test_empty_raises_value_error(self):
        with pytest.raises(ValueError, match="no samples"):
            percentile([], 99)

    def test_harness_reexports_the_same_function(self):
        from repro.perf import harness

        assert harness.percentile is percentile


class TestMemory:
    def test_peak_rss_positive(self):
        peak = peak_rss_bytes()
        assert peak is not None and peak > 1024 * 1024  # > 1 MiB, surely

    def test_peak_rss_mb_consistent(self):
        in_bytes, in_mb = peak_rss_bytes(), peak_rss_mb()
        assert abs(in_mb - in_bytes / 1048576.0) < 1e-9

    def test_memory_metrics_keys(self):
        metrics = memory_metrics()
        assert set(metrics) == {"peak_rss_bytes", "peak_rss_mb", "tracemalloc"}

    def test_memory_metrics_tracemalloc_section(self):
        section = memory_metrics()["tracemalloc"]
        assert set(section) == {
            "available", "tracing", "current_bytes", "peak_bytes",
        }
        assert section["available"] is True

    def test_tracemalloc_metrics_fallback_when_not_tracing(self):
        import tracemalloc as tm

        from repro.obs.metrics import tracemalloc_metrics

        was_tracing = tm.is_tracing()
        if was_tracing:
            tm.stop()
        try:
            section = tracemalloc_metrics()
            assert section["available"] is True
            assert section["tracing"] is False
            assert section["current_bytes"] is None
            assert section["peak_bytes"] is None
        finally:
            if was_tracing:
                tm.start()

    def test_tracemalloc_metrics_reports_while_tracing(self):
        import tracemalloc as tm

        from repro.obs.metrics import tracemalloc_metrics

        was_tracing = tm.is_tracing()
        if not was_tracing:
            tm.start()
        try:
            keep = bytearray(256 * 1024)
            section = tracemalloc_metrics()
            assert section["tracing"] is True
            assert section["current_bytes"] is not None
            assert section["peak_bytes"] >= section["current_bytes"] > 0
            assert keep is not None
        finally:
            if not was_tracing:
                tm.stop()
