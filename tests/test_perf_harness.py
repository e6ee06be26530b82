"""Tests for the benchmark timing harness (repro.perf.harness)."""

import pytest

from repro.perf.harness import (
    FULL,
    QUICK,
    Benchmark,
    PerfError,
    Protocol,
    Stats,
    percentile,
)


class TestProtocol:
    def test_defaults_are_full(self):
        assert Protocol() == FULL
        assert FULL.warmup == 2 and FULL.repeats == 7

    def test_quick_shrinks_protocol_only(self):
        assert QUICK.warmup < FULL.warmup
        assert QUICK.repeats < FULL.repeats
        assert QUICK.repeats >= 1

    def test_rejects_zero_repeats(self):
        with pytest.raises(PerfError, match="repeats"):
            Protocol(warmup=1, repeats=0)

    def test_rejects_negative_warmup(self):
        with pytest.raises(PerfError, match="warmup"):
            Protocol(warmup=-1, repeats=1)

    def test_zero_warmup_allowed(self):
        assert Protocol(warmup=0, repeats=1).warmup == 0

    def test_to_dict(self):
        assert Protocol(1, 3).to_dict() == {"warmup": 1, "repeats": 3}


class TestPercentile:
    def test_single_sample(self):
        assert percentile([4.2], 99) == 4.2

    def test_endpoints(self):
        samples = [3.0, 1.0, 2.0]
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 3.0

    def test_interpolates(self):
        assert percentile([0.0, 1.0], 50) == pytest.approx(0.5)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestStats:
    def test_robust_summary(self):
        stats = Stats(samples=(1.0, 2.0, 3.0, 4.0, 100.0))
        assert stats.n == 5
        assert stats.median == 3.0
        assert stats.min == 1.0
        assert stats.max == 100.0
        # the outlier moves the mean but not the median / MAD
        assert stats.mean > stats.median
        assert stats.mad == 1.0

    def test_single_sample_degenerates_gracefully(self):
        stats = Stats(samples=(0.5,))
        assert stats.stdev == 0.0
        assert stats.mad == 0.0
        assert stats.p99 == 0.5

    def test_empty_rejected(self):
        with pytest.raises(PerfError):
            Stats(samples=())

    def test_to_dict_rounds_to_microseconds(self):
        payload = Stats(samples=(0.1234567891,)).to_dict()
        assert payload["median_s"] == 0.123457
        assert payload["samples_s"] == [0.123457]
        assert payload["n"] == 1


class TestBenchmark:
    def test_measure_runs_protocol(self):
        calls = []

        bench = Benchmark("toy", run=lambda state: calls.append(1) or 7)
        result = bench.measure(Protocol(warmup=2, repeats=3))
        assert len(calls) == 5  # warmup + repeats
        assert result.stats.n == 3
        assert result.deterministic is True
        assert result.name == "toy"

    def test_setup_once_teardown_once(self):
        events = []

        bench = Benchmark(
            "toy",
            run=lambda state: state["n"],
            setup=lambda: events.append("setup") or {"n": 1},
            teardown=lambda state: events.append("teardown"),
        )
        bench.measure(Protocol(warmup=1, repeats=4))
        assert events == ["setup", "teardown"]

    def test_teardown_runs_when_run_raises(self):
        events = []

        def boom(state):
            raise RuntimeError("workload broke")

        bench = Benchmark(
            "toy",
            run=boom,
            setup=lambda: {},
            teardown=lambda state: events.append("teardown"),
        )
        with pytest.raises(RuntimeError):
            bench.measure(Protocol(warmup=0, repeats=1))
        assert events == ["teardown"]

    def test_nondeterministic_workload_flagged(self):
        counter = iter(range(100))

        bench = Benchmark("drifty", run=lambda state: next(counter))
        result = bench.measure(Protocol(warmup=1, repeats=2))
        assert result.deterministic is False

    def test_rate_from_units(self):
        bench = Benchmark("toy", run=lambda state: 1, units=1000.0)
        result = bench.measure(Protocol(warmup=0, repeats=2))
        assert result.rate is not None and result.rate > 0
        assert result.to_dict()["units"] == 1000.0

    def test_to_dict_shape(self):
        result = Benchmark("toy", run=lambda state: 1).measure(
            Protocol(warmup=0, repeats=1)
        )
        payload = result.to_dict()
        assert set(payload) == {
            "name", "protocol", "stats", "checksum", "deterministic",
        }
        assert payload["checksum"]
