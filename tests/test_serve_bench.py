"""The serve bench harness: a real (small) run, its payload, and the
baseline round-trip the CI job depends on."""

import json

import pytest

from repro.core import Lab
from repro.perf import (
    Protocol,
    compare_exit_code,
    compare_result,
    load_baseline,
    parse_tolerance,
    write_baseline,
)
from repro.serve.bench import (
    SERVE_AREA,
    ServeWorkload,
    bench_lab_config,
    measure_serve,
    serve_payload,
)

SMALL = ServeWorkload(clients=12, requests=2, batch=3, backend="rf")


@pytest.fixture(scope="module")
def bench_outcome():
    """One real bench run shared by the schema/baseline assertions."""
    lab = Lab(bench_lab_config(SMALL.entities, SMALL.seed))
    result, serving = measure_serve(
        SMALL, protocol=Protocol(warmup=1, repeats=2), lab=lab
    )
    return result, serving, serve_payload(result, SMALL, serving)


class TestWorkload:
    def test_to_dict_round_trips_through_json(self):
        document = json.loads(json.dumps(SMALL.to_dict(), sort_keys=True))
        assert document["clients"] == 12
        assert document["backend"] == "rf"
        assert document["max_wait_ms"] == 2.0

    def test_defaults_meet_the_acceptance_floor(self):
        assert ServeWorkload().clients >= 200


class TestMeasureServe:
    def test_run_is_deterministic_and_lossless(self, bench_outcome):
        result, serving, _ = bench_outcome
        assert result.deterministic, "label histogram drifted across waves"
        assert serving["failures"] == 0
        assert serving["requests"] == SMALL.clients * SMALL.requests * 3

    def test_serving_section_has_the_headline_numbers(self, bench_outcome):
        _, serving, _ = bench_outcome
        assert serving["clients"] == 12
        assert serving["requests_per_wave"] == 24
        assert serving["waves"] == 3
        assert 0.0 <= serving["shed_rate"] <= 1.0
        assert serving["latency_p50_ms"] > 0
        assert serving["latency_p99_ms"] >= serving["latency_p50_ms"]
        assert serving["throughput_rps"] > 0

    def test_payload_is_schema_versioned(self, bench_outcome):
        _, _, payload = bench_outcome
        assert payload["format"] == "repro-bench-v1"
        assert payload["area"] == SERVE_AREA
        assert payload["name"] == "serve-rf"
        assert payload["workload"]["backend"] == "rf"
        assert payload["deterministic"] is True
        assert "environment" in payload
        assert set(payload["serving"]) >= {
            "latency_p50_ms",
            "latency_p99_ms",
            "throughput_rps",
            "shed_rate",
        }
        # The CI artifact is canonical JSON: it must survive a round trip.
        assert json.loads(json.dumps(payload, sort_keys=True)) == payload


class TestBaselineRoundTrip:
    def test_write_load_compare(self, bench_outcome, tmp_path):
        _, _, payload = bench_outcome
        path = write_baseline(payload, tmp_path)
        assert path.name == f"BENCH_{SERVE_AREA}.json"
        baseline = load_baseline(SERVE_AREA, tmp_path)
        comparison = compare_result(
            payload, baseline, tolerance=parse_tolerance("25%")
        )
        assert comparison.status in ("ok", "faster")
        assert compare_exit_code([comparison]) == 0

    def test_regression_detected_against_tampered_baseline(
        self, bench_outcome, tmp_path
    ):
        _, _, payload = bench_outcome
        slow = json.loads(json.dumps(payload))
        slow["stats"]["median_s"] = payload["stats"]["median_s"] / 10.0
        write_baseline(slow, tmp_path)
        comparison = compare_result(
            payload, load_baseline(SERVE_AREA, tmp_path),
            tolerance=parse_tolerance("25%"),
        )
        assert comparison.status == "regression"
        assert compare_exit_code([comparison]) == 1


class TestRetryAccounting:
    """503 retries honour Retry-After through the injected clock and are
    counted in the payload (outside the determinism checksum)."""

    def test_serving_section_reports_retries(self, bench_outcome):
        _, serving, payload = bench_outcome
        assert "retries" in serving
        assert serving["retries"] >= 0
        assert payload["serving"]["retries"] == serving["retries"]

    def test_run_request_counts_retries_and_sleeps_on_the_clock(self):
        from repro.resilience.faults import FaultClock
        from repro.serve.bench import _ClientOutcome, _run_request

        responses = []

        class FakeResponse:
            def __init__(self, status, payload, headers=None):
                self.status = status
                self._payload = payload
                self._headers = headers or {}

            def read(self):
                return json.dumps(self._payload).encode("utf-8")

            def getheader(self, name):
                return self._headers.get(name)

        class FakeConnection:
            def request(self, *args, **kwargs):
                pass

            def getresponse(self):
                return responses.pop(0)

        responses.extend(
            [
                FakeResponse(
                    503, {"error": "shed"}, headers={"Retry-After": "0.05"}
                ),
                FakeResponse(
                    503, {"error": "shed", "retry_after_s": 0.02}, headers={}
                ),
                # The body's precise value wins over the whole-second header.
                FakeResponse(
                    503,
                    {"error": "shed", "retry_after_s": 0.03},
                    headers={"Retry-After": "1"},
                ),
                FakeResponse(200, {"labels": [1, None]}),
            ]
        )
        clock = FaultClock()
        outcome = _ClientOutcome()
        _run_request(SMALL, FakeConnection(), [], outcome, clock)
        assert outcome.retries == 3
        assert outcome.sheds == 3
        assert outcome.failures == 0
        assert outcome.labels == [1, None]
        # Every wait went through the injected clock, honouring the hint.
        assert clock.sleeps == [
            pytest.approx(0.05), pytest.approx(0.02), pytest.approx(0.03)
        ]

    def test_retries_cap_out_as_a_failure(self):
        from repro.resilience.faults import FaultClock
        from repro.serve.bench import MAX_RETRIES, _ClientOutcome, _run_request

        class Always503Connection:
            class _Response:
                status = 503

                def read(self):
                    return b'{"error": "shed"}'

                def getheader(self, name):
                    return "0.01"

            def request(self, *args, **kwargs):
                pass

            def getresponse(self):
                return self._Response()

        clock = FaultClock()
        outcome = _ClientOutcome()
        _run_request(SMALL, Always503Connection(), [], outcome, clock)
        assert outcome.failures == 1
        assert outcome.retries == MAX_RETRIES
        assert len(clock.sleeps) == MAX_RETRIES
