"""Shared benchmark fixtures.

One bench-scale Lab is built per session and shared by every table/figure
benchmark; expensive artefacts (embeddings, BERT, trained forests) are
cached inside it.  Rendered tables are written to ``benchmarks/results/``.

Scale: the paper's datasets hold ~620k triples and its forests train for
hours; this harness runs the identical pipelines on a ~2,000-entity
synthetic ontology with capped splits, so absolute scores are lower.  Every
benchmark prints the paper's reported value next to the measured one — the
reproduction target is the *shape* (orderings, gaps, crossovers).
"""

import functools
import os

import pytest

from repro import obs
from repro.core import Lab, LabConfig
from repro.obs.trace import env_enables_trace
from repro.perf import profiler

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

BENCH_LAB_CONFIG = LabConfig(
    n_chemical_entities=2_000,
    ontology_seed=7,
    corpus_documents=250,
    corpus_sentences=25,
    statement_coverage=0.55,
    embedding_dim=64,
    embedding_epochs=3,
    glove_epochs=10,
    wordpiece_vocab=900,
    bert_d_model=64,
    bert_layers=4,
    bert_heads=4,
    bert_d_ff=128,
    pretrain_epochs=3,
    pretrain_sentences=2_500,
    dataset_seed=42,
    max_train=3_000,
    max_test=800,
    rf_estimators=30,
    rf_max_depth=16,
    lstm_hidden=32,
    lstm_epochs=5,
    ft_epochs=6,
    ft_learning_rate=1e-3,
    seed=0,
)


@pytest.fixture(scope="session", autouse=True)
def _observability():
    """Collect spans for every benchmark run so each saved table ships with
    a ``*.manifest.json`` (stderr progress only when ``REPRO_TRACE`` asks).

    With ``REPRO_PROFILE=1`` the span profiler is installed too, so every
    manifest additionally carries ``hotspots.functions`` /
    ``hotspots.allocations`` next to the always-present
    ``hotspots.slowest_stages`` ranking."""
    obs.enable(verbose=env_enables_trace())
    profiler.configure_from_env()
    yield


def instrumented(label):
    """Decorate a benchmark ``compute`` so it runs inside a ``bench.<label>``
    span.

    The span makes the benchmark's own work a first-class stage in its
    manifest — ranked by ``repro trace --slowest``, and profiled
    (cProfile + tracemalloc) whenever ``REPRO_PROFILE=1``."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with profiler.profiled_span(f"bench.{label}", benchmark=label):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


@pytest.fixture(scope="session")
def lab():
    lab = Lab(BENCH_LAB_CONFIG)
    # Warm the shared apparatus up front (unless opted out) so every
    # benchmark's manifest carries the full stage span tree — ontology,
    # corpora, embedding training, BERT and one classifier fit — and so
    # per-benchmark timings measure the benchmark, not lazy Lab builds.
    # With $REPRO_ARTIFACTS (or LabConfig.artifact_dir) set, warming fills
    # the persistent artifact store, so a second benchmark run loads every
    # substrate instead of rebuilding it.
    if os.environ.get("REPRO_BENCH_NO_WARM", "") not in ("1", "true", "yes"):
        lab.warm()  # ontology + corpora + wordpiece + BERT + embeddings + splits
        lab.trained_forest(1, "W2V-Chem", "naive")
    return lab


@pytest.fixture(scope="session")
def results_dir():
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, iterations=1, rounds=1)


def icl_resilience():
    """Fault injection for an ICL benchmark, from the environment.

    Returns ``engine_for(client)``: ``None`` (``run_icl_experiment`` then
    builds its one-backend default), unless ``REPRO_FAULTS`` holds a fault
    spec (e.g. ``timeout:0.1,http500:0.05``), in which case it is a
    one-backend :class:`~repro.delivery.DeliveryEngine` over a
    deterministic :class:`~repro.resilience.faults.FaultyClient`, retried
    by a :class:`~repro.resilience.retry.RetryPolicy` on a virtual clock
    (backoff costs no wall time).

    With the variable unset this is a no-op, so plain benchmark runs are
    untouched; CI sets it to prove tables survive injected faults.
    """
    faults = os.environ.get("REPRO_FAULTS", "")

    def engine_for(client):
        if not faults:
            return None
        from repro.delivery import DeliveryBackend, DeliveryEngine
        from repro.resilience.faults import FaultClock, FaultPlan, FaultyClient
        from repro.resilience.retry import RetryPolicy

        plan = FaultPlan.parse(faults, seed=BENCH_LAB_CONFIG.seed)
        retry = RetryPolicy(seed=BENCH_LAB_CONFIG.seed, clock=FaultClock())
        return DeliveryEngine(
            [DeliveryBackend(client.name, FaultyClient(client, plan), retry=retry)]
        )

    return engine_for
