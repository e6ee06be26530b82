"""Fast checks of the benchmark itself.

Run from the repository root::

    python3 -m pytest e2ebench -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import paper  # noqa: E402
import run  # noqa: E402
import serve_load  # noqa: E402
from tracing import Recorder, TimedService, timed_curators  # noqa: E402

from repro.serve import CurationService, parse_triple, triple_payload  # noqa: E402

CATALOG = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: The paper apparatus shrunk further, so a cold round takes ~2 s.
TINY = dict(
    n_chemical_entities=120,
    corpus_documents=12,
    corpus_sentences=6,
    embedding_epochs=1,
    glove_epochs=1,
    pretrain_sentences=60,
)


def tiny_config(seed, artifact_dir=None):
    return dataclasses.replace(
        paper.lab_config(seed), artifact_dir=artifact_dir, **TINY
    )


def test_generators_are_pure_functions_of_the_seed():
    assert paper.lab_config(5) == paper.lab_config(5)
    assert paper.lab_config(5) != paper.lab_config(6)
    first = serve_load.request_sequence(5, 40)
    assert first == serve_load.request_sequence(5, 40)
    assert first != serve_load.request_sequence(6, 40)
    assert len(first) == serve_load.SEQUENCE_REQUESTS
    assert serve_load.SEQUENCE_REQUESTS % serve_load.ROUND_REQUESTS == 0
    assert {backend for backend, _ in first} == set(serve_load.BACKENDS)
    assert all(1 <= len(indices) <= serve_load.MAX_TRIPLES for _, indices in first)
    assert all(0 <= i < 40 for _, indices in first for i in indices)


def test_tail_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(run.GateError):
        run.tail_percentile([0.001] * 999)
    samples = [i / 1000 for i in range(1000)]
    assert run.tail_percentile(samples) == pytest.approx(0.98901)


def test_sheds_errors_and_mismatches_count_as_failures():
    expected = [[1], [0, 1], [1], [0], [None]]
    replies = [
        serve_load.Reply(0.01, 200, [1]),
        serve_load.Reply(0.01, 200, [0, 0]),  # mismatch
        serve_load.Reply(0.01, 503),  # shed
        serve_load.Reply(0.01, 500),  # error
        serve_load.Reply(0.01, 200, [None]),
    ]
    counts = serve_load.tally(replies, expected)
    assert counts == {
        "attempted": 5,
        "failed": 3,
        "sheds": 1,
        "errors": 1,
        "mismatches": 1,
    }


def test_paper_timing_proxies_change_no_table(tmp_path, monkeypatch):
    # Replica latency moves no digest; 1 ms keeps the test fast.
    monkeypatch.setattr(paper, "LATENCY_S", 0.001)
    config = tiny_config(11)
    bare = paper.regenerate(
        dataclasses.replace(config, artifact_dir=str(tmp_path / "a")), 2
    )
    recorder = Recorder()
    traced = paper.regenerate(
        dataclasses.replace(config, artifact_dir=str(tmp_path / "a")), 2, recorder
    )
    cold_traced = paper.regenerate(
        dataclasses.replace(config, artifact_dir=str(tmp_path / "b")), 2, Recorder()
    )
    assert bare.digest == traced.digest == cold_traced.digest
    assert bare.table5_digest == paper.reference_table5(config)
    # The traced warm round read every stage artifact and completion.
    assert recorder.counts["delivery.cache_hits"] == recorder.counts["delivery.cache_gets"]
    assert "pipeline.store_put" not in recorder.wall_s
    # Every paper layer BENCHMARK.json declares is one the runner derives,
    # from traced first runs (cold) and re-runs (warm).
    derived = {
        **run.paper_layers([cold_traced], prefix="cold."),
        **run.paper_layers([traced], prefix="warm."),
    }
    declared = {
        entry["name"] for entry in CATALOG["per_layer"]
        if entry["name"].startswith(("cold.", "warm."))
    }
    assert declared <= set(derived)
    assert derived["cold.embeddings.BioWordVec.train_s"] > 0
    assert derived["cold.delivery.completions"] > 0
    assert derived["warm.delivery.completions"] == 0


def test_serve_timing_proxies_change_no_label():
    served = serve_load.set_up(tiny_config(11))
    try:
        pool = serve_load.candidates(served.lab)
        sequence = serve_load.request_sequence(11, len(pool), n=30)
        expected = serve_load.expected_labels(served.curators, sequence, pool)
        curators = timed_curators(served.curators)
        service = TimedService(
            CurationService.from_curators(curators, **serve_load.SERVICE_KWARGS).start(),
            curators,
        )
        try:
            for (backend, indices), labels in zip(sequence, expected):
                triples = [parse_triple(triple_payload(pool[i])) for i in indices]
                assert service.classify(backend, triples)[1] == labels
        finally:
            service.stop()
        assert len(service.requests) == len(sequence)
        assert all(curator_s > 0 for _, _, curator_s in service.requests)
    finally:
        served.stop()
