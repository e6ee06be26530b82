"""The repo benchmark: paper-table regeneration (first run and re-run) and served curation.

Run from the repository root::

    python3 e2ebench/run.py --workload paper --seed 0 --seconds 45 --trace 0

Workloads (``BENCHMARK.json`` says why each exists):

* ``paper``: each round is a researcher's first run, Tables 3a, 4 and 5
  through a fresh ``Lab`` on an empty ``ArtifactStore`` (cold), then the
  re-run, the same tables through a fresh ``Lab`` and engine over the
  store the first run filled (warm).
* ``serve``: a closed loop of mixed ``rf``/``ft``/``icl`` requests over one
  keep-alive connection per CPU to the ``repro.serve`` HTTP server.

Rounds repeat until ``--seconds`` have passed and the bare rounds hold
1,000 latency samples, so p99 keeps 10 beyond it.  With
``--trace 0`` the last stdout line reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` bare and traced rounds alternate and
it reports the per-layer metrics, the traced minus bare difference being
the tracing overhead.  Every run checks its own outputs and exits 1 when a
correctness gate fails.

Load discipline: one process; Table 5 engine replicas and client
connections equal the number of usable CPUs, the engine runs one job;
BLAS/OpenMP pools are pinned to one thread.

On ``paper`` ``wall_s`` is a first run plus its re-run, ``rps`` the first
run's Table 5 ICL deliveries per second of ``DeliveryEngine.run``, and
``p50_ms``/``p99_ms`` their answer latency (cache lookup, then the
backend; the cache write is in ``rps`` and ``wall_s``).  On ``serve`` they
describe HTTP requests, socket to label, and ``wall_s`` is one round of
``serve_load.ROUND_REQUESTS``.  ``setup_s`` is the median of repeated
set-ups: the sequential Table 5 reference on paper, training the curators
and starting the server on serve.

Which end-to-end metric each layer should move, and where:

* ``wall_s``, ``rps``, ``p50_ms`` and ``p99_ms`` on paper, through the
  first run: the ``cold.*`` layers, above all ``cold.ontology.*``,
  ``cold.text.*``, ``cold.bert.*``, ``cold.embeddings.*``,
  ``cold.adaptation.*``, ``cold.pipeline.store_put*``,
  ``cold.delivery.cache_put_s`` and ``cold.delivery.backend_s``.
* ``wall_s`` on paper, through the re-run: the ``warm.*`` layers,
  ``warm.pipeline.store_load_s``, ``warm.pipeline.store_hit_ratio``,
  ``warm.delivery.cache_get_s`` and ``warm.delivery.cache_hit_ratio`` only
  there; RF fits and fine-tuning run in both.  A trainer speedup moves the
  ``cold.*`` substrate layers and leaves the re-run's store and cache
  reads alone.
* ``p50_ms``, ``p99_ms`` and ``rps`` on serve, nothing on paper:
  ``serve.*``.
"""

import os
import sys

# Pinned before numpy loads its BLAS.
PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("paper", "serve")
#: Each run sets up at least this many times, for at least this long;
#: ``setup_s`` is the median.
SETUPS = 3
SETUP_SECONDS = 4.0
#: Samples p99 needs to keep 10 beyond it.
TAIL_SAMPLES = 1_000
#: The seed whose table digest ``golden.json`` records.
GOLDEN_SEED = 0


class GateError(Exception):
    """A correctness gate failed."""


def tail_percentile(samples, q=99.0):
    """The ``q``-th percentile, refused unless 10 samples lie beyond it."""
    from repro.perf.harness import percentile

    if len(samples) * (100.0 - q) / 100.0 < 10:
        raise GateError(
            f"p{q:g} needs at least 10 samples beyond it; have {len(samples)} samples"
        )
    return percentile(samples, q)


def mean(values):
    return sum(values) / len(values) if values else 0.0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def usable_cpus():
    return len(os.sched_getaffinity(0))


def environment(args, workers):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": PINNED_THREADS,
        "machine": platform.machine(),
    }


def set_ups():
    """Indices for repeated set-ups, until ``SETUPS`` and ``SETUP_SECONDS``."""
    started = time.perf_counter()
    for index in itertools.count():
        if index >= SETUPS and time.perf_counter() - started >= SETUP_SECONDS:
            return
        yield index


def run_rounds(seconds, trace, one_round, samples):
    """Call ``one_round(traced)`` until ``seconds`` pass and the bare rounds
    hold enough latency ``samples`` for p99; bare/traced pairs when tracing."""
    bare, traced = [], []
    # Set-up's writes (and an earlier run's deletions) reach the disk now,
    # not in the middle of a timed round's fsyncs.
    os.sync()
    started = time.perf_counter()
    while True:
        bare.append(one_round(False))
        if trace:
            traced.append(one_round(True))
        enough = sum(samples(r) for r in bare) >= TAIL_SAMPLES
        if enough and time.perf_counter() - started >= seconds:
            return bare, traced


# -- paper workload ------------------------------------------------------------


@dataclasses.dataclass
class PaperRound:
    """A researcher's first run into an empty store, then the re-run over it."""

    cold: object
    warm: object

    @property
    def wall_s(self):
        return self.cold.wall_s + self.warm.wall_s

    @property
    def latencies_s(self):
        return self.cold.clock.latencies_s


def paper_workload(args, workers, work):
    import paper
    from tracing import OFF, Recorder

    config = paper.lab_config(args.seed)
    failures = []

    def check(ok, message):
        if not ok:
            failures.append(message)

    setups, references = [], []
    for _ in set_ups():
        started = time.perf_counter()
        references.append(paper.reference_table5(config))
        setups.append(time.perf_counter() - started)
    check(len(set(references)) == 1, "sequential Table 5 differs between set-ups")
    reference = references[0]
    stores = (work / f"store-{n}" for n in itertools.count())

    def one_round(traced):
        round_config = dataclasses.replace(config, artifact_dir=str(next(stores)))
        return PaperRound(
            *(
                paper.regenerate(round_config, workers, Recorder() if traced else OFF)
                for _ in ("cold", "warm")
            )
        )

    bare, traced = run_rounds(
        args.seconds, args.trace, one_round, lambda r: len(r.latencies_s)
    )
    runs = [run for r in bare + traced for run in (r.cold, r.warm)]
    expected = runs[0].digest
    if args.seed == GOLDEN_SEED:
        golden = json.loads((HERE / "golden.json").read_text())["paper_tables"]
        check(expected == golden, f"seed {GOLDEN_SEED} tables {expected} != golden.json")
    mismatched = [
        r for r in runs if r.digest != expected or r.table5_digest != reference
    ]
    deliveries_failed = sum(r.failed for r in runs)
    # Failed deliveries, plus one per gate or regeneration that went wrong.
    failed = deliveries_failed + len(failures) + len(mismatched)
    check(
        not mismatched,
        f"{len(mismatched)} regenerations differ from the first one's tables "
        "or from the sequential Table 5",
    )
    check(deliveries_failed == 0, f"{deliveries_failed} ICL deliveries failed")
    attempted = sum(r.attempted for r in runs)

    latencies = [s for r in bare for s in r.latencies_s]
    metrics = {
        "setup_s": median(setups),
        "wall_s": median([r.wall_s for r in bare]),
        "rps": median(
            [len(r.cold.clock.latencies_s) / r.cold.clock.run_s for r in bare]
        ),
        "p50_ms": 1000 * median(latencies),
        "p99_ms": 1000 * tail_percentile(latencies),
        "error_rate": failed / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "setups": len(setups),
        "tables_digest": expected,
        "table5_reference": reference,
        "rounds": len(bare),
        "deliveries": len(latencies),
        "warm_wall_s": median([r.warm.wall_s for r in bare]),
    }
    if args.trace:
        for phase in ("cold", "warm"):
            phase_runs = [getattr(r, phase) for r in traced]
            metrics.update(paper_layers(phase_runs, prefix=f"{phase}."))
            notes[f"{phase}_attributed_share"] = attributed_share(phase_runs)
        metrics.update(trace_overhead(bare, traced, lambda r: r.latencies_s))
        notes["traced_rounds"] = len(traced)
    return metrics, attempted, failed, failures, notes


def attributed_share(rounds):
    """Mean share of a regeneration's wall time that named layers claim."""
    return mean([r.recorder.attributed_s() / r.wall_s for r in rounds])


def paper_layers(rounds, prefix=""):
    """Per-layer means over traced regenerations, names led by ``prefix``."""

    def per_round(value):
        return mean([value(r.recorder) for r in rounds])

    def layer(name):
        return per_round(lambda rec: rec.wall_s.get(name, 0.0) + rec.busy_s.get(name, 0.0))

    def ratio(num, den):
        def value(rec):
            total = sum(rec.counts.get(n, 0.0) for n in den)
            return rec.counts.get(num, 0.0) / total if total else 0.0

        return per_round(value)

    layers = {}
    for recorded in {
        name for r in rounds for name in (*r.recorder.wall_s, *r.recorder.busy_s)
    }:
        layers[f"{recorded}_s"] = layer(recorded)
    for count in (
        "pipeline.store_put_bytes",
        "pipeline.store_entries_written",
        "delivery.completions",
    ):
        layers[count] = per_round(lambda rec, c=count: rec.counts.get(c, 0.0))
    layers["pipeline.store_hit_ratio"] = ratio(
        "pipeline.store_loads",
        ("pipeline.store_loads", "pipeline.store_entries_written"),
    )
    layers["delivery.cache_hit_ratio"] = ratio(
        "delivery.cache_hits", ("delivery.cache_gets",)
    )
    layers["unattributed_s"] = mean(
        [r.wall_s - r.recorder.attributed_s() for r in rounds]
    )
    return {prefix + name: value for name, value in layers.items()}


def trace_overhead(bare, traced, latencies):
    """Traced minus bare: median round wall time and p50 latency."""

    def p50(rounds):
        return median([s for r in rounds for s in latencies(r)])

    return {
        "trace.overhead_wall_s": median([r.wall_s for r in traced])
        - median([r.wall_s for r in bare]),
        "trace.overhead_p50_ms": 1000 * (p50(traced) - p50(bare)),
    }


# -- serve workload -------------------------------------------------------------


def serve_workload(args, workers, work):
    import paper
    import serve_load
    from tracing import TimedService, timed_curators

    from repro.serve import CurationService

    config = paper.lab_config(args.seed)
    setups, served = [], None
    for _ in set_ups():
        if served is not None:
            served.stop()
        started = time.perf_counter()
        served = serve_load.set_up(config)
        setups.append(time.perf_counter() - started)

    traced_served = None
    try:
        pool = serve_load.candidates(served.lab)
        sequence = serve_load.request_sequence(args.seed, len(pool))
        request_bodies = serve_load.bodies(sequence, pool)
        if args.trace:
            curators = timed_curators(served.curators)
            service = CurationService.from_curators(
                curators, **serve_load.SERVICE_KWARGS
            ).start()
            traced_served = serve_load.serve(
                TimedService(service, curators), served.lab, curators
            )

        # Bare and traced rounds each cycle through the whole sequence.
        firsts = {
            mode: itertools.cycle(
                range(0, len(request_bodies), serve_load.ROUND_REQUESTS)
            )
            for mode in (False, True)
        }

        def one_round(traced):
            port = traced_served.port if traced else served.port
            return serve_load.drive(
                port, request_bodies, workers, next(firsts[traced])
            )

        bare, traced = run_rounds(
            args.seconds, args.trace, one_round, lambda r: len(r.replies)
        )
    finally:
        served.stop()
        if traced_served is not None:
            traced_served.stop()

    expected = serve_load.expected_labels(served.curators, sequence, pool)
    totals = {}
    for result in bare + traced:
        round_expected = expected[result.first : result.first + len(result.replies)]
        for key, value in serve_load.tally(result.replies, round_expected).items():
            totals[key] = totals.get(key, 0) + value
    failures = [
        f"{totals[kind]} {kind}" for kind in ("sheds", "errors", "mismatches")
        if totals[kind]
    ]

    latencies = [reply.latency_s for r in bare for reply in r.replies]
    metrics = {
        "setup_s": median(setups),
        "wall_s": median([r.wall_s for r in bare]),
        "rps": median(
            [sum(1 for x in r.replies if x.status == 200) / r.wall_s for r in bare]
        ),
        "p50_ms": 1000 * median(latencies),
        "p99_ms": 1000 * tail_percentile(latencies),
        "error_rate": totals["failed"] / totals["attempted"],
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "setups": len(setups),
        "rounds": len(bare),
        "requests": len(latencies),
        "connections": workers,
    }
    if args.trace:
        metrics.update(
            serve_layers(bare, traced, traced_served.service, workers, totals)
        )
        notes["traced_rounds"] = len(traced)
    return metrics, totals["attempted"], totals["failed"], failures, notes


def serve_layers(bare, traced, service, connections, totals):
    answered = [x for r in traced for x in r.replies if x.status == 200]
    requests = service.requests
    service_ms = 1000 * mean([s for _, s, _ in requests])
    layers = {
        "serve.transport_ms": 1000 * mean([x.latency_s for x in answered]) - service_ms,
        "serve.service_ms": service_ms,
        "serve.queue_wait_ms": 1000 * mean([s - c for _, s, c in requests]),
        "serve.batch_size_mean": mean([x.batched_with for x in answered]),
        "serve.sheds": totals["sheds"],
        "serve.failures": totals["failed"],
        "unattributed_s": mean(
            [
                r.wall_s - sum(x.latency_s for x in r.replies) / connections
                for r in traced
            ]
        ),
    }
    layers.update(
        trace_overhead(bare, traced, lambda r: [x.latency_s for x in r.replies])
    )
    for backend in ("rf", "ft", "icl"):
        layers[f"serve.curator_ms.{backend}"] = 1000 * mean(
            [c for b, _, c in requests if b == backend]
        )
    return layers


# -- entry point ---------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    catalog = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".e2ebench_work" / str(os.getpid())
    work.mkdir(parents=True)
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = None
    workers = usable_cpus()
    try:
        runner = serve_workload if args.workload == "serve" else paper_workload
        metrics, attempted, failed, failures, notes = runner(args, workers, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
        os.sync()

    print("# env " + json.dumps(environment(args, workers), sort_keys=True))
    print("# notes " + json.dumps(notes, sort_keys=True))
    print(f"# error_rate {metrics['error_rate']:.6g} ratio ({failed}/{attempted})")
    # Every end-to-end metric is measured on every workload; a layer that a
    # workload never enters reads 0.
    values = {
        entry["name"]: float(
            metrics[entry["name"]] if not args.trace else metrics.get(entry["name"], 0.0)
        )
        for entry in catalog
    }
    for entry in catalog:
        name = entry["name"]
        print(f"# {name} {values[name]:.6g} {entry['unit']}")
    for failure in failures:
        print(f"# GATE FAILED: {failure}")
    correct = not failures and failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
                    for entry in catalog
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
