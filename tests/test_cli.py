"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_synthesize_defaults(self):
        args = build_parser().parse_args(["synthesize", "out.obo"])
        assert args.entities == 1_000
        assert args.seed == 0

    def test_evaluate_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "--paradigm", "nope"])

    def test_icl_variant_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["icl", "--variant", "9"])

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out

    def test_trace_requires_manifest_argument(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_icl_resilience_defaults(self):
        args = build_parser().parse_args(["icl"])
        assert args.cache is None
        assert args.faults is None
        assert args.max_deliveries is None
        assert args.output is None

    def test_cache_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])

    def test_cache_warm_defaults(self):
        args = build_parser().parse_args(["cache", "warm"])
        assert args.dir is None
        assert args.jobs is None
        assert args.executor == "thread"
        assert args.entities is None

    def test_cache_warm_executor_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["cache", "warm", "--executor", "telepathy"]
            )

    def test_cache_invalidate_requires_pattern(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "invalidate"])


class TestCommands:
    def test_synthesize_and_census_round_trip(self, tmp_path, capsys):
        obo_path = str(tmp_path / "tiny.obo")
        assert main(["synthesize", obo_path, "--entities", "120"]) == 0
        out = capsys.readouterr().out
        assert "entities" in out

        assert main(["census", obo_path]) == 0
        out = capsys.readouterr().out
        assert "is_a" in out
        assert "chemical_entity" in out

    def test_dataset_from_synthetic(self, capsys):
        assert main(["dataset", "--task", "2", "--entities", "120",
                     "--show", "2"]) == 0
        out = capsys.readouterr().out
        assert "task 2" in out
        assert "9:1 split" in out

    def test_dataset_from_obo(self, tmp_path, capsys):
        obo_path = str(tmp_path / "tiny.obo")
        main(["synthesize", obo_path, "--entities", "120"])
        capsys.readouterr()
        assert main(["dataset", "--obo", obo_path, "--task", "1"]) == 0
        assert "task 1" in capsys.readouterr().out

    def test_icl_with_simulated_model(self, capsys):
        code = main([
            "icl", "--task", "1", "--model", "gpt-4", "--variant", "1",
            "--entities", "300", "--max-train", "400", "--max-test", "150",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy" in out and "kappa" in out

    def test_evaluate_rf(self, capsys):
        code = main([
            "evaluate", "--task", "1", "--paradigm", "rf",
            "--embedding", "Random", "--adaptation", "naive",
            "--entities", "300", "--max-train", "300", "--max-test", "100",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "RF(Random)" in out


ICL_ARGS = [
    "icl", "--task", "1", "--model", "gpt-4", "--variant", "1",
    "--entities", "300", "--max-train", "400", "--max-test", "150",
]


class TestICLResilience:
    def test_bad_fault_spec_is_clean_error(self, capsys):
        assert main(ICL_ARGS + ["--faults", "explode:0.5"]) == 2
        captured = capsys.readouterr()
        assert "unknown fault kind" in captured.err
        assert "Traceback" not in captured.err

    def test_faulty_table_matches_fault_free(self, tmp_path, capsys):
        base = tmp_path / "base.txt"
        faulty = tmp_path / "faulty.txt"
        assert main(ICL_ARGS + ["--output", str(base)]) == 0
        assert main(ICL_ARGS + [
            "--output", str(faulty),
            "--faults", "timeout:0.2,http500:0.1,malformed:0.05",
        ]) == 0
        captured = capsys.readouterr()
        assert "injected faults" in captured.err
        assert base.read_text() == faulty.read_text()

    def test_kill_and_resume_round_trip(self, tmp_path, capsys):
        base = tmp_path / "base.txt"
        resumed = tmp_path / "resumed.txt"
        cache = tmp_path / "cache"
        assert main(ICL_ARGS + ["--output", str(base)]) == 0

        code = main(ICL_ARGS + [
            "--cache", str(cache), "--max-deliveries", "60",
        ])
        assert code == 3
        captured = capsys.readouterr()
        assert "rerun with the same --cache" in captured.err

        code = main(ICL_ARGS + [
            "--cache", str(cache), "--output", str(resumed),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "cache_hit=60" in captured.err
        assert "deliveries=440" in captured.err
        assert base.read_text() == resumed.read_text()


class TestTraceCommand:
    def test_missing_manifest_is_clean_error(self, tmp_path, capsys):
        code = main(["trace", str(tmp_path / "absent.manifest.json")])
        assert code == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "not found" in captured.err
        assert "Traceback" not in captured.err

    def test_corrupt_manifest_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "bad.manifest.json"
        path.write_text("{broken", encoding="utf-8")
        code = main(["trace", str(path)])
        assert code == 1
        captured = capsys.readouterr()
        assert "corrupt" in captured.err
        assert "Traceback" not in captured.err

    def test_wrong_format_file_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "other.json"
        path.write_text('{"format": "not-a-manifest"}', encoding="utf-8")
        assert main(["trace", str(path)]) == 1
        assert "not a repro-manifest" in capsys.readouterr().err

    def test_valid_manifest_prints_summary(self, tmp_path, capsys):
        from repro.obs.manifest import write_manifest

        path = tmp_path / "ok.manifest.json"
        write_manifest(path)
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "span tree" in out
        assert "per-stage self time" in out

    def test_resilience_section_rendered(self):
        from repro.cli import render_manifest

        manifest = {
            "counters": {
                "delivery.cache_hit": 60,
                "retry.retries": 7,
                "faults.injected.timeout": 4,
                "icl.experiment.deliveries_failed": 2,
                "unrelated.counter": 99,
            },
            "spans": [],
        }
        out = render_manifest(manifest)
        assert "resilience" in out
        assert "delivery.cache_hit: 60" in out
        assert "retry.retries: 7" in out
        assert "faults.injected.timeout: 4" in out
        assert "icl.experiment.deliveries_failed: 2" in out
        assert "unrelated.counter" not in out

    def test_no_resilience_section_when_uneventful(self):
        from repro.cli import render_manifest

        out = render_manifest({"counters": {"other": 1}, "spans": []})
        assert "resilience" not in out


def _populate_store(root):
    """Drop a couple of toy entries into a store at ``root``."""
    import json

    from repro.pipeline.stage import Stage
    from repro.pipeline.store import ArtifactStore

    def save(artifact, entry_dir):
        (entry_dir / "value.json").write_text(json.dumps(artifact))

    def load(entry_dir, inputs):
        return json.loads((entry_dir / "value.json").read_text())

    store = ArtifactStore(root)
    for name, key in (("ontology", "aaaa1111"), ("embedding-GloVe", "bbbb2222")):
        stage = Stage(
            name=name, build=lambda lab, inputs: None, save=save, load=load
        )
        store.put(stage, key, {"value": name})
    return store


class TestCacheCommands:
    def test_no_store_configured_is_clean_error(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_ARTIFACTS", raising=False)
        assert main(["cache", "ls"]) == 2
        captured = capsys.readouterr()
        assert "no artifact store" in captured.err
        assert "REPRO_ARTIFACTS" in captured.err

    def test_ls_lists_entries(self, tmp_path, capsys):
        _populate_store(tmp_path)
        assert main(["cache", "ls", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "ontology" in out
        assert "embedding-GloVe" in out
        assert "2 entries" in out

    def test_dir_falls_back_to_environment(self, tmp_path, monkeypatch, capsys):
        _populate_store(tmp_path)
        monkeypatch.setenv("REPRO_ARTIFACTS", str(tmp_path))
        assert main(["cache", "ls"]) == 0
        assert "2 entries" in capsys.readouterr().out

    def test_invalidate_by_pattern(self, tmp_path, capsys):
        store = _populate_store(tmp_path)
        assert main([
            "cache", "invalidate", "embedding-*", "--dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "invalidated embedding-GloVe" in out
        assert "removed 1 entries" in out
        assert not store.has("embedding-GloVe", "bbbb2222")
        assert store.has("ontology", "aaaa1111")

    def test_gc_reports_sweep(self, tmp_path, capsys):
        _populate_store(tmp_path)
        (tmp_path / "ontology" / ".tmp-abandoned").mkdir()
        assert main(["cache", "gc", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert ".tmp-abandoned" in out
        assert "gc: removed 1 paths" in out


class TestLintCommand:
    """Exit-code contract: 0 clean, 1 findings, 2 analyzer error."""

    def test_parser_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.paths == []
        assert args.format == "text"
        assert args.quick is False
        assert args.rules is None
        assert args.output is None

    def test_shipped_tree_exits_zero(self, capsys):
        assert main(["lint"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_quick_exits_zero_on_shipped_tree(self, capsys):
        assert main(["lint", "--quick"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_planted_determinism_violation_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        assert main(["lint", str(bad)]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_planted_purity_violation_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "stages.py"
        bad.write_text(
            "def _build_x(lab, inputs):\n"
            "    return open('/tmp/x').read()\n"
        )
        assert main(["lint", str(bad)]) == 1
        assert "PUR002" in capsys.readouterr().out

    def test_planted_concurrency_violation_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._items = {}\n"
            "    def put(self, k, v):\n"
            "        with self._lock:\n"
            "            self._items[k] = v\n"
            "    def reset(self):\n"
            "        self._items.clear()\n"
        )
        assert main(["lint", str(bad)]) == 1
        assert "CONC001" in capsys.readouterr().out

    def test_planted_contract_violation_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "def f(client):\n"
            "    try:\n"
            "        return client.complete('x')\n"
            "    except Exception:\n"
            "        return None\n"
        )
        assert main(["lint", str(bad)]) == 1
        assert "RES001" in capsys.readouterr().out

    def test_missing_target_exits_two(self, capsys):
        assert main(["lint", "/no/such/statcheck/target"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["lint", "--rules", "bogus"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_json_format_and_output_file(self, tmp_path, capsys):
        import json as json_mod

        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        out_file = tmp_path / "report.json"
        assert main([
            "lint", str(bad), "--format", "json", "--output", str(out_file),
        ]) == 1
        document = json_mod.loads(capsys.readouterr().out)
        assert document["format"] == "repro-statcheck-v1"
        assert document["findings"][0]["rule"] == "DET001"
        on_disk = json_mod.loads(out_file.read_text())
        assert on_disk == document

    def test_rules_filter_limits_findings(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random, time\nx = random.random()\ny = time.time()\n")
        assert main(["lint", str(bad), "--rules", "DET003"]) == 1
        out = capsys.readouterr().out
        assert "DET003" in out and "DET001" not in out

    def test_quick_detects_planted_cycle(self, tmp_path, capsys):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "a.py").write_text("from pkg.b import f\n")
        (pkg / "b.py").write_text("from pkg.a import g\n")
        assert main(["lint", "--quick", str(tmp_path)]) == 1
        assert "CYC001" in capsys.readouterr().out


class TestPerfParser:
    def test_profile_flag_exists(self):
        args = build_parser().parse_args(["--profile", "trace", "x.json"])
        assert args.profile is True


class TestTraceSlowest:
    @pytest.fixture()
    def manifest_path(self, tmp_path):
        from repro.obs import trace
        from repro.obs.manifest import write_manifest
        from repro.obs.trace import get_tracer, span

        tracer = get_tracer()
        was_enabled = tracer.enabled
        trace.reset()
        tracer.enabled = True
        try:
            with span("pipeline"):
                with span("fit"):
                    sum(i * i for i in range(50_000))
                with span("load"):
                    pass
            path = tmp_path / "run.manifest.json"
            write_manifest(path)
        finally:
            tracer.enabled = was_enabled
            trace.reset()
        return str(path)

    def test_slowest_renders_ranking(self, manifest_path, capsys):
        assert main(["trace", manifest_path, "--slowest", "2"]) == 0
        out = capsys.readouterr().out
        assert "slowest stages (top 2" in out
        assert "fit" in out

    def test_slowest_rejects_nonpositive(self, manifest_path, capsys):
        assert main(["trace", manifest_path, "--slowest", "0"]) == 2
        assert "positive" in capsys.readouterr().err

    def test_plain_trace_still_renders(self, manifest_path, capsys):
        assert main(["trace", manifest_path]) == 0
        assert "span tree" in capsys.readouterr().out

    def test_slowest_handles_manifest_without_hotspots(
        self, manifest_path, tmp_path, capsys
    ):
        # simulate a manifest written before the hotspots section existed
        import json as json_mod

        manifest = json_mod.loads(Path(manifest_path).read_text())
        manifest.pop("hotspots")
        legacy = tmp_path / "legacy.manifest.json"
        legacy.write_text(json_mod.dumps(manifest, sort_keys=True))
        assert main(["trace", str(legacy), "--slowest", "3"]) == 0
        assert "fit" in capsys.readouterr().out


class TestICLDeliveryEngine:
    def test_engine_flags_have_safe_defaults(self):
        args = build_parser().parse_args(["icl"])
        assert args.jobs == 1
        assert args.n_backends == 1
        assert args.deadline_ms is None
        assert args.cache is None

    def test_max_deliveries_without_cache_is_refused(
        self, monkeypatch, capsys
    ):
        # Without a cache a stopped run would pay for its deliveries and
        # keep none of them, so it is refused before the Lab is built.
        import repro.cli as cli

        calls = []
        monkeypatch.setattr(cli, "_small_lab", lambda args: calls.append(args))
        monkeypatch.setattr(
            cli, "run_icl_experiment", lambda *a, **k: calls.append(a)
        )
        assert main(ICL_ARGS + ["--max-deliveries", "10"]) == 2
        captured = capsys.readouterr()
        assert "--max-deliveries needs --cache" in captured.err
        assert "delivery engine" not in captured.err
        assert calls == []

    def test_concurrent_table_matches_sequential(self, tmp_path, capsys):
        base = tmp_path / "base.txt"
        engine = tmp_path / "engine.txt"
        assert main(ICL_ARGS + ["--output", str(base)]) == 0
        assert main(ICL_ARGS + [
            "--output", str(engine), "--jobs", "8", "--backends", "4",
        ]) == 0
        captured = capsys.readouterr()
        assert "delivery engine (4 backends, 8 jobs)" in captured.err
        assert base.read_text() == engine.read_text()

    def test_chaos_run_matches_sequential(self, tmp_path, capsys):
        base = tmp_path / "base.txt"
        chaos = tmp_path / "chaos.txt"
        assert main(ICL_ARGS + ["--output", str(base)]) == 0
        assert main(ICL_ARGS + [
            "--output", str(chaos), "--jobs", "8", "--backends", "4",
            "--faults", "timeout:0.1,http500:0.05,malformed:0.05",
        ]) == 0
        captured = capsys.readouterr()
        assert "injected faults" in captured.err
        assert base.read_text() == chaos.read_text()

    def test_warm_cache_rerun_rebuilds_nothing(self, tmp_path, capsys):
        cold = tmp_path / "cold.txt"
        warm = tmp_path / "warm.txt"
        cache = tmp_path / "responses"
        assert main(ICL_ARGS + [
            "--output", str(cold), "--jobs", "4", "--backends", "2",
            "--cache", str(cache),
        ]) == 0
        capsys.readouterr()
        assert main(ICL_ARGS + [
            "--output", str(warm), "--jobs", "4", "--backends", "2",
            "--cache", str(cache),
        ]) == 0
        captured = capsys.readouterr()
        assert "cache_hit" in captured.err
        assert "completions" not in captured.err
        assert cold.read_text() == warm.read_text()
