"""Fixture tests for the whole-program flow rules (FLOW001-004).

Same contract as ``test_statcheck_rules``: every rule gets a malicious
program proving it fires across a call boundary and a clean twin proving
it stays quiet — the flow layer's false-positive budget is zero too,
because a whole-program rule that cries wolf gets suppressed wholesale.
Programs are built in memory with :func:`program_from_sources`; the
shipped tree itself must flow clean at the bottom.
"""

import textwrap
import time

from repro.statcheck.flow import (
    FLOW_RULE_IDS,
    default_flow_rules,
    program_from_sources,
    run_flow_rules,
    select_flow_rules,
)


def flow_findings(sources, rules=None):
    program = program_from_sources(
        {name: textwrap.dedent(src) for name, src in sources.items()}
    )
    return run_flow_rules(program, rules)


def flow_rules_found(sources, rules=None):
    return [f.rule for f in flow_findings(sources, rules)]


class TestSeedProvenance:
    def test_literal_seed_across_call_boundary_fires(self):
        found = flow_findings(
            {
                "/fx/train.py": """
                from repro.utils.rng import derive_rng

                def fit(data):
                    return train(data, 42)

                def train(data, seed):
                    rng = derive_rng(seed, "train")
                    return rng
                """
            }
        )
        assert [f.rule for f in found] == ["FLOW001"]
        # Anchored at the literal's origin (the call in fit), not the sink.
        assert found[0].line == 5
        assert "derive_rng" in found[0].message

    def test_config_seed_across_call_boundary_is_clean(self):
        found = flow_rules_found(
            {
                "/fx/train.py": """
                from repro.utils.rng import derive_rng

                def fit(lab, data):
                    return train(data, lab.config.seed)

                def train(data, seed):
                    return derive_rng(seed, "train")
                """
            }
        )
        assert "FLOW001" not in found

    def test_named_seed_constant_is_a_sanctioned_pin(self):
        found = flow_rules_found(
            {
                "/fx/split.py": """
                from repro.utils.rng import derive_rng

                TRAIN_SPLIT_SEED = 3

                def split(rows):
                    return derive_rng(TRAIN_SPLIT_SEED, "split")
                """
            }
        )
        assert "FLOW001" not in found

    def test_unnamed_numeric_constant_fires(self):
        found = flow_findings(
            {
                "/fx/split.py": """
                from repro.utils.rng import derive_rng

                MAGIC = 7

                def split(rows):
                    return derive_rng(MAGIC, "split")
                """
            }
        )
        assert [f.rule for f in found] == ["FLOW001"]
        assert "_SEED" in found[0].message

    def test_seedless_default_rng_fires(self):
        found = flow_rules_found(
            {
                "/fx/noise.py": """
                import numpy as np

                def jitter(xs):
                    return np.random.default_rng().normal(size=len(xs))
                """
            }
        )
        assert found == ["FLOW001"]

    def test_duplicate_stream_same_seed_same_tags_fires(self):
        found = flow_findings(
            {
                "/fx/dup.py": """
                from repro.utils.rng import derive_rng

                class Sampler:
                    def __init__(self, seed):
                        self.seed = seed

                    def subsample(self):
                        return derive_rng(self.seed, "split")

                    def shuffle(self):
                        return derive_rng(self.seed, "split")
                """
            }
        )
        assert [f.rule for f in found] == ["FLOW001"]
        assert "duplicates" in found[0].message

    def test_distinct_tags_are_distinct_streams(self):
        found = flow_rules_found(
            {
                "/fx/dup.py": """
                from repro.utils.rng import derive_rng

                class Sampler:
                    def __init__(self, seed):
                        self.seed = seed

                    def subsample(self):
                        return derive_rng(self.seed, "subsample")

                    def shuffle(self):
                        return derive_rng(self.seed, "shuffle")
                """
            }
        )
        assert "FLOW001" not in found


class TestExceptionEscape:
    def test_typed_error_escaping_thread_target_fires(self):
        found = flow_findings(
            {
                "/fx/engine.py": """
                import threading

                class ChatClientError(Exception):
                    pass

                class Engine:
                    def start(self):
                        worker = threading.Thread(target=self._run)
                        worker.start()

                    def _run(self):
                        self._deliver()

                    def _deliver(self):
                        raise ChatClientError("boom")
                """
            }
        )
        assert [f.rule for f in found] == ["FLOW002"]
        assert "ChatClientError" in found[0].message

    def test_handled_at_the_boundary_is_clean(self):
        found = flow_rules_found(
            {
                "/fx/engine.py": """
                import threading

                class ChatClientError(Exception):
                    pass

                class Engine:
                    def start(self):
                        worker = threading.Thread(target=self._run)
                        worker.start()

                    def _run(self):
                        try:
                            self._deliver()
                        except ChatClientError:
                            self.failed = True

                    def _deliver(self):
                        raise ChatClientError("boom")
                """
            }
        )
        assert "FLOW002" not in found

    def test_request_handler_do_method_fires_and_handled_twin_not(self):
        bad = flow_rules_found(
            {
                "/fx/server.py": """
                from http.server import BaseHTTPRequestHandler

                class ShedError(Exception):
                    pass

                class Handler(BaseHTTPRequestHandler):
                    def do_POST(self):
                        self._admit()

                    def _admit(self):
                        raise ShedError()
                """
            }
        )
        assert bad == ["FLOW002"]
        good = flow_rules_found(
            {
                "/fx/server.py": """
                from http.server import BaseHTTPRequestHandler

                class ShedError(Exception):
                    pass

                class Handler(BaseHTTPRequestHandler):
                    def do_POST(self):
                        try:
                            self._admit()
                        except ShedError:
                            self.send_error(503)

                    def _admit(self):
                        raise ShedError()
                """
            }
        )
        assert "FLOW002" not in good

    def test_untracked_exception_types_are_ignored(self):
        found = flow_rules_found(
            {
                "/fx/engine.py": """
                import threading

                class Engine:
                    def start(self):
                        threading.Thread(target=self._run).start()

                    def _run(self):
                        raise ValueError("not a typed contract")
                """
            }
        )
        assert "FLOW002" not in found


class TestResourceLifecycle:
    def test_happy_path_only_close_fires(self):
        found = flow_findings(
            {
                "/fx/pool.py": """
                from concurrent.futures import ThreadPoolExecutor

                def run(jobs):
                    pool = ThreadPoolExecutor(4)
                    out = [pool.submit(job) for job in jobs]
                    pool.shutdown()
                    return [f.result() for f in out]
                """
            }
        )
        assert [f.rule for f in found] == ["FLOW003"]
        assert "happy path" in found[0].message

    def test_with_block_is_clean(self):
        found = flow_rules_found(
            {
                "/fx/pool.py": """
                from concurrent.futures import ThreadPoolExecutor

                def run(jobs):
                    with ThreadPoolExecutor(4) as pool:
                        return [f.result() for f in [pool.submit(j) for j in jobs]]
                """
            }
        )
        assert "FLOW003" not in found

    def test_finally_disposal_is_clean(self):
        found = flow_rules_found(
            {
                "/fx/pool.py": """
                from concurrent.futures import ThreadPoolExecutor

                def run(jobs):
                    pool = ThreadPoolExecutor(4)
                    try:
                        return [pool.submit(j).result() for j in jobs]
                    finally:
                        pool.shutdown()
                """
            }
        )
        assert "FLOW003" not in found

    def test_never_closed_local_fires(self):
        found = flow_findings(
            {
                "/fx/journal.py": """
                def read_header(path):
                    handle = open(path)
                    return handle.readline()
                """
            }
        )
        assert [f.rule for f in found] == ["FLOW003"]
        assert "never closed" in found[0].message

    def test_returned_handle_is_ownership_transfer(self):
        found = flow_rules_found(
            {
                "/fx/journal.py": """
                def open_journal(path):
                    handle = open(path)
                    return handle
                """
            }
        )
        assert "FLOW003" not in found

    def test_self_store_without_disposal_fires_with_close_clean(self):
        bad = flow_rules_found(
            {
                "/fx/journal.py": """
                class Journal:
                    def __init__(self, path):
                        self._handle = open(path, "a")
                """
            }
        )
        assert bad == ["FLOW003"]
        good = flow_rules_found(
            {
                "/fx/journal.py": """
                class Journal:
                    def __init__(self, path):
                        self._handle = open(path, "a")

                    def close(self):
                        self._handle.close()
                """
            }
        )
        assert "FLOW003" not in good


class TestLockedContract:
    def test_call_without_lock_fires(self):
        found = flow_findings(
            {
                "/fx/bucket.py": """
                import threading

                class Bucket:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._tokens = 0

                    def _refill_locked(self):
                        self._tokens += 1

                    def take(self):
                        self._refill_locked()
                        return self._tokens
                """
            }
        )
        assert [f.rule for f in found] == ["FLOW004"]
        assert "_refill_locked" in found[0].message

    def test_call_under_with_lock_is_clean(self):
        found = flow_rules_found(
            {
                "/fx/bucket.py": """
                import threading

                class Bucket:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._tokens = 0

                    def _refill_locked(self):
                        self._tokens += 1

                    def take(self):
                        with self._lock:
                            self._refill_locked()
                            return self._tokens
                """
            }
        )
        assert "FLOW004" not in found

    def test_locked_caller_propagates_the_contract(self):
        found = flow_rules_found(
            {
                "/fx/bucket.py": """
                import threading

                class Bucket:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._tokens = 0

                    def _refill_locked(self):
                        self._tokens += 1

                    def _cycle_locked(self):
                        self._refill_locked()

                    def take(self):
                        with self._lock:
                            self._cycle_locked()
                """
            }
        )
        assert "FLOW004" not in found

    def test_reacquire_inside_locked_body_fires(self):
        found = flow_findings(
            {
                "/fx/bucket.py": """
                import threading

                class Bucket:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._tokens = 0

                    def _refill_locked(self):
                        with self._lock:
                            self._tokens += 1

                    def take(self):
                        with self._lock:
                            self._refill_locked()
                """
            }
        )
        assert [f.rule for f in found] == ["FLOW004"]
        assert "deadlock" in found[0].message


class TestFlowRegistry:
    def test_flow_family_matches_flow_rule_ids(self):
        from repro.statcheck import FAMILIES

        assert tuple(FAMILIES["flow"]) == tuple(FLOW_RULE_IDS)

    def test_select_flow_rules_by_family_and_id(self):
        import pytest

        from repro.statcheck import StatcheckError

        assert {r.id for r in select_flow_rules(["flow"])} == set(FLOW_RULE_IDS)
        assert [r.id for r in select_flow_rules(["FLOW003"])] == ["FLOW003"]
        with pytest.raises(StatcheckError, match="unknown flow rule"):
            select_flow_rules(["DET001"])


class TestRealStageGraph:
    def test_shipped_tree_flows_clean_within_budget(self):
        from repro.statcheck.flow import build_program
        from repro.statcheck.engine import default_target, discover_files, make_context

        started = time.perf_counter()
        contexts = []
        for path in discover_files([default_target()]):
            contexts.append(make_context(path, path.read_text(encoding="utf-8")))
        program = build_program(contexts)
        findings = run_flow_rules(program, default_flow_rules())
        elapsed = time.perf_counter() - started
        assert findings == []
        assert elapsed < 30.0
