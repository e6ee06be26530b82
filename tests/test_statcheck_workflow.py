"""Workflow-layer tests: suppressions, stale accounting, exit codes.

The engine tests cover "does a rule fire"; this file covers how findings
move through a development workflow — suppression comments,
stale-suppression accounting (exit 3), the flow pass inside the engine,
and the ``repro lint`` exit codes — plus the suppression-comment and
astutil edge cases (decorators, nested/async defs, lambdas, multi-rule
comments, continuation lines) those features lean on.
"""

import ast
import textwrap

from repro.cli import main
from repro.statcheck import STALE_RULE, lint_source, run_lint
from repro.statcheck.astutil import (
    build_alias_map,
    dotted_name,
    iter_functions,
    walk_with_lock_depth,
)
from repro.statcheck.suppress import (
    parse_suppression_comments,
    parse_suppressions,
)

DET006_SNIPPET = textwrap.dedent(
    """
    import json


    def dump(payload):
        return json.dumps(payload)
    """
)

FLOW003_SNIPPET = textwrap.dedent(
    """
    from concurrent.futures import ThreadPoolExecutor


    def run(jobs):
        pool = ThreadPoolExecutor(4)
        out = [pool.submit(job) for job in jobs]
        pool.shutdown()
        return [f.result() for f in out]
    """
)


class TestSuppressionParsing:
    def test_multi_rule_comment_covers_every_listed_rule(self):
        report = lint_source(
            textwrap.dedent(
                """
                import json
                import time


                def snapshot(payload):
                    # statcheck: ignore[DET003, DET006] - display-only debug dump
                    return time.time(), json.dumps(payload)
                """
            )
        )
        assert report.findings == []
        assert sorted(f.rule for f in report.suppressed) == ["DET003", "DET006"]

    def test_directive_must_start_the_comment(self):
        # Prose *mentioning* the directive (docs, commit references) is not
        # a suppression — the pattern is anchored at the comment start.
        comments = parse_suppression_comments(
            "x = 1  # see LINTING.md on statcheck: ignore[DET001]\n"
        )
        assert comments == []

    def test_standalone_comment_covers_itself_and_next_line(self):
        comments = parse_suppression_comments(
            "# statcheck: ignore[PUR002] - justification\nwith thing():\n    pass\n"
        )
        assert len(comments) == 1
        assert comments[0].covers == (1, 2)
        assert comments[0].rules == ("PUR002",)

    def test_trailing_comment_covers_only_its_line(self):
        suppressions = parse_suppressions(
            "x = 1  # statcheck: ignore[DET001]\ny = 2\n"
        )
        assert 1 in suppressions
        assert 2 not in suppressions

    def test_comment_inside_continuation_lines_is_positional(self):
        # A suppression buried on a continuation line covers that physical
        # line, not the statement's first line — findings anchor at the
        # statement start, so the standalone-above form is the one to use.
        source = textwrap.dedent(
            """
            total = sum(
                values  # statcheck: ignore[DET001] - wrong place
            )
            """
        )
        suppressions = parse_suppressions(source)
        assert 3 in suppressions
        assert 2 not in suppressions

    def test_suppression_inside_decorated_def(self):
        report = lint_source(
            textwrap.dedent(
                """
                import functools
                import random


                @functools.lru_cache(maxsize=None)
                def pick():
                    return random.random()  # statcheck: ignore[DET001] - fixture
                """
            )
        )
        assert report.findings == []
        assert [f.rule for f in report.suppressed] == ["DET001"]


class TestAstutilEdgeCases:
    def test_iter_functions_sees_nested_and_async_defs(self):
        tree = ast.parse(
            textwrap.dedent(
                """
                def outer():
                    def inner():
                        pass
                    return inner

                class Box:
                    async def poll(self):
                        pass
                """
            )
        )
        assert {fn.name for fn in iter_functions(tree)} == {
            "outer", "inner", "poll",
        }

    def test_lock_depth_tracks_into_lambda_bodies(self):
        tree = ast.parse(
            textwrap.dedent(
                """
                def f(self):
                    with self._lock:
                        g = lambda: self._items.clear()
                    return g
                """
            )
        )
        depths = {
            node.func.attr: depth
            for node, depth in walk_with_lock_depth(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        }
        assert depths["clear"] == 1

    def test_dotted_name_rejects_call_chains(self):
        expr = ast.parse("a.b().c").body[0].value
        assert dotted_name(expr) is None

    def test_function_level_imports_reach_the_alias_map(self):
        tree = ast.parse(
            textwrap.dedent(
                """
                def late():
                    import numpy as np
                    return np
                """
            )
        )
        assert build_alias_map(tree)["np"] == "numpy"


class TestStaleSuppressions:
    def test_unused_suppression_is_reported_stale(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "X = 1  # statcheck: ignore[DET001] - nothing here raises it\n"
        )
        report = run_lint([tmp_path])
        assert report.findings == []
        assert [f.rule for f in report.stale] == [STALE_RULE]
        assert "DET001" in report.stale[0].message
        assert report.ok  # stale never flips ok; the CLI maps it to exit 3

    def test_used_suppression_is_not_stale(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "import random\n\n\n"
            "def pick():\n"
            "    return random.random()  # statcheck: ignore[DET001] - fixture\n"
        )
        report = run_lint([tmp_path])
        assert report.findings == []
        assert report.stale == []

    def test_flow_suppression_counts_as_used(self, tmp_path):
        source = FLOW003_SNIPPET.replace(
            "pool = ThreadPoolExecutor(4)",
            "pool = ThreadPoolExecutor(4)  "
            "# statcheck: ignore[FLOW003] - fixture",
        )
        (tmp_path / "mod.py").write_text(source)
        report = run_lint([tmp_path])
        assert report.findings == []
        assert [f.rule for f in report.suppressed] == ["FLOW003"]
        assert report.stale == []

    def test_explicit_rule_subset_disables_stale_accounting(self, tmp_path):
        from repro.statcheck import select_rules

        (tmp_path / "mod.py").write_text(
            "X = 1  # statcheck: ignore[CONC002] - only DET rules run here\n"
        )
        report = run_lint([tmp_path], rules=select_rules(["determinism"]))
        assert report.stale == []


class TestFlowThroughEngine:
    def test_flow_rules_run_by_default(self, tmp_path):
        (tmp_path / "mod.py").write_text(FLOW003_SNIPPET)
        report = run_lint([tmp_path])
        assert [f.rule for f in report.findings] == ["FLOW003"]

    def test_flow_false_disables_the_pass(self, tmp_path):
        (tmp_path / "mod.py").write_text(FLOW003_SNIPPET)
        report = run_lint([tmp_path], flow=False)
        assert report.findings == []

    def test_explicit_rule_subset_skips_flow_unless_forced(self, tmp_path):
        from repro.statcheck import select_rules

        (tmp_path / "mod.py").write_text(FLOW003_SNIPPET)
        rules = select_rules(["determinism"])
        assert run_lint([tmp_path], rules=rules).findings == []
        forced = run_lint([tmp_path], rules=rules, flow=True)
        assert [f.rule for f in forced.findings] == ["FLOW003"]


class TestLintCli:
    def test_findings_exit_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.py").write_text(DET006_SNIPPET)
        assert main(["lint", "bad.py"]) == 1
        assert "DET006" in capsys.readouterr().out

    def test_stale_only_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mod.py").write_text(
            "X = 1  # statcheck: ignore[DET001] - stale on purpose\n"
        )
        assert main(["lint", "mod.py"]) == 3
        assert STALE_RULE in capsys.readouterr().out
