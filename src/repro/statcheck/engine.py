"""The statcheck engine: parse once, run every rule, apply suppressions.

Pure stdlib (``ast`` + ``symtable`` + ``tokenize``): each target file is
read and parsed exactly once into a :class:`FileContext`; every selected
per-file rule then walks the shared tree, and the whole-program *flow*
rules (:mod:`repro.statcheck.flow`) run once over the full context set —
call graph, seed provenance, exception contracts, stage-graph
conformance.  Findings suppressed by ``# statcheck: ignore[RULE]``
comments are counted separately so the report can show both sides of the
ledger, and suppression comments that matched *nothing* are reported as
stale (:data:`STALE_RULE`).  The whole ``src/repro`` tree (~130 files)
lints — flow analysis included — in a couple of seconds.
"""

from __future__ import annotations

import ast
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.trace import get_tracer, span
from repro.statcheck.astutil import build_alias_map
from repro.statcheck.findings import Finding, StatcheckError
from repro.statcheck.rules import Rule, default_rules
from repro.statcheck.suppress import SuppressionComment, parse_suppression_comments

PathLike = Union[str, Path]

#: Engine-level rule id for files that do not parse.
SYNTAX_RULE = "SYN001"

#: Engine-level rule id for suppression comments that matched no finding.
STALE_RULE = "SUP001"


@dataclass
class FileContext:
    """Everything a rule needs to know about one source file."""

    path: Path
    rel: str
    module: str
    source: str
    tree: ast.Module
    aliases: Dict[str, str]


@dataclass
class LintReport:
    """Outcome of one lint run: findings, suppressions, and accounting."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    #: Stale suppression comments (:data:`STALE_RULE`) — hygiene, not
    #: correctness: they never fail a run on their own (exit code 3).
    stale: List[Finding] = field(default_factory=list)
    n_files: int = 0
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def inventory(self) -> Dict[str, Dict[str, int]]:
        """Findings per rule per module — the drift signal manifests carry."""
        table: Dict[str, Dict[str, int]] = {}
        for finding in self.findings:
            per_module = table.setdefault(finding.rule, {})
            per_module[finding.path] = per_module.get(finding.path, 0) + 1
        return {rule: dict(sorted(mods.items())) for rule, mods in sorted(table.items())}


def module_name(path: Path) -> str:
    """Dotted module name inferred from the package layout on disk."""
    if path.stem == "__init__":
        parts: List[str] = []
    else:
        parts = [path.stem]
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) or path.stem


def default_target() -> Path:
    """The installed ``repro`` package — what ``repro lint`` checks by default."""
    import repro

    return Path(repro.__file__).resolve().parent


def discover_files(paths: Optional[Sequence[PathLike]] = None) -> List[Path]:
    """Resolve targets into a sorted list of python files.

    Raises :class:`StatcheckError` for a missing target — a misspelled path
    in CI must not report a green "0 findings in 0 files".
    """
    targets = [Path(p) for p in (paths or [default_target()])]
    files: List[Path] = []
    for target in targets:
        if target.is_dir():
            files.extend(target.rglob("*.py"))
        elif target.is_file():
            files.append(target)
        else:
            raise StatcheckError(f"no such file or directory: {target}")
    return sorted(set(files))


def make_context(path: Path, source: str, rel: Optional[str] = None) -> FileContext:
    """Parse ``source`` into a :class:`FileContext` (raises SyntaxError)."""
    tree = ast.parse(source, filename=str(path))
    return FileContext(
        path=path,
        rel=rel or str(path),
        module=module_name(path),
        source=source,
        tree=tree,
        aliases=build_alias_map(tree),
    )


def _display_path(path: Path, root: Optional[Path]) -> str:
    if root is not None:
        try:
            return str(path.resolve().relative_to(root.resolve()))
        except ValueError:
            pass
    return str(path)


def _syntax_finding(rel: str, error: SyntaxError) -> Finding:
    return Finding(
        path=rel,
        line=error.lineno or 1,
        col=(error.offset or 0) + 1,
        rule=SYNTAX_RULE,
        message=f"file does not parse: {error.msg}",
    )


def _suppressed_by(
    comments: Sequence[SuppressionComment], finding: Finding
) -> bool:
    """Whether a comment silences ``finding``; marks the comment used."""
    hit = False
    for comment in comments:
        if comment.matches(finding.line, finding.rule):
            comment.used = True
            hit = True  # keep going: every matching comment counts as used
    return hit


def _check_context(
    ctx: FileContext,
    rules: Sequence[Rule],
    comments: Sequence[SuppressionComment],
) -> Tuple[List[Finding], List[Finding]]:
    """Run per-file ``rules`` over one parsed context."""
    findings: List[Finding] = []
    suppressed: List[Finding] = []
    for rule in rules:
        if not rule.applies_to(ctx):
            continue
        for finding in rule.check(ctx):
            if _suppressed_by(comments, finding):
                suppressed.append(finding)
            else:
                findings.append(finding)
    return findings, suppressed


def lint_file(
    path: Path,
    rules: Sequence[Rule],
    rel: Optional[str] = None,
    source: Optional[str] = None,
) -> tuple:
    """Lint one file with per-file rules; returns ``(findings, suppressed)``."""
    if source is None:
        source = path.read_text(encoding="utf-8")
    rel = rel or str(path)
    try:
        ctx = make_context(path, source, rel)
    except SyntaxError as error:
        return [_syntax_finding(rel, error)], []
    return _check_context(ctx, rules, parse_suppression_comments(source))


def lint_source(
    source: str,
    filename: str = "snippet.py",
    rules: Optional[Sequence[Rule]] = None,
) -> LintReport:
    """Lint an in-memory snippet (the fixture-test entry point)."""
    started = time.perf_counter()
    findings, suppressed = lint_file(
        Path(filename), rules if rules is not None else default_rules(),
        rel=filename, source=source,
    )
    return LintReport(
        findings=sorted(findings),
        suppressed=sorted(suppressed),
        n_files=1,
        duration_s=time.perf_counter() - started,
    )


def _resolve_flow(flow, rules) -> list:
    """Normalise the ``flow`` argument of :func:`run_lint` to a rule list."""
    if flow is None:
        # Default rule selection ⇒ default flow rules; an explicit per-file
        # subset ⇒ no whole-program pass unless asked for.
        flow = rules is None
    if flow is True:
        from repro.statcheck.flow import default_flow_rules

        return default_flow_rules()
    if not flow:
        return []
    return list(flow)


def run_lint(
    paths: Optional[Sequence[PathLike]] = None,
    rules: Optional[Sequence[Rule]] = None,
    root: Optional[PathLike] = None,
    flow=None,
    stale: Optional[bool] = None,
) -> LintReport:
    """Lint ``paths`` (default: the installed ``repro`` package).

    ``root`` shortens reported paths to be relative (defaults to the common
    parent of the default target, keeping CI output repo-relative).

    ``flow`` selects the whole-program pass: ``None`` runs the default flow
    rules exactly when ``rules`` is the default selection, ``True``/``False``
    force it, and a sequence of :class:`~repro.statcheck.flow.FlowRule`
    instances runs just those.  ``stale`` controls stale-suppression
    detection (:data:`STALE_RULE`); by default it is on only for full runs
    (all per-file rules *and* the flow pass), because a comment can only be
    proven dead when every rule it names actually ran.

    Analyzer failures raise :class:`StatcheckError`; problems *found in the
    code* come back as findings.
    """
    started = time.perf_counter()
    per_file_rules = list(rules) if rules is not None else default_rules()
    flow_rules = _resolve_flow(flow, rules)
    if stale is None:
        stale = rules is None and bool(flow_rules)
    files = discover_files(paths)
    root_path = Path(root) if root is not None else (
        default_target().parent if paths is None else None
    )
    report = LintReport()
    contexts: List[FileContext] = []
    comments_by_rel: Dict[str, List[SuppressionComment]] = {}
    with span("statcheck.lint", files=len(files)) as sp:
        for path in files:
            rel = _display_path(path, root_path)
            try:
                source = path.read_text(encoding="utf-8")
            except OSError as error:
                raise StatcheckError(f"cannot read {path}: {error}") from error
            comments = parse_suppression_comments(source)
            comments_by_rel[rel] = comments
            try:
                ctx = make_context(path, source, rel)
            except SyntaxError as error:
                report.findings.append(_syntax_finding(rel, error))
                continue
            contexts.append(ctx)
            findings, suppressed = _check_context(ctx, per_file_rules, comments)
            report.findings.extend(findings)
            report.suppressed.extend(suppressed)
        if flow_rules and contexts:
            from repro.statcheck.flow import build_program, run_flow_rules

            program = build_program(contexts)
            for finding in run_flow_rules(program, flow_rules):
                comments = comments_by_rel.get(finding.path, ())
                if _suppressed_by(comments, finding):
                    report.suppressed.append(finding)
                else:
                    report.findings.append(finding)
        if stale:
            for rel, comments in sorted(comments_by_rel.items()):
                for comment in comments:
                    if comment.used:
                        continue
                    report.stale.append(
                        Finding(
                            path=rel,
                            line=comment.line,
                            col=1,
                            rule=STALE_RULE,
                            message=(
                                "stale suppression "
                                f"({', '.join(comment.rules)}): no finding "
                                "matched this comment — remove it"
                            ),
                        )
                    )
        report.n_files = len(files)
        report.findings.sort()
        report.suppressed.sort()
        report.stale.sort()
        sp.incr("findings", len(report.findings))
        sp.incr("suppressed", len(report.suppressed))
        sp.incr("stale", len(report.stale))
    for rule_id, count in report.counts_by_rule().items():
        get_tracer().count(f"lint.findings.{rule_id}", count)
    report.duration_s = time.perf_counter() - started
    return report


__all__ = [
    "STALE_RULE",
    "SYNTAX_RULE",
    "FileContext",
    "LintReport",
    "module_name",
    "default_target",
    "discover_files",
    "make_context",
    "lint_file",
    "lint_source",
    "run_lint",
]
