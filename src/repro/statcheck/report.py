"""Lint reporters: text for humans, JSON for CI.

The JSON document is a stable artifact (format tag
``repro-statcheck-v1``) that CI uploads next to test results; the
inventory (findings per rule per module) is also pushed into the
``repro.obs`` run context so every manifest written afterwards records the
lint state of the tree it was produced by — lint drift across PRs then
shows up in manifest diffs, not just CI logs.
"""

from __future__ import annotations

import json
from typing import IO, Optional

from repro.statcheck.engine import LintReport
from repro.statcheck.rules import catalog

#: Format tag of the JSON report document.
REPORT_FORMAT = "repro-statcheck-v1"


def render_text(report: LintReport, verbose: bool = False) -> str:
    """One line per finding plus a summary tail."""
    lines = [finding.render() for finding in report.findings]
    lines.extend(
        f"{finding.render()} (stale suppression)" for finding in report.stale
    )
    if verbose:
        lines.extend(
            f"{finding.render()} (suppressed)" for finding in report.suppressed
        )
    counts = report.counts_by_rule()
    summary = (
        f"statcheck: {len(report.findings)} finding(s), "
        f"{len(report.suppressed)} suppressed, "
        f"{report.n_files} file(s) in {report.duration_s:.2f}s"
    )
    if report.stale:
        summary += f" ({len(report.stale)} stale suppression(s))"
    if counts:
        summary += " [" + ", ".join(
            f"{rule}={count}" for rule, count in counts.items()
        ) + "]"
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: LintReport) -> dict:
    """JSON-ready document: findings, suppressions, inventory, catalog."""
    return {
        "format": REPORT_FORMAT,
        "ok": report.ok,
        "n_files": report.n_files,
        "duration_s": round(report.duration_s, 4),
        "findings": [
            {
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "rule": f.rule,
                "message": f.message,
            }
            for f in report.findings
        ],
        "n_suppressed": len(report.suppressed),
        "suppressed": [
            {"path": f.path, "line": f.line, "rule": f.rule}
            for f in report.suppressed
        ],
        "n_stale": len(report.stale),
        "stale": [
            {"path": f.path, "line": f.line, "message": f.message}
            for f in report.stale
        ],
        "inventory": report.inventory(),
        "rules": list(catalog()),
    }


def write_json(report: LintReport, handle: IO) -> None:
    json.dump(render_json(report), handle, indent=2, sort_keys=True)
    handle.write("\n")


def record_inventory(report: LintReport, n_quick: Optional[int] = None) -> None:
    """Push the findings inventory into the ``repro.obs`` run context.

    Every manifest written after this call carries a ``lint`` block, so a
    benchmark table produced from a tree with (suppressed or live) lint
    findings says so — drift is visible in manifest diffs across PRs.
    """
    from repro.obs import manifest

    block = {
        "n_files": report.n_files,
        "n_findings": len(report.findings),
        "n_suppressed": len(report.suppressed),
        "n_stale": len(report.stale),
        "per_rule": report.counts_by_rule(),
        "inventory": report.inventory(),
    }
    if n_quick is not None:
        block["n_quick_findings"] = n_quick
    manifest.set_context(lint=block)


__all__ = [
    "REPORT_FORMAT",
    "render_text",
    "render_json",
    "write_json",
    "record_inventory",
]
