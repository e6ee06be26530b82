"""``repro.statcheck``: static determinism/purity/concurrency linting.

A pure-stdlib (``ast`` + ``symtable`` + ``tokenize``) analyzer that
enforces the apparatus' own invariants — the things a generic linter
cannot know: all entropy flows through ``utils/rng.py``, stage builders
are pure functions of their inputs, shared state is mutated under its
owning lock, client failures are accounted for, spans always close.

Two layers:

* per-file rules (DET/PUR/CONC/RES/OBS/SRV/PERF) walk one parsed file;
* whole-program *flow* rules (:mod:`repro.statcheck.flow`:
  FLOW001-004) build a module-qualified symbol index and a conservative
  call graph over the full tree, then check seed provenance, exception
  contracts, resource lifecycles and lock-transfer call sites
  interprocedurally.

Entry points:

* :func:`run_lint` — lint files/directories (default: the installed
  ``repro`` package, flow rules included), returns a :class:`LintReport`;
* :func:`lint_source` — lint an in-memory snippet (fixture tests);
* :func:`quick_check` — compile + import-cycle smoke check;
* ``repro lint`` — the CLI front-end (exit 0 clean / 1 findings /
  2 analyzer error / 3 stale suppressions only).

Findings are suppressed per line with ``# statcheck: ignore[RULE] -
justification`` (same line or the comment line directly above); a
suppression that matches nothing is itself reported (``SUP001``).
"""

from repro.statcheck.engine import (
    STALE_RULE,
    SYNTAX_RULE,
    FileContext,
    LintReport,
    default_target,
    discover_files,
    lint_source,
    run_lint,
)
from repro.statcheck.findings import Finding, StatcheckError
from repro.statcheck.quick import CYCLE_RULE, quick_check
from repro.statcheck.report import (
    REPORT_FORMAT,
    record_inventory,
    render_json,
    render_text,
    write_json,
)
from repro.statcheck.rules import (
    FAMILIES,
    Rule,
    catalog,
    default_rules,
    select_rules,
)

__all__ = [
    "CYCLE_RULE",
    "FAMILIES",
    "FileContext",
    "Finding",
    "LintReport",
    "REPORT_FORMAT",
    "Rule",
    "STALE_RULE",
    "StatcheckError",
    "SYNTAX_RULE",
    "catalog",
    "default_rules",
    "default_target",
    "discover_files",
    "lint_source",
    "quick_check",
    "record_inventory",
    "render_json",
    "render_text",
    "run_lint",
    "select_rules",
    "write_json",
]
