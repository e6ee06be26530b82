"""``repro.statcheck.flow``: whole-program analysis over the tree.

The per-file rules answer "is this line suspicious?"; the flow layer
answers the questions every determinism bug PR 8-9 fixed actually posed —
*where does this seed come from three calls up?*, *who catches this
ShedError?*  It parses the full tree once (reusing the engine's
contexts), builds a :class:`ProgramIndex` and a conservative
:class:`CallGraph` (Tarjan SCCs shared with ``quick.py``), and runs the
FLOW001-004 rules over the resulting program.

Entry points:

* :func:`build_program` — contexts -> :class:`ProgramContext`;
* :func:`run_flow_rules` — program + rules -> findings;
* :func:`program_from_sources` — in-memory fixture programs for tests;
* :func:`select_flow_rules` / :func:`flow_catalog` — registry plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.statcheck.findings import Finding, StatcheckError
from repro.statcheck.flow.callgraph import CallGraph, CallSite
from repro.statcheck.flow.index import ClassInfo, FunctionInfo, ProgramIndex
from repro.statcheck.flow.rules_flow import FLOW_RULE_CLASSES, FlowRule

#: Flow rule ids, mirrored statically in ``rules.FAMILIES["flow"]``.
FLOW_RULE_IDS = tuple(cls.id for cls in FLOW_RULE_CLASSES)


@dataclass
class ProgramContext:
    """The whole analyzed tree: per-file contexts, index, call graph."""

    contexts: Dict[str, object]  # module name -> FileContext
    index: ProgramIndex
    graph: CallGraph


def build_program(contexts: Sequence[object]) -> ProgramContext:
    """Index and call-graph a set of parsed file contexts."""
    index = ProgramIndex(contexts)
    return ProgramContext(
        contexts=dict(index.contexts), index=index, graph=CallGraph(index)
    )


def program_from_sources(sources: Dict[str, str]) -> ProgramContext:
    """A program built from ``{filename: source}`` — the fixture entry
    point for flow-rule tests."""
    from pathlib import Path

    from repro.statcheck.engine import make_context

    contexts = [
        make_context(Path(name), source, rel=name)
        for name, source in sorted(sources.items())
    ]
    return build_program(contexts)


def default_flow_rules() -> List[FlowRule]:
    """Fresh instances of every flow rule."""
    return [cls() for cls in FLOW_RULE_CLASSES]


def select_flow_rules(ids: Optional[Sequence[str]] = None) -> List[FlowRule]:
    """Flow rules filtered to ``ids`` (ids or the ``flow`` family name)."""
    if not ids:
        return default_flow_rules()
    wanted = set()
    known = set(FLOW_RULE_IDS)
    for selector in ids:
        token = selector.strip()
        if not token:
            continue
        if token.lower() == "flow":
            wanted.update(known)
        elif token.upper() in known:
            wanted.add(token.upper())
        else:
            raise StatcheckError(
                f"unknown flow rule {selector!r}; known: {sorted(known)}"
            )
    return [cls() for cls in FLOW_RULE_CLASSES if cls.id in wanted]


def run_flow_rules(
    program: ProgramContext,
    rules: Optional[Sequence[FlowRule]] = None,
) -> List[Finding]:
    """Run flow rules over ``program``; findings are unsuppressed here —
    the engine routes them through each file's suppression ledger."""
    findings: List[Finding] = []
    for rule in (rules if rules is not None else default_flow_rules()):
        if not rule.applies_to(program):
            continue
        findings.extend(rule.check(program))
    return sorted(findings)


def flow_catalog() -> List[dict]:
    """Documentation entries for the flow rules (mirrors ``catalog()``)."""
    return [
        {
            "id": cls.id,
            "title": cls.title,
            "rationale": cls.rationale,
            "example": cls.example,
        }
        for cls in FLOW_RULE_CLASSES
    ]


__all__ = [
    "FLOW_RULE_CLASSES",
    "FLOW_RULE_IDS",
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "FlowRule",
    "FunctionInfo",
    "ProgramContext",
    "ProgramIndex",
    "build_program",
    "default_flow_rules",
    "flow_catalog",
    "program_from_sources",
    "run_flow_rules",
    "select_flow_rules",
]
