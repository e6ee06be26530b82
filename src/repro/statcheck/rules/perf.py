"""Performance rules (PERF): artifact reads must choose a memory story.

Large artifact matrices are loaded on every warm pipeline run; whether a
read copies the bytes or maps them is a real resource decision, not a
default to inherit silently.  ``repro.pipeline.arrays.load_array`` owns
that decision (``mmap_mode="r"`` above a 1 MiB size gate,
bytes-mapped/bytes-copied gauges) — any other ``np.load`` inside
``repro.pipeline`` that does not state ``mmap_mode`` explicitly is a read
that made the decision by accident.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.statcheck.astutil import resolve_call
from repro.statcheck.findings import Finding
from repro.statcheck.rules.base import Rule


class ImplicitMmapLoadRule(Rule):
    id = "PERF001"
    title = "np.load without explicit mmap_mode in pipeline code"
    rationale = (
        "Artifact matrices read inside repro.pipeline are on the warm-run "
        "hot path; np.load without mmap_mode silently copies every byte "
        "into fresh pages. Route reads through pipeline.arrays.load_array "
        "(size-gated mmap + gauges) or pass mmap_mode explicitly — "
        "including mmap_mode=None when a copy is the intent."
    )
    example = "matrix = np.load(entry_dir / 'matrix.npy')"

    def applies_to(self, ctx) -> bool:
        return "pipeline" in ctx.module.split(".")

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if resolve_call(node, ctx.aliases) != "numpy.load":
                continue
            explicit = any(kw.arg == "mmap_mode" for kw in node.keywords)
            if not explicit and len(node.args) < 2:
                yield self.finding(
                    ctx,
                    node,
                    "np.load() without explicit mmap_mode on the pipeline "
                    "hot path; use pipeline.arrays.load_array or state "
                    "mmap_mode explicitly",
                )


RULES = (ImplicitMmapLoadRule,)

__all__ = [cls.__name__ for cls in RULES] + ["RULES"]
