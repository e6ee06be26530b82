"""Resilience/observability contract rules (RES, OBS).

The resilience layer (PR 3) established two contracts: client failures are
never silently swallowed — they are re-raised, retried, or *accounted for*
(a metric, a degraded outcome) — and every span is opened with ``with`` so
its duration and parentage are recorded even on the exception path.  These
rules enforce both statically.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.statcheck.astutil import dotted_name, last_segment, resolve_call
from repro.statcheck.findings import Finding
from repro.statcheck.rules.base import Rule

#: Exception names whose handlers must re-raise or record a metric.
_BROAD_NAMES = frozenset({"Exception", "BaseException", "ChatClientError"})

#: Method names that count as "recording the failure" inside a handler.
_METRIC_ATTRS = frozenset({"count", "incr", "gauge"})

#: Dotted-name fragments that mark a call as metrics/logging machinery.
_METRIC_ROOTS = ("tracer", "metrics", "logger", "logging", "warnings")


def _handler_names(handler: ast.ExceptHandler) -> Iterator[str]:
    node = handler.type
    elements = node.elts if isinstance(node, ast.Tuple) else [node]
    for element in elements:
        name = dotted_name(element)
        if name:
            yield name.rsplit(".", 1)[-1]


class SwallowedBroadExceptRule(Rule):
    id = "RES001"
    title = "broad except swallows failures unaccounted"
    rationale = (
        "`except Exception:` (or a handler catching ChatClientError) that "
        "neither re-raises nor records a metric erases delivery failures "
        "from manifests — degraded runs then look healthy. Re-raise, or "
        "bump a counter before degrading."
    )
    example = "except ChatClientError:\n    return None"

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = node.type is None or any(
                name in _BROAD_NAMES for name in _handler_names(node)
            )
            if not broad:
                continue
            if self._accounts_for_failure(node, ctx):
                continue
            caught = (
                "bare except"
                if node.type is None
                else f"except {ast.unparse(node.type)}"
            )
            yield self.finding(
                ctx,
                node,
                f"{caught} neither re-raises nor records a metric; "
                f"swallowed failures disappear from run manifests",
            )

    def _accounts_for_failure(self, handler: ast.ExceptHandler, ctx) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if not isinstance(node, ast.Call):
                continue
            name = resolve_call(node, ctx.aliases) or ""
            if last_segment(name) in _METRIC_ATTRS:
                return True
            root = name.partition(".")[0].lower()
            if any(fragment in root for fragment in _METRIC_ROOTS):
                return True
            # Metric methods on an unresolvable base, e.g. the canonical
            # `get_tracer().count(...)`: require the base to *look like*
            # metrics machinery so `items.count(x)` does not count.
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _METRIC_ATTRS
            ):
                base = ast.unparse(node.func.value).lower()
                if any(fragment in base for fragment in _METRIC_ROOTS):
                    return True
        return False


#: Direct clock calls that defeat the delivery layer's injectable Clock.
_DIRECT_CLOCK_CALLS = frozenset(
    {"time.sleep", "time.monotonic", "time.time", "time.perf_counter"}
)


class DirectClockInDeliveryRule(Rule):
    id = "RES002"
    title = "direct time call inside repro.delivery"
    rationale = (
        "The delivery layer's deadlines, retry backoff and simulated "
        "latency are pure functions of an injectable Clock; a direct time.sleep() "
        "or time.monotonic() bypasses the injection, so fake-clock tests "
        "silently run on the wall clock and backoff schedules stop being "
        "assertable. Route every wait and read through the backend's "
        "clock (a sanctioned `shell` module is the only exemption)."
    )
    example = "time.sleep(self.latency_s)  # in repro/delivery/backends.py"

    def applies_to(self, ctx) -> bool:
        # Only the delivery layer is under the injectable-clock contract,
        # and a module literally named `shell` is the sanctioned place for
        # wall-clock plumbing (mirroring the serve quarantine).
        parts = ctx.module.split(".")
        return "delivery" in parts and parts[-1] != "shell"

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = resolve_call(node, ctx.aliases)
            if name in _DIRECT_CLOCK_CALLS:
                yield self.finding(
                    ctx,
                    node,
                    f"{name}() bypasses the injectable Clock; use the "
                    f"backend/engine clock so fake-clock tests stay honest",
                )


class SpanWithoutWithRule(Rule):
    id = "OBS001"
    title = "span opened without `with`"
    rationale = (
        "A span started as a bare call or assignment never records its "
        "exit on the exception path, corrupting the per-thread span stack "
        "and losing the subtree from manifests. Always `with span(...)`."
    )
    example = "sp = span('stage.build')  # never closed on raise"

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            value = None
            if isinstance(node, ast.Expr):
                value = node.value
            elif isinstance(node, ast.Assign):
                value = node.value
            if not isinstance(value, ast.Call):
                continue
            name = resolve_call(value, ctx.aliases)
            segment = last_segment(name)
            if segment in ("span", "start_span"):
                yield self.finding(
                    ctx,
                    value,
                    f"{segment}(...) result must be entered with "
                    f"`with` so the span closes on every path",
                )


#: Wall-clock reads whose differences are *not* valid durations: the system
#: clock can step (NTP slew, suspend/resume, DST on naive datetimes), so a
#: difference of two reads can be negative or wildly wrong.
_WALL_READS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
    }
)


class WallClockDurationRule(Rule):
    id = "OBS002"
    title = "duration measured with time.time()"
    rationale = (
        "Subtracting two wall-clock reads (time.time(), datetime.now()) "
        "measures the system clock, not elapsed time — NTP steps and "
        "suspend/resume make such durations wrong or negative. Durations "
        "belong on time.perf_counter() (or monotonic())."
    )
    example = "start = time.time(); elapsed = time.time() - start"

    def check(self, ctx) -> Iterator[Finding]:
        for scope in self._scopes(ctx.tree):
            yield from self._check_scope(scope, ctx)

    # -- scope machinery ------------------------------------------------------

    @staticmethod
    def _scopes(tree: ast.AST) -> Iterator[ast.AST]:
        yield tree
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    @staticmethod
    def _walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
        """Walk a scope's nodes without descending into nested functions
        (each nested function is analysed as its own scope)."""
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    # -- the actual check -----------------------------------------------------

    def _check_scope(self, scope: ast.AST, ctx) -> Iterator[Finding]:
        # Pass 1: names bound (anywhere in the scope) from a wall-clock read.
        wall_names = set()
        for node in self._walk_scope(scope):
            if not isinstance(node, ast.Assign):
                continue
            if not self._is_wall_read(node.value, ctx):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    wall_names.add(target.id)
        # Pass 2: subtractions where *every* operand is a wall-clock value.
        # Requiring both sides keeps mixed arithmetic — e.g. comparing a
        # wall timestamp against a file's st_mtime — out of scope.
        for node in self._walk_scope(scope):
            if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
                continue
            if self._is_wallish(node.left, wall_names, ctx) and self._is_wallish(
                node.right, wall_names, ctx
            ):
                yield self.finding(
                    ctx,
                    node,
                    "difference of two wall-clock reads used as a duration; "
                    "use time.perf_counter() instead of time.time()",
                )

    def _is_wall_read(self, node: ast.AST, ctx) -> bool:
        return (
            isinstance(node, ast.Call)
            and resolve_call(node, ctx.aliases) in _WALL_READS
        )

    def _is_wallish(self, node: ast.AST, wall_names, ctx) -> bool:
        if self._is_wall_read(node, ctx):
            return True
        return isinstance(node, ast.Name) and node.id in wall_names


RULES = (
    SwallowedBroadExceptRule,
    DirectClockInDeliveryRule,
    SpanWithoutWithRule,
    WallClockDurationRule,
)

__all__ = [cls.__name__ for cls in RULES] + ["RULES"]
