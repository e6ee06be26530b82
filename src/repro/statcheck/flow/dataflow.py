"""Interprocedural dataflow over the call graph.

Two analyses, both *optimistic* (unresolvable facts contribute nothing,
so findings only come from positively-established flows):

* **may-raise** — which tracked exception classes can escape each
  function, computed as a fixpoint over call-graph SCCs in reverse
  topological order, subtracting the exceptions each call site's
  enclosing ``try`` handlers catch;
* **seed provenance** — whether the seed expression feeding an RNG
  consumer traces back to config key material (an attribute/key named
  ``seed``/``*_seed``) or bottoms out in a hard-coded literal, following
  parameters backwards through every resolved caller.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.statcheck.astutil import dotted_name, last_segment, resolve_name
from repro.statcheck.flow.callgraph import CATCH_ALL, CallGraph, handler_names
from repro.statcheck.flow.index import FunctionInfo, ProgramIndex

# ---------------------------------------------------------------------------
# may-raise


def exception_catchers(index: ProgramIndex, name: str) -> Set[str]:
    """Handler names that catch exception class ``name``: itself, its
    indexed base chain, and the universal stdlib bases."""
    catchers = {name, "Exception", "BaseException"}
    queue = [name]
    while queue:
        current = queue.pop()
        candidates = index.classes_by_name.get(current, [])
        if len(candidates) != 1:
            continue
        for base in candidates[0].base_names:
            bare = base.rsplit(".", 1)[-1]
            if bare not in catchers:
                catchers.add(bare)
                queue.append(bare)
    return catchers


def _direct_raises(
    info: FunctionInfo, tracked: Set[str], index: ProgramIndex
) -> Dict[str, Tuple[str, int]]:
    """Tracked exceptions ``info`` raises itself -> (rel path, line).

    A bare ``raise`` inside ``except ShedError:`` re-raises ShedError; a
    raise whose exception is caught by an *enclosing* try in the same
    function never escapes and is not counted.
    """
    raises: Dict[str, Tuple[str, int]] = {}

    def record(name: str, node: ast.AST, handled: FrozenSet[str]) -> None:
        if name not in tracked:
            return
        if CATCH_ALL in handled or exception_catchers(index, name) & handled:
            return
        raises.setdefault(name, (info.ctx.rel, node.lineno))

    def scan(
        nodes: Sequence[ast.AST],
        handled: FrozenSet[str],
        current: FrozenSet[str],
    ) -> None:
        for node in nodes:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            if isinstance(node, ast.Raise):
                if node.exc is None:
                    for name in current & tracked:
                        record(name, node, handled)
                else:
                    exc = node.exc
                    if isinstance(exc, ast.Call):
                        exc = exc.func
                    record(last_segment(dotted_name(exc)), node, handled)
                continue
            if isinstance(node, ast.Try):
                caught = frozenset().union(
                    *(handler_names(h) for h in node.handlers)
                ) if node.handlers else frozenset()
                scan(node.body, handled | caught, current)
                for handler in node.handlers:
                    scan(
                        handler.body, handled,
                        frozenset(handler_names(handler)),
                    )
                scan(node.orelse, handled, current)
                scan(node.finalbody, handled, current)
                continue
            scan(list(ast.iter_child_nodes(node)), handled, current)

    scan(list(ast.iter_child_nodes(info.node)), frozenset(), frozenset())
    return raises


def compute_may_raise(
    graph: CallGraph, tracked: Set[str]
) -> Tuple[Dict[str, Set[str]], Dict[Tuple[str, str], Tuple[str, int]]]:
    """Fixpoint may-raise sets for every function in the graph.

    Returns ``(may_raise, origins)`` where ``origins[(fn_key, exc)]`` is
    the ``(rel, line)`` of one raise site the exception propagates from.
    """
    index = graph.index
    direct = {
        key: _direct_raises(info, tracked, index)
        for key, info in index.functions.items()
    }
    may: Dict[str, Set[str]] = {
        key: set(direct[key]) for key in index.functions
    }
    origins: Dict[Tuple[str, str], Tuple[str, int]] = {
        (key, name): where
        for key, raised in direct.items()
        for name, where in raised.items()
    }
    catcher_cache = {name: exception_catchers(index, name) for name in tracked}

    def flow_into(caller: str) -> bool:
        changed = False
        for site in graph.sites_by_caller.get(caller, ()):
            if CATCH_ALL in site.handled:
                continue
            for callee in site.callees:
                for name in may.get(callee.key, ()):
                    if catcher_cache[name] & site.handled:
                        continue
                    if name not in may[caller]:
                        may[caller].add(name)
                        origins.setdefault(
                            (caller, name),
                            origins.get(
                                (callee.key, name),
                                (callee.ctx.rel, callee.node.lineno),
                            ),
                        )
                        changed = True
        return changed

    # Reverse topological SCC order: callees are final before callers,
    # so each component needs only a local fixpoint.
    for component in graph.sccs():
        changed = True
        while changed:
            changed = False
            for key in component:
                if flow_into(key):
                    changed = True
    return may, origins


# ---------------------------------------------------------------------------
# seed provenance

#: Attribute / key / parameter names that are sanctioned seed material.
def is_seed_name(name: str) -> bool:
    lowered = name.lower()
    return lowered == "seed" or lowered.endswith("_seed")


#: Functions that mix entropy deterministically — a seed is fine if it
#: *passes through* one of these.
_SEED_MIXERS = frozenset(
    {"stable_hash", "stable_digest", "derive_rng", "ensure_rng",
     "int", "abs", "hash"}
)

#: Classification statuses.
SEED_OK = "ok"
SEED_BAD = "bad"
SEED_UNKNOWN = "unknown"


@dataclass
class SeedOrigin:
    """Where a seed classification bottomed out."""

    status: str
    detail: str = ""
    rel: str = ""
    line: int = 0
    chain: Tuple[str, ...] = ()
    #: Further independent bad origins (other callers of the same
    #: parameter) — each deserves its own finding.
    extras: Tuple["SeedOrigin", ...] = ()


def classify_seed(
    expr: ast.AST,
    fn: FunctionInfo,
    graph: CallGraph,
    depth: int = 6,
    stack: FrozenSet[Tuple[str, str]] = frozenset(),
) -> SeedOrigin:
    """Trace ``expr`` (a seed argument inside ``fn``) to its origin."""
    if depth <= 0:
        return SeedOrigin(SEED_UNKNOWN)
    if isinstance(expr, ast.Constant):
        if expr.value is None:
            return SeedOrigin(SEED_OK, "None (consumer derives its own)")
        return SeedOrigin(
            SEED_BAD,
            f"hard-coded literal seed {expr.value!r}",
            fn.ctx.rel,
            expr.lineno,
            (fn.key,),
        )
    if isinstance(expr, ast.Attribute):
        if is_seed_name(expr.attr):
            return SeedOrigin(SEED_OK, f"attribute .{expr.attr}")
        return SeedOrigin(SEED_UNKNOWN)
    if isinstance(expr, ast.Subscript):
        key = expr.slice
        if (
            isinstance(key, ast.Constant)
            and isinstance(key.value, str)
            and is_seed_name(key.value)
        ):
            return SeedOrigin(SEED_OK, f"key {key.value!r}")
        return SeedOrigin(SEED_UNKNOWN)
    if isinstance(expr, ast.Call):
        if last_segment(resolve_name(expr.func, fn.ctx.aliases)) in _SEED_MIXERS:
            args = list(expr.args) + [kw.value for kw in expr.keywords]
            results = [
                classify_seed(arg, fn, graph, depth - 1, stack)
                for arg in args
                if not isinstance(arg, ast.Starred)
            ]
            if any(r.status == SEED_OK for r in results):
                return SeedOrigin(SEED_OK, "derived via mixer")
            if results and all(r.status == SEED_BAD for r in results):
                return results[0]
        return SeedOrigin(SEED_UNKNOWN)
    if isinstance(expr, ast.BinOp):
        sides = [
            classify_seed(side, fn, graph, depth - 1, stack)
            for side in (expr.left, expr.right)
        ]
        if any(r.status == SEED_OK for r in sides):
            return SeedOrigin(SEED_OK, "arithmetic over seed material")
        if all(r.status == SEED_BAD for r in sides):
            return sides[0]
        return SeedOrigin(SEED_UNKNOWN)
    if isinstance(expr, ast.IfExp):
        branches = [
            classify_seed(side, fn, graph, depth - 1, stack)
            for side in (expr.body, expr.orelse)
        ]
        for branch in branches:
            if branch.status == SEED_BAD:
                return branch
        if all(r.status == SEED_OK for r in branches):
            return branches[0]
        return SeedOrigin(SEED_UNKNOWN)
    if isinstance(expr, ast.Name):
        return _classify_name(expr.id, fn, graph, depth, stack)
    return SeedOrigin(SEED_UNKNOWN)


def _classify_name(
    name: str,
    fn: FunctionInfo,
    graph: CallGraph,
    depth: int,
    stack: FrozenSet[Tuple[str, str]],
) -> SeedOrigin:
    # Local assignment wins over the parameter of the same name (the
    # `if seed is None: seed = ...` idiom rebinds before use).
    assigned = [
        node.value
        for node in ast.walk(fn.node)
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id == name
    ]
    local_results = [
        classify_seed(value, fn, graph, depth - 1, stack)
        for value in assigned
    ]
    for result in local_results:
        if result.status == SEED_BAD:
            return result
    if local_results and all(r.status == SEED_OK for r in local_results):
        return local_results[0]
    if name in fn.params:
        key = (fn.key, name)
        if key in stack:
            return SeedOrigin(SEED_UNKNOWN)
        sites = graph.sites_by_callee.get(fn.key, ())
        caller_results: List[SeedOrigin] = []
        bad_results: List[SeedOrigin] = []
        for site in sites:
            bound = site.bind_args(fn)
            arg = bound.get(name)
            if arg is None:
                continue  # defaulted — DET005's beat, not a flow fact
            result = classify_seed(
                arg, site.caller, graph, depth - 1, stack | {key}
            )
            if result.status == SEED_BAD:
                bad_results.append(
                    SeedOrigin(
                        SEED_BAD, result.detail, result.rel, result.line,
                        result.chain + (fn.key,), result.extras,
                    )
                )
            caller_results.append(result)
        if bad_results:
            flattened: List[SeedOrigin] = []
            for bad in bad_results:
                flattened.append(bad)
                flattened.extend(bad.extras)
            first = flattened[0]
            return SeedOrigin(
                SEED_BAD, first.detail, first.rel, first.line,
                first.chain, tuple(flattened[1:]),
            )
        if caller_results and all(
            r.status == SEED_OK for r in caller_results
        ):
            return caller_results[0]
        return SeedOrigin(SEED_UNKNOWN)
    # Module-level constants: a `*_SEED` name is a deliberate, documented
    # protocol pin (sanctioned key material); an int literal hiding under
    # any other name is still a hard-coded seed.
    for node in fn.ctx.tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == name
            and isinstance(node.value, ast.Constant)
        ):
            if is_seed_name(name):
                return SeedOrigin(SEED_OK, f"protocol constant {name}")
            if isinstance(node.value.value, (int, float)):
                return SeedOrigin(
                    SEED_BAD,
                    f"module constant {name} = {node.value.value!r} "
                    "(rename it *_SEED to mark a deliberate protocol pin)",
                    fn.ctx.rel,
                    node.lineno,
                    (fn.key,),
                )
            return SeedOrigin(SEED_UNKNOWN)
    imported = fn.ctx.aliases.get(name)
    if imported is not None and is_seed_name(imported.rsplit(".", 1)[-1]):
        return SeedOrigin(SEED_OK, f"imported protocol constant {name}")
    return SeedOrigin(SEED_UNKNOWN)


__all__ = [
    "SEED_BAD",
    "SEED_OK",
    "SEED_UNKNOWN",
    "SeedOrigin",
    "classify_seed",
    "compute_may_raise",
    "exception_catchers",
    "is_seed_name",
]
