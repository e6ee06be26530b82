"""The interprocedural rule family: FLOW001-004.

Per-file rules receive a :class:`FileContext`; flow rules receive a
*program* — ``(contexts, index, graph)`` over the whole analyzed tree —
and may follow seeds, exceptions, resources and lock holds across any
number of call boundaries.  They stay optimistic everywhere resolution fails:
dynamic dispatch contributes nothing, so every finding rests on a
positively-established cross-module path, which the message spells out.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.statcheck.astutil import dotted_name, last_segment, resolve_name
from repro.statcheck.findings import Finding
from repro.statcheck.flow.callgraph import CallSite
from repro.statcheck.flow.dataflow import (
    SEED_BAD,
    classify_seed,
    compute_may_raise,
)
from repro.statcheck.flow.index import FunctionInfo


class FlowRule:
    """Base class for whole-program rules (mirrors ``rules.base.Rule``)."""

    id: str = ""
    title: str = ""
    rationale: str = ""
    example: str = ""

    def applies_to(self, program) -> bool:
        return True

    def check(self, program) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, rel: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.id,
            message=message,
        )


def _chain_text(chain: Sequence[str]) -> str:
    return " -> ".join(chain)


# ---------------------------------------------------------------------------
# FLOW001


class SeedProvenanceRule(FlowRule):
    id = "FLOW001"
    title = "RNG seed does not trace back to config key material"
    rationale = (
        "Byte-identical reruns require every RNG stream to be keyed off "
        "LabConfig seed material (an attribute or key named seed/*_seed), "
        "possibly mixed through stable_hash/derive_rng. A literal seed "
        "reaching a consumer — even three calls away — silently pins a "
        "stream that config sweeps believe they control; and two call "
        "sites deriving the same (seed, tags...) tuple share one stream, "
        "correlating draws that the analysis assumes independent."
    )
    example = "def fit(d):\n    train(d, seed=42)   # train() feeds derive_rng"

    #: Call targets that consume a seed as their first argument.
    _CONSUMERS = frozenset({"derive_rng", "ensure_rng"})

    def check(self, program) -> Iterator[Finding]:
        emitted: Set[Tuple[str, int, str]] = set()
        streams: Dict[Tuple[str, Tuple[object, ...]], List[Tuple[CallSite, str]]] = {}
        for site in program.graph.sites:
            kind = self._consumer_kind(site)
            if kind is None:
                continue
            if site.caller.module.rsplit(".", 1)[-1] == "rng":
                continue  # the sanctioned RNG module derives as it likes
            seed = self._seed_arg(site.node)
            if seed is None:
                if kind == "default_rng":
                    finding = self._emit(
                        emitted, site.caller.ctx.rel, site.node,
                        "np.random.default_rng() without a seed draws OS "
                        "entropy; thread seed material from LabConfig",
                    )
                    if finding is not None:
                        yield finding
                continue
            origin = classify_seed(seed, site.caller, program.graph)
            if origin.status == SEED_BAD:
                for bad in (origin,) + origin.extras:
                    rel = bad.rel or site.caller.ctx.rel
                    node = site.node if not bad.rel else _At(
                        bad.line, getattr(site.node, "col_offset", 0)
                    )
                    chain = _chain_text(
                        bad.chain + (f"{site.caller.key} ({kind})",)
                    )
                    finding = self._emit(
                        emitted, rel, node,
                        f"{bad.detail} reaches {kind} via {chain}; seeds "
                        "must flow from LabConfig/stage key material",
                    )
                    if finding is not None:
                        yield finding
            if kind == "derive_rng":
                self._collect_stream(streams, site, seed)
        yield from self._duplicate_streams(streams, emitted)

    # -- helpers ------------------------------------------------------

    def _emit(self, emitted, rel, node, message) -> Optional[Finding]:
        key = (rel, getattr(node, "lineno", 1), message)
        if key in emitted:
            return None
        emitted.add(key)
        return self.finding(rel, node, message)

    def _consumer_kind(self, site: CallSite) -> Optional[str]:
        target = site.target_name
        if target == "numpy.random.default_rng":
            return "default_rng"
        segment = last_segment(target)
        if segment in self._CONSUMERS:
            return segment
        return None

    @staticmethod
    def _seed_arg(node: ast.Call) -> Optional[ast.AST]:
        if node.args and not isinstance(node.args[0], ast.Starred):
            return node.args[0]
        for keyword in node.keywords:
            if keyword.arg in ("seed", "rng"):
                return keyword.value
        return None

    def _collect_stream(self, streams, site: CallSite, seed: ast.AST) -> None:
        labels = []
        for arg in site.node.args[1:]:
            if not isinstance(arg, ast.Constant):
                return  # dynamic tag: the stream is parameterized, fine
            labels.append(arg.value)
        if not labels:
            return
        scope = self._seed_scope(seed, site.caller)
        if scope is None:
            return
        streams.setdefault((scope, tuple(labels)), []).append(
            (site, site.caller.ctx.rel)
        )

    @staticmethod
    def _seed_scope(seed: ast.AST, fn: FunctionInfo) -> Optional[str]:
        """Identity of the seed *value*, comparable across call sites.

        Two sites share a stream only when the same seed value reaches
        both: `self.*` chains compare class-wide, module globals
        module-wide, and parameters/locals only within their function —
        different callers may pass different seeds.
        """
        chain = dotted_name(seed)
        if chain is None:
            return None
        root = chain.split(".", 1)[0]
        if root == "self" and fn.class_name is not None:
            return f"{fn.module}:{fn.class_name}:{chain}"
        return f"{fn.key}:{chain}"

    def _duplicate_streams(self, streams, emitted) -> Iterator[Finding]:
        for (scope, labels), sites in sorted(
            streams.items(), key=lambda item: str(item[0])
        ):
            ordered = sorted(
                sites, key=lambda pair: (pair[1], pair[0].node.lineno)
            )
            distinct = {
                (rel, site.node.lineno) for site, rel in ordered
            }
            if len(distinct) < 2:
                continue
            first_site, first_rel = ordered[0]
            label_text = ", ".join(repr(value) for value in labels)
            for site, rel in ordered[1:]:
                if (rel, site.node.lineno) == (first_rel, first_site.node.lineno):
                    continue
                finding = self._emit(
                    emitted, rel, site.node,
                    f"derive_rng stream ({label_text}) duplicates "
                    f"{first_rel}:{first_site.node.lineno} for the same "
                    "seed; distinct consumers need distinct tags or the "
                    "draws correlate",
                )
                if finding is not None:
                    yield finding


class _At:
    """A minimal node stand-in anchoring a finding at a traced origin."""

    def __init__(self, lineno: int, col_offset: int = 0):
        self.lineno = lineno
        self.col_offset = col_offset


# ---------------------------------------------------------------------------
# FLOW002


class ExceptionEscapeRule(FlowRule):
    id = "FLOW002"
    title = "typed exception can escape a thread entry point unhandled"
    rationale = (
        "ChatClientError/ShedError/StageError are the apparatus' typed "
        "failure contracts: every raise must end at a RetryPolicy, "
        "scheduler boundary, or explicit handler that accounts for it. "
        "An exception escaping a Thread target or an HTTP do_* handler "
        "is printed to stderr by the runtime and lost — the failure "
        "ledger silently under-counts, which PR 8's chaos CI exists to "
        "prevent."
    )
    example = (
        "threading.Thread(target=self._run).start()\n"
        "def _run(self): self.engine.deliver()  # may raise ChatClientError"
    )

    #: The typed failure contracts whose escape is a finding.
    tracked = frozenset({"ChatClientError", "ShedError", "StageError"})

    def check(self, program) -> Iterator[Finding]:
        may, origins = compute_may_raise(program.graph, set(self.tracked))
        seen: Set[Tuple[str, str]] = set()
        for entry, via, ref_node, rel in self._entry_points(program):
            escaped = sorted(may.get(entry.key, ()))
            for name in escaped:
                if (entry.key, name) in seen:
                    continue
                seen.add((entry.key, name))
                where = origins.get((entry.key, name))
                origin_text = f" (raised at {where[0]}:{where[1]})" if where else ""
                yield self.finding(
                    rel, ref_node,
                    f"{via} '{entry.qualname}' can leak {name}"
                    f"{origin_text}; exceptions escaping a thread are "
                    "dropped by the runtime — handle or account for it "
                    "at the boundary",
                )

    def _entry_points(self, program):
        """(entry function, how it is entered, anchor node, rel) tuples."""
        graph = program.graph
        for site in graph.sites:
            if last_segment(site.target_name) != "Thread":
                continue
            target_expr = None
            for keyword in site.node.keywords:
                if keyword.arg == "target":
                    target_expr = keyword.value
            if target_expr is None:
                continue
            callees, _, _ = graph.resolve_reference(site.caller, target_expr)
            for callee in callees:
                yield (
                    callee, "thread target", site.node, site.caller.ctx.rel
                )
        for info in program.index.functions.values():
            if not info.is_method or not info.name.startswith("do_"):
                continue
            cls = program.index.class_of(info)
            if cls is None or not any(
                base.rsplit(".", 1)[-1].endswith("RequestHandler")
                for base in cls.base_names
            ):
                continue
            yield info, "request handler", info.node, info.ctx.rel


# ---------------------------------------------------------------------------
# FLOW003

#: Constructors whose result owns an OS resource.
_RESOURCE_FACTORIES = frozenset(
    {
        "open",
        "io.open",
        "socket.socket",
        "socket.create_connection",
        "concurrent.futures.ThreadPoolExecutor",
        "concurrent.futures.ProcessPoolExecutor",
        "tempfile.NamedTemporaryFile",
        "tempfile.TemporaryDirectory",
    }
)

#: Method names that dispose of a resource.
_DISPOSALS = frozenset(
    {"close", "shutdown", "stop", "terminate", "release", "cleanup",
     "__exit__"}
)


class ResourceLifecycleRule(FlowRule):
    id = "FLOW003"
    title = "resource acquired without a dominating with/finally"
    rationale = (
        "Executors, sockets, and journal handles leak worker threads and "
        "fds when an exception skips the close() call. Every acquisition "
        "must be dominated by `with`, closed in a `finally`, returned/"
        "passed onward (ownership transfer), or stored on an object that "
        "itself defines close()/shutdown() — the pattern Journal uses."
    )
    example = "pool = ThreadPoolExecutor(4)\npool.submit(f)\npool.shutdown()"

    def check(self, program) -> Iterator[Finding]:
        for info in program.index.functions.values():
            yield from self._check_function(program, info)

    def _check_function(self, program, info: FunctionInfo) -> Iterator[Finding]:
        parents: Dict[ast.AST, ast.AST] = {}
        stack: List[ast.AST] = [info.node]
        while stack:
            node = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ):
                    continue
                parents[child] = node
                stack.append(child)
        for node in parents:
            if not isinstance(node, ast.Call):
                continue
            target = resolve_name(node.func, info.ctx.aliases)
            if target not in _RESOURCE_FACTORIES:
                continue
            message = self._judge(program, info, node, parents)
            if message is not None:
                yield self.finding(
                    info.ctx.rel, node,
                    f"{last_segment(target)}(...) {message}",
                )

    def _judge(
        self, program, info: FunctionInfo, node: ast.Call, parents
    ) -> Optional[str]:
        parent = parents.get(node)
        # `with open(...) as f:` — the dominating with discharges it.
        if isinstance(parent, ast.withitem):
            return None
        # `closing(open(...))` / `stack.enter_context(open(...))` /
        # `f(open(...))` — ownership transferred to the wrapper.
        if isinstance(parent, (ast.Call, ast.Starred, ast.keyword)):
            return None
        if isinstance(parent, ast.Return):
            return None
        if isinstance(parent, ast.Assign) and len(parent.targets) == 1:
            target = parent.targets[0]
            if isinstance(target, ast.Attribute) and isinstance(
                target.value, ast.Name
            ) and target.value.id in ("self", "cls"):
                return self._judge_self_store(program, info, target.attr)
            if isinstance(target, ast.Name):
                return self._judge_local(info, target.id, parent)
            return None  # tuple-unpack and friends: cannot follow, quiet
        if isinstance(parent, ast.Expr):
            return (
                "result is discarded — the handle leaks immediately; "
                "use `with` or keep a reference you close"
            )
        if isinstance(parent, ast.Attribute):
            return (
                "is used inline without a dominating with/finally; the "
                "handle can never be closed"
            )
        return None

    def _judge_self_store(
        self, program, info: FunctionInfo, attr: str
    ) -> Optional[str]:
        cls = program.index.class_of(info)
        if cls is None:
            return None
        for disposal in _DISPOSALS:
            if program.index.resolve_method(cls, disposal) is not None:
                return None
        return (
            f"is stored on self.{attr} but class {cls.name} defines no "
            "close()/shutdown()/__exit__ — nothing can ever release it"
        )

    def _judge_local(
        self, info: FunctionInfo, name: str, assign: ast.Assign
    ) -> Optional[str]:
        closed_on_happy_path = False
        for node in ast.walk(info.node):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Call):
                        if any(
                            isinstance(arg, ast.Name) and arg.id == name
                            for arg in expr.args
                        ):
                            return None  # with closing(x):
                        continue
                    if isinstance(expr, ast.Name) and expr.id == name:
                        return None  # with x:
            if isinstance(node, ast.Return) and self._mentions(node.value, name):
                return None
            if isinstance(node, ast.Try):
                for final_stmt in node.finalbody:
                    if self._has_disposal(final_stmt, name):
                        return None
            if isinstance(node, ast.Call):
                if self._is_disposal_call(node, name):
                    closed_on_happy_path = True
                elif any(
                    isinstance(arg, ast.Name) and arg.id == name
                    for arg in list(node.args)
                    + [kw.value for kw in node.keywords]
                ):
                    return None  # handed to another owner
            if isinstance(node, ast.Assign):
                if node is not assign and self._mentions(node.value, name):
                    return None  # re-stored (self.x = handle, dict entry...)
        if closed_on_happy_path:
            return (
                f"assigned to {name!r} is closed only on the happy path; "
                "an exception before the close leaks it — use with/finally"
            )
        return (
            f"assigned to {name!r} is never closed in this function and "
            "never escapes it"
        )

    @staticmethod
    def _mentions(node: Optional[ast.AST], name: str) -> bool:
        """Whether ``name``'s *value* escapes through this expression.

        Occurrences as an attribute receiver (``pool.submit(...)``) are
        method calls *on* the resource, not transfers *of* it — counting
        them would make any use of the handle look like an escape.
        """
        if node is None:
            return False
        receivers = {
            id(child.value)
            for child in ast.walk(node)
            if isinstance(child, ast.Attribute)
        }
        return any(
            isinstance(child, ast.Name)
            and child.id == name
            and id(child) not in receivers
            for child in ast.walk(node)
        )

    @staticmethod
    def _is_disposal_call(node: ast.Call, name: str) -> bool:
        return (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _DISPOSALS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == name
        )

    @classmethod
    def _has_disposal(cls, stmt: ast.AST, name: str) -> bool:
        return any(
            isinstance(node, ast.Call) and cls._is_disposal_call(node, name)
            for node in ast.walk(stmt)
        )


# ---------------------------------------------------------------------------
# FLOW004


class LockedContractRule(FlowRule):
    id = "FLOW004"
    title = "call to a *_locked method without holding the lock"
    rationale = (
        "The `_locked` suffix is the tree's lock-transfer contract: such "
        "a method mutates shared state and documents that *every caller* "
        "already holds the owning lock (CONC001 exempts their bodies on "
        "that promise). This rule is the promise's enforcement — each "
        "resolved call site must sit inside `with <lock>:` or inside "
        "another *_locked function, across any call depth."
    )
    example = "def flush(self):\n    self._refill_locked()   # no with self._lock"

    def check(self, program) -> Iterator[Finding]:
        for key, info in sorted(program.index.functions.items()):
            if not info.name.endswith("_locked"):
                continue
            yield from self._check_reacquire(info)
            for site in program.graph.sites_by_callee.get(key, ()):
                if site.lock_depth > 0:
                    continue
                if site.caller.name.endswith("_locked"):
                    continue
                yield self.finding(
                    site.caller.ctx.rel, site.node,
                    f"{site.caller.qualname}() calls {info.qualname}() "
                    "without holding the lock; *_locked methods require "
                    "every caller to enter `with <lock>:` first",
                )

    def _check_reacquire(self, info: FunctionInfo) -> Iterator[Finding]:
        from repro.statcheck.astutil import walk_with_lock_depth

        for node, depth in walk_with_lock_depth(info.node):
            if depth > 0 and isinstance(node, (ast.With, ast.AsyncWith)):
                yield self.finding(
                    info.ctx.rel, node,
                    f"{info.qualname}() acquires a lock, but its _locked "
                    "suffix promises callers already hold it — "
                    "non-reentrant locks deadlock here",
                )
                return


#: Every flow rule class, in reporting order.
FLOW_RULE_CLASSES: Tuple[type, ...] = (
    SeedProvenanceRule,
    ExceptionEscapeRule,
    ResourceLifecycleRule,
    LockedContractRule,
)

__all__ = [
    "FLOW_RULE_CLASSES",
    "FlowRule",
    "ExceptionEscapeRule",
    "LockedContractRule",
    "ResourceLifecycleRule",
    "SeedProvenanceRule",
]
