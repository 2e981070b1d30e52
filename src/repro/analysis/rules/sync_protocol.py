"""Protocol rules over the fleet's users of the :mod:`repro.sim.engine`
sync primitives.

``sync-protocol`` proves, per function, that every explicit
``FifoSemaphore.acquire()`` reaches a ``release()`` on *all* paths —
including exception edges — that nothing releases a permit it cannot
hold, that ``held()`` scopes are actually ``with`` scopes, and that no
path suspends (``yield``) inside a region the source marks yield-unsafe
with a ``# repro-sync: no-yield`` directive on the acquire line.

``sync-lock-order`` builds the static lock-order graph over each fleet
controller class: an edge ``A -> B`` whenever some path acquires ``B``
(directly or via a ``self._helper()`` call) while holding ``A``.  A cycle
in that graph is a deadlock candidate under the FIFO semantics — two
hosts can each hold one leg and queue on the other forever.

Both rules run the forward may-analysis from
:mod:`repro.analysis.dataflow` over per-function CFGs.  Semaphore
primitives themselves (``acquire``/``release``/``held``/``reserve``) are
trusted not to raise, so the acquire statement itself does not sprout a
spurious exception edge; everything else follows the default may-raise
model.
"""

import ast
import re
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.analysis.cfg import (
    CFGNode, build_cfg, default_may_raise, payload_exprs, walk_runtime,
)
from repro.analysis.dataflow import solve_forward
from repro.analysis.engine import Rule, register_rule
from repro.analysis.findings import Finding
from repro.analysis.project import Project, SourceModule

#: modules whose functions are held to the sync protocol (path prefixes)
SYNC_SCOPE = ("fleet/",)

#: marks the acquire line of a region that must not suspend.
NO_YIELD_DIRECTIVE = re.compile(r"#\s*repro-sync:\s*no-yield\b")

#: method names that start/end a tracked hold.  ``reserve`` is the slot
#: ledger's acquire verb; its release takes the node argument back.
ACQUIRE_METHODS = frozenset({"acquire", "reserve"})
RELEASE_METHODS = frozenset({"release"})
HOLD_METHOD = "held"


def resource_key(expr: ast.expr) -> Optional[str]:
    """A stable name for the receiver of a sync call.

    ``self._link`` -> ``self._link``; per-key maps are widened so every
    element shares one resource: ``self._vm_locks[name]`` ->
    ``self._vm_locks[*]``.  Dynamic receivers (call results) get ``None``
    and are not tracked.
    """
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        base = resource_key(expr.value)
        return f"{base}.{expr.attr}" if base else None
    if isinstance(expr, ast.Subscript):
        base = resource_key(expr.value)
        return f"{base}[*]" if base else None
    return None


# -- event extraction ---------------------------------------------------------
#
# Events are (kind, resource, line) tuples in evaluation order:
#   ("acquire", key, line)    explicit 0-arg FifoSemaphore.acquire()
#   ("reserve", key, line)    slot-ledger reserve(node) — its release is
#                             cross-function (the commit path frees it),
#                             so only the lock-order rule tracks it
#   ("cm-acquire", key, line) held() evaluated as a with-item
#   ("release0", key, line)   explicit 0-arg release() (semaphore)
#   ("releaseN", key, line)   release(args...) (ledger-style)
#   ("cm-release", key, line) synthetic, from the with-exit node
#   ("yield", None, line)     generator suspension point
#   ("held-misuse", key, line) held() anywhere except a with-item


def _expr_events(expr: ast.AST, with_item_calls: Set[int]) -> List[Tuple]:
    events: List[Tuple] = []

    def emit(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            return
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if node.value is not None:
                emit(node.value)
            events.append(("yield", None, node.lineno))
            return
        for child in ast.iter_child_nodes(node):
            emit(child)
        if isinstance(node, ast.Call) and isinstance(node.func,
                                                     ast.Attribute):
            key = resource_key(node.func.value)
            if key is None:
                return
            attr = node.func.attr
            if attr == HOLD_METHOD:
                if id(node) not in with_item_calls:
                    events.append(("held-misuse", key, node.lineno))
            elif attr == "acquire" and not node.args and not node.keywords:
                events.append(("acquire", key, node.lineno))
            elif attr == "reserve":
                events.append(("reserve", key, node.lineno))
            elif attr in RELEASE_METHODS and not node.keywords:
                kind = "release0" if not node.args else "releaseN"
                events.append((kind, key, node.lineno))

    emit(expr)
    return events


def node_events(node: CFGNode) -> List[Tuple]:
    """The sync events a CFG node performs, in evaluation order."""
    if node.kind == "with-exit":
        events: List[Tuple] = []
        for item in reversed(node.payload or []):
            key = _held_item_key(item)
            if key is not None:
                events.append(("cm-release", key, node.line))
        return events
    if node.kind == "with-enter":
        events = []
        held_calls = {id(item.context_expr) for item in (node.payload or [])
                      if _held_item_key(item) is not None}
        for item in node.payload or []:
            key = _held_item_key(item)
            if key is not None:
                # The receiver expression may itself contain events.
                events.extend(
                    _expr_events(item.context_expr.func.value, held_calls))
                events.append(("cm-acquire", key, item.context_expr.lineno))
            else:
                events.extend(_expr_events(item.context_expr, held_calls))
        return events
    events = []
    for expr in payload_exprs(node.payload):
        events.extend(_expr_events(expr, set()))
    return events


def _held_item_key(item: ast.withitem) -> Optional[str]:
    expr = item.context_expr
    if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == HOLD_METHOD):
        return resource_key(expr.func.value)
    return None


def _is_pure_sync_payload(payload) -> bool:
    """True when every call in the payload is a trusted sync primitive."""
    saw_call = False
    for expr in payload_exprs(payload):
        for sub in walk_runtime(expr):
            if isinstance(sub, (ast.Raise, ast.Assert)):
                return False
            if isinstance(sub, ast.Call):
                saw_call = True
                if not (isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in (ACQUIRE_METHODS
                                              | RELEASE_METHODS
                                              | {HOLD_METHOD})
                        and resource_key(sub.func.value) is not None):
                    return False
    return saw_call


def _sync_may_raise(payload) -> bool:
    if _is_pure_sync_payload(payload):
        return False
    return default_may_raise(payload)


def _functions(module: SourceModule) -> Iterable[Tuple[str, ast.FunctionDef]]:
    """Every (qualified name, def) in the module, methods included."""

    def walk(node, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{prefix}{child.name}", child
                yield from walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")

    yield from walk(module.tree, "")


def _no_yield_lines(module: SourceModule) -> Set[int]:
    return {
        index + 1 for index, text in enumerate(module.lines)
        if NO_YIELD_DIRECTIVE.search(text)
    }


# Held fact entries: (resource, acquire_line, no_yield, via_cm)
_Hold = Tuple[str, int, bool, bool]


@register_rule
class SyncProtocolRule(Rule):
    name = "sync-protocol"
    description = (
        "every FifoSemaphore acquire reaches a release on all paths "
        "(exception edges included), no release without a hold, no yield "
        "inside a '# repro-sync: no-yield' region"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            if not module.path.startswith(SYNC_SCOPE):
                continue
            no_yield = _no_yield_lines(module)
            for symbol, func in _functions(module):
                yield from self._check_function(module, symbol, func,
                                                no_yield)

    def _check_function(self, module: SourceModule, symbol: str,
                        func, no_yield: Set[int]) -> Iterable[Finding]:
        if not _mentions_sync(func):
            return
        cfg = build_cfg(func, may_raise=_sync_may_raise)
        events = {node.index: node_events(node) for node in cfg.nodes}
        reported: Set[Tuple] = set()
        findings: List[Finding] = []

        def transfer(node: CFGNode, fact: FrozenSet[_Hold]) -> FrozenSet:
            held = set(fact)
            for kind, key, line in events[node.index]:
                if kind in ("acquire", "cm-acquire"):
                    held.add((key, line, line in no_yield,
                              kind == "cm-acquire"))
                elif kind in ("release0", "cm-release"):
                    held = {h for h in held if h[0] != key}
            return frozenset(held)

        solution = solve_forward(cfg, frozenset(), transfer)

        def report(key: Tuple, finding: Finding) -> None:
            if key not in reported:
                reported.add(key)
                findings.append(finding)

        # One reporting pass with the fixpoint facts.
        for node in cfg.nodes:
            if not solution.reachable(node.index):
                continue
            held = set(solution.in_fact(node.index))
            for kind, key, line in events[node.index]:
                if kind in ("acquire", "cm-acquire"):
                    if ("[" not in key
                            and any(h[0] == key for h in held)):
                        report(
                            ("double-acquire", key, line),
                            self.finding(
                                module.path, line,
                                f"'{key}' may already be held when it is "
                                f"acquired again; a second acquire while "
                                f"holding deadlocks a single-permit "
                                f"semaphore", symbol=symbol))
                    held.add((key, line, line in no_yield,
                              kind == "cm-acquire"))
                elif kind == "release0":
                    if not any(h[0] == key for h in held):
                        report(
                            ("double-release", key, line),
                            self.finding(
                                module.path, line,
                                f"'{key}' is released here but no path "
                                f"holds it — double release or release "
                                f"without acquire", symbol=symbol))
                    held = {h for h in held if h[0] != key}
                elif kind == "cm-release":
                    held = {h for h in held if h[0] != key}
                elif kind == "held-misuse":
                    report(
                        ("held-misuse", key, line),
                        self.finding(
                            module.path, line,
                            f"'{key}.held()' must be the context manager "
                            f"of a 'with' block; calling it anywhere else "
                            f"acquires on __enter__ only", symbol=symbol))
                elif kind == "yield":
                    for res, acq_line, unsafe, _ in sorted(held):
                        if unsafe:
                            report(
                                ("yield-unsafe", res, line),
                                self.finding(
                                    module.path, line,
                                    f"yield while holding '{res}' "
                                    f"(acquired line {acq_line}, marked "
                                    f"no-yield); the region must complete "
                                    f"within one engine event",
                                    symbol=symbol))

        for exit_index, how in ((cfg.exit, "returns"),
                                (cfg.raise_exit, "unwinds on an exception")):
            if not solution.reachable(exit_index):
                continue
            for res, acq_line, _, via_cm in sorted(
                    solution.in_fact(exit_index)):
                if via_cm:
                    continue  # structurally released by the with scope
                report(
                    ("leak", res, acq_line, how),
                    self.finding(
                        module.path, acq_line,
                        f"'{res}' acquired here may still be held when "
                        f"the function {how}; release it on every path "
                        f"or use 'with {res}.held()'", symbol=symbol))

        for finding in sorted(findings,
                              key=lambda f: (f.line, f.message)):
            yield finding


def _mentions_sync(func) -> bool:
    for sub in ast.walk(func):
        if isinstance(sub, ast.Attribute) and sub.attr in (
                ACQUIRE_METHODS | RELEASE_METHODS | {HOLD_METHOD}):
            return True
    return False


# -- lock-order graph ---------------------------------------------------------


@register_rule
class SyncLockOrderRule(Rule):
    name = "sync-lock-order"
    description = (
        "the static lock-order graph over each fleet controller class "
        "must be acyclic; a cycle is a deadlock candidate under FIFO "
        "semaphore semantics"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            if not module.path.startswith(SYNC_SCOPE):
                continue
            for node in module.tree.body:
                if isinstance(node, ast.ClassDef):
                    yield from self._check_class(module, node)

    def _check_class(self, module: SourceModule,
                     cls: ast.ClassDef) -> Iterable[Finding]:
        methods: Dict[str, ast.FunctionDef] = {
            stmt.name: stmt for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if not any(_mentions_sync(func) for func in methods.values()):
            return

        acquires = _transitive(methods, _local_acquires)
        releases = _transitive(methods, _local_releases)
        # edge (held, acquired) -> first line where the pair occurs
        edges: Dict[Tuple[str, str], int] = {}

        for name in sorted(methods):
            cfg = build_cfg(methods[name], may_raise=_sync_may_raise)
            events = {n.index: node_events(n) for n in cfg.nodes}
            calls = {n.index: _self_calls(n, methods) for n in cfg.nodes}

            def transfer(node: CFGNode, fact: FrozenSet[str]) -> FrozenSet:
                held = set(fact)
                for kind, key, _line in events[node.index]:
                    if kind in ("acquire", "reserve", "cm-acquire"):
                        held.add(key)
                    elif kind in ("release0", "releaseN", "cm-release"):
                        held.discard(key)
                # A callee may free resources the caller reserved (the
                # commit path returns the slot ledger's reservation).
                for callee, _line in calls[node.index]:
                    held -= releases.get(callee, frozenset())
                return frozenset(held)

            solution = solve_forward(cfg, frozenset(), transfer)
            for node in cfg.nodes:
                if not solution.reachable(node.index):
                    continue
                held = set(solution.in_fact(node.index))
                for kind, key, line in events[node.index]:
                    if kind in ("acquire", "reserve", "cm-acquire"):
                        for prior in held:
                            if prior != key:
                                edges.setdefault((prior, key), line)
                        held.add(key)
                    elif kind in ("release0", "releaseN", "cm-release"):
                        held.discard(key)
                for callee, line in calls[node.index]:
                    for acquired in acquires.get(callee, frozenset()):
                        for prior in held:
                            if prior != acquired:
                                edges.setdefault((prior, acquired), line)

        yield from self._report_cycles(module, cls, edges)

    def _report_cycles(self, module: SourceModule, cls: ast.ClassDef,
                       edges: Dict[Tuple[str, str], int]
                       ) -> Iterable[Finding]:
        graph: Dict[str, Set[str]] = {}
        for held, acquired in edges:
            graph.setdefault(held, set()).add(acquired)
            graph.setdefault(acquired, set())
        for scc in _strongly_connected(graph):
            cyclic = len(scc) > 1 or (len(scc) == 1
                                      and next(iter(scc)) in
                                      graph[next(iter(scc))])
            if not cyclic:
                continue
            members = sorted(scc)
            line = min(line for (held, acquired), line in edges.items()
                       if held in scc and acquired in scc)
            yield self.finding(
                module.path, line,
                f"lock-order cycle between {{{', '.join(members)}}}: "
                f"some path acquires each while holding another — a "
                f"deadlock candidate under FIFO grant order",
                symbol=cls.name)


def _self_calls(node: CFGNode,
                methods: Dict[str, ast.FunctionDef]
                ) -> List[Tuple[str, int]]:
    calls: List[Tuple[str, int]] = []
    for expr in payload_exprs(node.payload):
        for sub in walk_runtime(expr):
            if (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and isinstance(sub.func.value, ast.Name)
                    and sub.func.value.id == "self"
                    and sub.func.attr in methods):
                calls.append((sub.func.attr, sub.lineno))
    return calls


def _local_acquires(func) -> FrozenSet[str]:
    keys: Set[str] = set()
    for sub in walk_runtime(func):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
            key = resource_key(sub.func.value)
            if key is None:
                continue
            if sub.func.attr in ACQUIRE_METHODS or sub.func.attr == HOLD_METHOD:
                keys.add(key)
    return frozenset(keys)


def _local_releases(func) -> FrozenSet[str]:
    keys: Set[str] = set()
    for sub in walk_runtime(func):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
            key = resource_key(sub.func.value)
            if key is None:
                continue
            if sub.func.attr in RELEASE_METHODS:
                keys.add(key)
    return frozenset(keys)


def _transitive(methods: Dict[str, ast.FunctionDef], local
                ) -> Dict[str, FrozenSet[str]]:
    """Resources each method may touch, following self-method calls."""
    direct = {name: local(func) for name, func in methods.items()}
    callees: Dict[str, Set[str]] = {}
    for name, func in methods.items():
        called: Set[str] = set()
        for sub in ast.walk(func):
            if (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and isinstance(sub.func.value, ast.Name)
                    and sub.func.value.id == "self"
                    and sub.func.attr in methods):
                called.add(sub.func.attr)
        callees[name] = called
    result = dict(direct)
    changed = True
    while changed:
        changed = False
        for name in methods:
            merged = set(result[name])
            for callee in callees[name]:
                merged |= result[callee]
            frozen = frozenset(merged)
            if frozen != result[name]:
                result[name] = frozen
                changed = True
    return result


def _strongly_connected(graph: Dict[str, Set[str]]) -> List[Set[str]]:
    """Tarjan's SCC, iterative, deterministic over sorted nodes."""
    index_counter = [0]
    stack: List[str] = []
    lowlink: Dict[str, int] = {}
    index: Dict[str, int] = {}
    on_stack: Set[str] = set()
    sccs: List[Set[str]] = []

    for root in sorted(graph):
        if root in index:
            continue
        work = [(root, iter(sorted(graph[root])))]
        index[root] = lowlink[root] = index_counter[0]
        index_counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for successor in successors:
                if successor not in index:
                    index[successor] = lowlink[successor] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(sorted(graph[successor]))))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                scc: Set[str] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.add(member)
                    if member == node:
                        break
                sccs.append(scc)
    return sccs
