"""The lock-order rule over the fleet's users of the :mod:`repro.sim.engine`
sync primitives.

``sync-lock-order`` builds the static lock-order graph over each fleet
controller class: an edge ``A -> B`` whenever some path acquires ``B``
(directly or via a ``self._helper()`` call) while holding ``A``.  It
reports three things:

* a cycle in that graph, a deadlock candidate under the FIFO semantics:
  two hosts can each hold one leg and queue on the other forever;
* a self-edge outside any cycle, a resource re-acquired while it may
  already be held (in the same method or through a helper): a
  single-permit FIFO semaphore deadlocks on itself.  Per-key lock maps
  are widened (``self._vm_locks[name]`` -> ``self._vm_locks[*]``) and
  exempt, since two entries are two locks; so is the slot ledger's
  ``reserve(node, host)``, whose node argument picks a per-node slot pool
  the same way;
* ``held()`` used anywhere but as the context manager of a ``with``
  block, where it would acquire on ``__enter__`` only.

The rule runs the forward may-analysis from
:mod:`repro.analysis.dataflow` over per-method CFGs.  It sees lock
orders, not capacity: a host that waits forever in the slot ledger for
a slot that a rolled-back host's returning VMs now fill holds no lock
cycle, and this rule cannot see that wedge; the controller names it at
run time, in the ``FleetError`` of a campaign that never terminates.
"""

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.analysis.cfg import CFGNode, build_cfg, payload_exprs, walk_runtime
from repro.analysis.dataflow import solve_forward
from repro.analysis.engine import Rule, register_rule
from repro.analysis.findings import Finding
from repro.analysis.project import Project, SourceModule

#: modules whose classes are held to the lock order (path prefixes)
SYNC_SCOPE = ("fleet/",)

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
#   ("acquire", key, line)  a 0-arg FifoSemaphore.acquire(), a slot-ledger
#                           reserve(node, host), or held() as a with-item
#   ("release", key, line)  release(...), or the with-exit of a held() item


def _expr_events(expr: ast.AST) -> List[Tuple]:
    events: List[Tuple] = []

    def emit(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            return
        for child in ast.iter_child_nodes(node):
            emit(child)
        if isinstance(node, ast.Call) and isinstance(node.func,
                                                     ast.Attribute):
            key = resource_key(node.func.value)
            if key is None:
                return
            attr = node.func.attr
            if attr == "reserve" or (attr == "acquire" and not node.args
                                     and not node.keywords):
                events.append(("acquire", key, node.lineno))
            elif attr in RELEASE_METHODS and not node.keywords:
                events.append(("release", key, node.lineno))

    emit(expr)
    return events


def node_events(node: CFGNode) -> List[Tuple]:
    """The sync events a CFG node performs, in evaluation order."""
    if node.kind == "with-exit":
        return [("release", key, node.line)
                for key in map(_held_item_key, reversed(node.payload or []))
                if key is not None]
    if node.kind == "with-enter":
        events: List[Tuple] = []
        for item in node.payload or []:
            key = _held_item_key(item)
            if key is not None:
                # The receiver expression may itself contain events.
                events.extend(_expr_events(item.context_expr.func.value))
                events.append(("acquire", key, item.context_expr.lineno))
            else:
                events.extend(_expr_events(item.context_expr))
        return events
    events = []
    for expr in payload_exprs(node.payload):
        events.extend(_expr_events(expr))
    return events


def _held_item_key(item: ast.withitem) -> Optional[str]:
    expr = item.context_expr
    if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == HOLD_METHOD):
        return resource_key(expr.func.value)
    return None


def _mentions_sync(func) -> bool:
    for sub in ast.walk(func):
        if isinstance(sub, ast.Attribute) and sub.attr in (
                ACQUIRE_METHODS | RELEASE_METHODS | {HOLD_METHOD}):
            return True
    return False


def _methods(cls: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    return {
        stmt.name: stmt for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


# -- lock-order graph ---------------------------------------------------------


def lock_order_edges(cls: ast.ClassDef) -> Dict[Tuple[str, str], int]:
    """The class's lock-order graph: ``(held, acquired)`` -> first line.

    Self-edges are kept for resources that can deadlock on themselves
    (not widened, not a slot-ledger reservation).
    """
    methods = _methods(cls)
    acquires = _transitive(methods, _local_acquires)
    releases = _transitive(methods, _local_releases)
    reserved = {
        resource_key(sub.func.value) for func in methods.values()
        for sub in walk_runtime(func)
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
        and sub.func.attr == "reserve"
    }
    edges: Dict[Tuple[str, str], int] = {}

    def add_edges(held: Set[str], acquired: str, line: int) -> None:
        for prior in held:
            if prior == acquired and ("[" in acquired
                                      or acquired in reserved):
                continue  # two map entries or node slots: two resources
            edges.setdefault((prior, acquired), line)

    for name in sorted(methods):
        cfg = build_cfg(methods[name])
        events = {n.index: node_events(n) for n in cfg.nodes}
        calls = {n.index: _self_calls(n, methods) for n in cfg.nodes}

        def transfer(node: CFGNode, fact: FrozenSet[str]) -> FrozenSet:
            held = set(fact)
            for kind, key, _line in events[node.index]:
                if kind == "acquire":
                    held.add(key)
                else:
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
                if kind == "acquire":
                    add_edges(held, key, line)
                    held.add(key)
                else:
                    held.discard(key)
            for callee, line in calls[node.index]:
                for acquired in acquires.get(callee, frozenset()):
                    add_edges(held, acquired, line)
    return edges


def _held_misuses(func) -> List[Tuple[str, int]]:
    """``(resource, line)`` of every ``held()`` call that is not a
    ``with`` item."""
    with_items = {
        id(item.context_expr) for sub in walk_runtime(func)
        if isinstance(sub, (ast.With, ast.AsyncWith)) for item in sub.items
    }
    misuses = []
    for sub in walk_runtime(func):
        if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == HOLD_METHOD
                and id(sub) not in with_items):
            key = resource_key(sub.func.value)
            if key is not None:
                misuses.append((key, sub.lineno))
    return misuses


@register_rule
class SyncLockOrderRule(Rule):
    name = "sync-lock-order"
    description = (
        "the static lock-order graph over each fleet controller class "
        "must be acyclic, no semaphore is re-acquired while held, and "
        "held() is only a with-item"
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
        methods = _methods(cls)
        if not any(_mentions_sync(func) for func in methods.values()):
            return
        for name in sorted(methods):
            for key, line in _held_misuses(methods[name]):
                yield self.finding(
                    module.path, line,
                    f"'{key}.held()' must be the context manager of a "
                    f"'with' block; calling it anywhere else acquires on "
                    f"__enter__ only", symbol=f"{cls.name}.{name}")
        edges = lock_order_edges(cls)
        graph: Dict[str, Set[str]] = {}
        for held, acquired in edges:
            graph.setdefault(held, set()).add(acquired)
            graph.setdefault(acquired, set())
        for scc in _strongly_connected(graph):
            members = sorted(scc)
            if len(members) == 1 and members[0] not in graph[members[0]]:
                continue
            line = min(line for (held, acquired), line in edges.items()
                       if held in scc and acquired in scc)
            if len(members) > 1:
                message = (f"lock-order cycle between "
                           f"{{{', '.join(members)}}}: some path acquires "
                           f"each while holding another — a deadlock "
                           f"candidate under FIFO grant order")
            else:
                message = (f"'{members[0]}' may already be held when it is "
                           f"acquired again; a second acquire while holding "
                           f"deadlocks a single-permit FIFO semaphore")
            yield self.finding(module.path, line, message, symbol=cls.name)


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
