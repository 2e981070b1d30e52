"""Per-function control-flow graphs for the protocol verifier.

The shallow AST rules in ``repro.analysis.rules`` see one statement at a
time; the protocol rules (lock order, state-machine conformance, journal
write-ahead ordering) need to reason about *paths* — which resources may
be held at an ``acquire``, which states can flow into a ``transition``
call.  This module lowers one ``ast.FunctionDef`` into a
statement-level CFG suitable for the forward dataflow solver in
:mod:`repro.analysis.dataflow`.

Shape of the graph
------------------

* One node per *simple* statement; compound statements contribute a node
  for the part evaluated at runtime (the ``if``/``while`` test, the
  ``for`` iterable, the ``with`` items) plus structure edges.
* Three synthetic nodes: ``entry``, ``exit`` (normal returns and
  fall-through) and ``raise`` (exceptions escaping the function).
* Edges are either *normal* (``succ``) or *exception* (``exc_succ``).
  The dataflow solver propagates a node's **input** fact along exception
  edges — "the statement raised, its effects did not happen" — and its
  output fact along normal edges.
* ``with`` blocks get a synthetic ``with-exit`` node through which normal
  fall-through, abrupt jumps (``return``/``break``/``continue``) and
  exception unwinds all route, because ``__exit__`` runs on every one of
  those paths.  The same routing applies to ``finally`` suites.
* Generator suspension points (``yield``/``yield from``) are not control
  transfers; a rule that cares reads them off the node payload.

May-raise model
---------------

A node may raise iff its runtime payload contains an ``ast.Call``,
``ast.Raise`` or ``ast.Assert`` — attribute access, subscripts and
arithmetic are assumed total, otherwise every statement would sprout an
exception edge.
"""

import ast
from typing import List, Optional, Sequence, Tuple

__all__ = ["CFGNode", "CFG", "build_cfg", "payload_exprs"]

#: node kinds a builder produces (documented for rule authors).
NODE_KINDS = (
    "entry", "exit", "raise",
    "stmt", "branch", "for-iter", "with-enter", "with-exit",
    "except", "finally",
)


class CFGNode:
    """One CFG node: a payload AST plus normal/exception successor sets."""

    __slots__ = ("index", "kind", "payload", "line", "succ", "exc_succ")

    def __init__(self, index: int, kind: str, payload, line: int):
        self.index = index
        self.kind = kind
        self.payload = payload  # ast node, list of withitems, or None
        self.line = line
        self.succ: List[int] = []
        self.exc_succ: List[int] = []

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"CFGNode({self.index}, {self.kind!r}, line={self.line}, "
                f"succ={self.succ}, exc={self.exc_succ})")


class CFG:
    """The graph for one function: nodes plus the three synthetic indices."""

    def __init__(self, func, nodes: List[CFGNode], entry: int, exit: int,
                 raise_exit: int):
        self.func = func
        self.nodes = nodes
        self.entry = entry
        self.exit = exit
        self.raise_exit = raise_exit

    def node(self, index: int) -> CFGNode:
        return self.nodes[index]


def payload_exprs(payload) -> List[ast.AST]:
    """The AST nodes a CFG node evaluates, as a list (handles with-items)."""
    if payload is None:
        return []
    if isinstance(payload, list):
        out = []
        for item in payload:
            out.append(item.context_expr)
        return out
    return [payload]


def walk_runtime(node: ast.AST):
    """``ast.walk`` that does not descend into nested function/class bodies.

    Code inside a nested ``def``/``lambda`` runs when *that* object is
    called, not when the enclosing statement executes, so its calls and
    yields must not count as events of this statement.
    """
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda, ast.ClassDef)):
                continue
            stack.append(child)


def _may_raise(payload) -> bool:
    for expr in payload_exprs(payload):
        for sub in walk_runtime(expr):
            if isinstance(sub, (ast.Call, ast.Raise, ast.Assert)):
                return True
    return False


class _Cleanup:
    """One entry of the cleanup stack: a ``finally`` suite or a ``with``
    exit that abrupt jumps and unwinding exceptions must route through."""

    __slots__ = ("kind", "entry", "pending")

    def __init__(self, kind: str, entry: int):
        self.kind = kind          # "finally" | "with" | "loop"
        self.entry = entry        # node index (unused for "loop")
        self.pending: List[int] = []  # targets routed through this cleanup


class _Builder:
    def __init__(self, func):
        self.func = func
        self.nodes: List[CFGNode] = []
        self.entry = self._new("entry", None, getattr(func, "lineno", 0))
        self.exit = self._new("exit", None, getattr(func, "lineno", 0))
        self.raise_exit = self._new("raise", None, getattr(func, "lineno", 0))
        # Stack of exception-target lists; top applies to the current suite.
        self.exc_targets: List[List[int]] = [[self.raise_exit.index]]
        # Cleanup contexts (finally suites / with exits / loop markers).
        self.cleanups: List[_Cleanup] = []
        # (break_targets, continue_target) per enclosing loop.
        self.loops: List[Tuple[List[int], int]] = []

    # -- node/edge helpers ---------------------------------------------------

    def _new(self, kind: str, payload, line: int) -> CFGNode:
        node = CFGNode(len(self.nodes), kind, payload, line)
        self.nodes.append(node)
        return node

    def _stmt_node(self, kind: str, payload, line: int) -> CFGNode:
        node = self._new(kind, payload, line)
        if _may_raise(payload):
            for target in self.exc_targets[-1]:
                if target not in node.exc_succ:
                    node.exc_succ.append(target)
        return node

    def _link(self, frontier: Sequence[int], target: int) -> None:
        for index in frontier:
            succ = self.nodes[index].succ
            if target not in succ:
                succ.append(target)

    # -- abrupt jumps through cleanup contexts -------------------------------

    def _route_abrupt(self, node: CFGNode, target: int,
                      through: Sequence[_Cleanup]) -> None:
        """Connect an abrupt jump, detouring through cleanup suites.

        ``through`` is the innermost-first list of cleanups the jump
        unwinds.  The jump edges into the first cleanup; each cleanup's
        exit later gains an edge to the next hop (recorded in
        ``pending``).
        """
        hops = [c for c in through if c.kind != "loop"]
        if not hops:
            self._link([node.index], target)
            return
        self._link([node.index], hops[0].entry)
        for current, nxt in zip(hops, hops[1:]):
            current.pending.append(nxt.entry)
        hops[-1].pending.append(target)

    def _cleanups_for_return(self) -> List[_Cleanup]:
        return list(reversed(self.cleanups))

    def _cleanups_for_loop_jump(self) -> List[_Cleanup]:
        out: List[_Cleanup] = []
        for cleanup in reversed(self.cleanups):
            if cleanup.kind == "loop":
                break
            out.append(cleanup)
        return out

    # -- statement lowering --------------------------------------------------

    def seq(self, stmts: Sequence[ast.stmt],
            frontier: List[int]) -> List[int]:
        for stmt in stmts:
            if not frontier:
                break  # unreachable tail (after return/raise/...)
            frontier = self.stmt(stmt, frontier)
        return frontier

    def stmt(self, stmt: ast.stmt, frontier: List[int]) -> List[int]:
        if isinstance(stmt, ast.If):
            return self._if(stmt, frontier)
        if isinstance(stmt, (ast.While,)):
            return self._while(stmt, frontier)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, frontier)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, frontier)
        if isinstance(stmt, ast.Return):
            node = self._stmt_node("stmt", stmt, stmt.lineno)
            self._link(frontier, node.index)
            self._route_abrupt(node, self.exit.index,
                               self._cleanups_for_return())
            return []
        if isinstance(stmt, ast.Raise):
            node = self._stmt_node("stmt", stmt, stmt.lineno)
            self._link(frontier, node.index)
            return []
        if isinstance(stmt, ast.Break):
            node = self._stmt_node("stmt", stmt, stmt.lineno)
            self._link(frontier, node.index)
            if self.loops:
                break_targets, _ = self.loops[-1]
                marker = self._new("stmt", None, stmt.lineno)
                self._route_abrupt(node, marker.index,
                                   self._cleanups_for_loop_jump())
                break_targets.append(marker.index)
            return []
        if isinstance(stmt, ast.Continue):
            node = self._stmt_node("stmt", stmt, stmt.lineno)
            self._link(frontier, node.index)
            if self.loops:
                _, continue_target = self.loops[-1]
                self._route_abrupt(node, continue_target,
                                   self._cleanups_for_loop_jump())
            return []
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            # A nested definition is a binding, not executed body code.
            node = self._new("stmt", None, stmt.lineno)
            self._link(frontier, node.index)
            return [node.index]
        # Simple statement: Expr, Assign, AugAssign, AnnAssign, Assert,
        # Delete, Pass, Import, Global, Nonlocal, ...
        node = self._stmt_node("stmt", stmt, stmt.lineno)
        self._link(frontier, node.index)
        return [node.index]

    def _if(self, stmt: ast.If, frontier: List[int]) -> List[int]:
        test = self._stmt_node("branch", stmt.test, stmt.lineno)
        self._link(frontier, test.index)
        body_out = self.seq(stmt.body, [test.index])
        if stmt.orelse:
            else_out = self.seq(stmt.orelse, [test.index])
        else:
            else_out = [test.index]
        return body_out + else_out

    def _while(self, stmt: ast.While, frontier: List[int]) -> List[int]:
        head = self._stmt_node("branch", stmt.test, stmt.lineno)
        self._link(frontier, head.index)
        break_targets: List[int] = []
        self.loops.append((break_targets, head.index))
        self.cleanups.append(_Cleanup("loop", -1))
        body_out = self.seq(stmt.body, [head.index])
        self._link(body_out, head.index)
        self.cleanups.pop()
        self.loops.pop()
        is_infinite = (isinstance(stmt.test, ast.Constant)
                       and bool(stmt.test.value))
        normal_exit = [] if is_infinite else [head.index]
        if stmt.orelse:
            normal_exit = self.seq(stmt.orelse, normal_exit)
        return normal_exit + break_targets

    def _for(self, stmt, frontier: List[int]) -> List[int]:
        head = self._stmt_node("for-iter", stmt.iter, stmt.lineno)
        self._link(frontier, head.index)
        break_targets: List[int] = []
        self.loops.append((break_targets, head.index))
        self.cleanups.append(_Cleanup("loop", -1))
        body_out = self.seq(stmt.body, [head.index])
        self._link(body_out, head.index)
        self.cleanups.pop()
        self.loops.pop()
        normal_exit = [head.index]
        if stmt.orelse:
            normal_exit = self.seq(stmt.orelse, normal_exit)
        return normal_exit + break_targets

    def _with(self, stmt, frontier: List[int]) -> List[int]:
        enter = self._stmt_node("with-enter", stmt.items, stmt.lineno)
        self._link(frontier, enter.index)
        # Two __exit__ nodes with the same release payload, so a fact that
        # arrived on an exception edge cannot re-enter the normal
        # continuation (and vice versa): ``wexit`` completes the block
        # normally, ``wunwind`` runs __exit__ while an exception keeps
        # unwinding to the outer targets.
        wexit = self._new("with-exit", stmt.items, stmt.lineno)
        wunwind = self._new("with-exit", stmt.items, stmt.lineno)
        outer = list(self.exc_targets[-1])
        self.exc_targets.append([wunwind.index])
        cleanup = _Cleanup("with", wexit.index)
        self.cleanups.append(cleanup)
        body_out = self.seq(stmt.body, [enter.index])
        self.cleanups.pop()
        self.exc_targets.pop()
        self._link(body_out, wexit.index)
        for target in outer:
            self._link([wunwind.index], target)
        for target in cleanup.pending:
            self._link([wexit.index], target)
        return [wexit.index]

    def _try(self, stmt: ast.Try, frontier: List[int]) -> List[int]:
        outer = list(self.exc_targets[-1])
        handler_entries = []
        for handler in stmt.handlers:
            entry = self._new("except", handler.type, handler.lineno)
            handler_entries.append(entry)
        # The finally suite is lowered twice — one copy on the normal
        # (and abrupt-jump) continuation, one on the exception unwind —
        # so facts from the two path families stay separate.
        fin: Optional[_Cleanup] = None
        fin_unwind_entry: Optional[int] = None
        if stmt.finalbody:
            fin_entry = self._new("finally", None, stmt.finalbody[0].lineno)
            fin = _Cleanup("finally", fin_entry.index)
            unwind = self._new("finally", None, stmt.finalbody[0].lineno)
            fin_unwind_entry = unwind.index
        # A body exception may hit a handler, or (no handler matches)
        # unwind through the finally suite and escape.
        body_targets = [entry.index for entry in handler_entries]
        if fin_unwind_entry is not None:
            body_targets = body_targets + [fin_unwind_entry]
        else:
            body_targets = body_targets + outer
        if fin is not None:
            self.cleanups.append(fin)
        self.exc_targets.append(body_targets)
        body_out = self.seq(stmt.body, frontier)
        self.exc_targets.pop()
        if stmt.orelse:
            body_out = self.seq(stmt.orelse, body_out)
        handler_outs: List[int] = []
        handler_targets = ([fin_unwind_entry]
                           if fin_unwind_entry is not None else []) + outer
        self.exc_targets.append(handler_targets)
        for entry, handler in zip(handler_entries, stmt.handlers):
            handler_outs += self.seq(handler.body, [entry.index])
        self.exc_targets.pop()
        if fin is not None:
            self.cleanups.pop()
        after = body_out + handler_outs
        if fin is None:
            return after
        self._link(after, fin.entry)
        fin_out = self.seq(stmt.finalbody, [fin.entry])
        for target in fin.pending:
            self._link(fin_out, target)
        # The unwind copy: the suite runs, then the pending exception
        # continues to the outer targets.
        unwind_out = self.seq(stmt.finalbody, [fin_unwind_entry])
        for target in outer:
            self._link(unwind_out, target)
        return fin_out

    def build(self) -> CFG:
        frontier = self.seq(self.func.body, [self.entry.index])
        self._link(frontier, self.exit.index)
        return CFG(self.func, self.nodes, self.entry.index, self.exit.index,
                   self.raise_exit.index)


def build_cfg(func) -> CFG:
    """Lower one ``ast.FunctionDef``/``AsyncFunctionDef`` to a CFG."""
    return _Builder(func).build()
