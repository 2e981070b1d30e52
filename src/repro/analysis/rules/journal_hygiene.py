"""Write-ahead ordering rule for the campaign journal (``repro.journal``).

``journal-hygiene``: crash recovery replays the journal, so a state
mutation that can execute *before* its transition record is durable is a
recovery hole — a crash in between leaves the campaign state ahead of the
log, and the resumed run diverges.  The contract, concretely:

every assignment to a ``.state`` attribute in a function that also
appends to the trace/journal must be *dominated* by the append — on all
CFG paths, exception edges included.  (The in-memory ``transitions``
list is deliberately not a tracked mutation: an unjournaled campaign
legally appends to it with no journal attached, and a branch-insensitive
may-analysis cannot see the ``journal is None`` guard.)

The rule runs the forward may-analysis from
:mod:`repro.analysis.dataflow` per function: the entry fact is
``{"unjournaled"}``, killed by a journal/trace append node; any mutation
node whose input fact still contains ``"unjournaled"`` has a path from
entry that mutates before logging.  Exception edges propagate the input
fact — "the append raised, so nothing became durable" — which is exactly
the write-ahead semantics: a handler that mutates state after a failed
append is flagged too.
"""

import ast
from typing import Iterable, List, Optional, Tuple

from repro.analysis.cfg import CFGNode, build_cfg, payload_exprs
from repro.analysis.dataflow import solve_forward
from repro.analysis.engine import Rule, register_rule
from repro.analysis.findings import Finding
from repro.analysis.project import Project, SourceModule

#: modules held to write-ahead ordering (path prefixes under the package);
#: the live composite is ``HostRecord.transition`` in ``fleet/state.py``
JOURNAL_SCOPE = ("fleet/",)

#: durable-append verbs on a trace/journal receiver
APPEND_ATTRS = frozenset({
    "append", "transition", "wave_barrier", "checkpoint", "commit",
})

#: receiver names that identify the trace/journal (``trace.append``,
#: ``self.journal.transition``, ...)
APPEND_RECEIVERS = frozenset({"trace", "journal", "_journal"})

#: the fact meaning "no append has happened yet on some path here"
UNJOURNALED = "unjournaled"


def _terminal_name(expr: ast.expr) -> Optional[str]:
    """``trace`` for ``trace``, ``journal`` for ``self.journal``."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _append_calls(node: CFGNode) -> List[int]:
    """Lines of durable trace/journal appends performed by this node."""
    lines: List[int] = []
    for expr in payload_exprs(node.payload):
        for sub in ast.walk(expr):
            if (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in APPEND_ATTRS
                    and _terminal_name(sub.func.value) in APPEND_RECEIVERS):
                lines.append(sub.lineno)
    return lines


def _state_mutations(node: CFGNode) -> List[Tuple[str, int]]:
    """``(description, line)`` for state mutations this node performs."""
    mutations: List[Tuple[str, int]] = []
    for expr in payload_exprs(node.payload):
        for sub in ast.walk(expr):
            if isinstance(sub, (ast.Assign, ast.AugAssign)):
                targets = (sub.targets if isinstance(sub, ast.Assign)
                           else [sub.target])
                for target in targets:
                    if isinstance(target, ast.Attribute) \
                            and target.attr == "state":
                        mutations.append((
                            f"assignment to "
                            f"'{_describe_target(target)}'",
                            sub.lineno,
                        ))
    return mutations


def _describe_target(target: ast.Attribute) -> str:
    base = _terminal_name(target.value)
    return f"{base}.{target.attr}" if base else target.attr


def _functions(module: SourceModule):
    def walk(node, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{prefix}{child.name}", child
                yield from walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")

    yield from walk(module.tree, "")


@register_rule
class JournalHygieneRule(Rule):
    name = "journal-hygiene"
    description = (
        "in functions that journal, every state mutation is preceded by "
        "the trace/journal append on all CFG paths (write-ahead ordering)"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            if not module.path.startswith(JOURNAL_SCOPE):
                continue
            for symbol, func in _functions(module):
                yield from self._check_function(module, symbol, func)

    def _check_function(self, module: SourceModule, symbol: str,
                        func) -> Iterable[Finding]:
        cfg = build_cfg(func)
        appends = {node.index: _append_calls(node) for node in cfg.nodes}
        mutations = {node.index: _state_mutations(node)
                     for node in cfg.nodes}
        if not any(appends.values()) or not any(mutations.values()):
            return  # the function is not a journaling/mutating composite

        def transfer(node: CFGNode, fact):
            if appends[node.index]:
                return fact - {UNJOURNALED}
            return fact

        solution = solve_forward(cfg, frozenset({UNJOURNALED}), transfer)
        for node in cfg.nodes:
            if not solution.reachable(node.index):
                continue
            if UNJOURNALED not in solution.in_fact(node.index):
                continue
            for description, line in mutations[node.index]:
                yield self.finding(
                    module.path, line,
                    f"{description} can execute before the transition "
                    f"reaches the trace/journal on some path; a crash in "
                    f"between leaves recovery replaying a log that is "
                    f"behind the state it must rebuild — append first",
                    symbol=symbol)
