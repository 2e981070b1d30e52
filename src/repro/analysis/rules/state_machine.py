"""State-machine conformance over the declared ``HostState`` relation.

``fleet/state.py`` declares the per-host transplant lifecycle twice: the
``LEGAL_TRANSITIONS`` relation that ``HostRecord.transition`` enforces at
runtime, and the ``terminal`` property.  This rule extracts both plus the
initial state (the ``HostRecord.state`` default) and proves:

* **relation structure** — every ``HostState`` member appears in the
  relation, terminal states are absorbing (no outgoing edges) and
  vice-versa, every state is reachable from the initial state, and every
  non-terminal state can reach a terminal one (no livelock pockets);
* **conformance** — every ``record.transition(HostState.X, ...)``
  performed in the controller module is legal from at least one
  state that may flow into that call site.  The may-in set is computed
  with the forward dataflow solver over per-method CFGs, propagated
  through ``self._helper()`` calls, so a transition that *no* path can
  legally perform is flagged while branch-correlated protocols (retry
  loops, rollback joins) stay quiet.

The runtime check in ``HostRecord.transition`` catches an illegal edge
only on the seeds that reach it; this rule catches it on every tree.
"""

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.analysis.cfg import CFGNode, build_cfg, payload_exprs, \
    walk_runtime
from repro.analysis.dataflow import solve_forward
from repro.analysis.engine import Rule, register_rule
from repro.analysis.findings import Finding
from repro.analysis.project import Project, SourceModule

#: where the relation is declared and where transitions are performed.
DECLARATION_PATH = "fleet/state.py"
CONFORMANCE_PATHS = ("fleet/controller.py",)

ENUM_NAME = "HostState"
RELATION_NAME = "LEGAL_TRANSITIONS"
RECORD_CLASS = "HostRecord"


class _Declaration:
    """The extracted state machine: members, edges, terminals, initial."""

    def __init__(self, module: SourceModule, members: Dict[str, int],
                 relation: Dict[str, FrozenSet[str]],
                 relation_lines: Dict[str, int],
                 declared_terminal: Optional[FrozenSet[str]],
                 initial: str, relation_line: int):
        self.module = module
        self.members = members              # member -> def line
        self.relation = relation            # member -> successor members
        self.relation_lines = relation_lines  # relation key -> line
        self.declared_terminal = declared_terminal
        self.initial = initial
        self.relation_line = relation_line

    @property
    def terminal(self) -> FrozenSet[str]:
        """Terminal = declared with no outgoing edges (the absorbing check
        compares this against the ``terminal`` property's declaration).
        Members missing from the relation entirely are excluded — that is
        its own finding, and cascading it here would double-report."""
        return frozenset(
            member for member in self.members
            if member in self.relation and not self.relation[member]
        )


def _enum_members(cls: ast.ClassDef) -> Dict[str, int]:
    members: Dict[str, int] = {}
    for stmt in cls.body:
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Constant)):
            members[stmt.targets[0].id] = stmt.lineno
    return members


def _member_ref(expr: ast.expr) -> Optional[str]:
    """``HostState.X`` -> ``"X"``."""
    if (isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name)
            and expr.value.id == ENUM_NAME):
        return expr.attr
    return None


def _member_set(expr: ast.expr,
                module_sets: Dict[str, FrozenSet[str]]
                ) -> Optional[FrozenSet[str]]:
    """Evaluate a set-of-members expression: ``frozenset({A, B})``,
    ``{A, B}``, ``frozenset()`` or a module-level name bound to one."""
    if isinstance(expr, ast.Name):
        return module_sets.get(expr.id)
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name) \
            and expr.func.id in ("frozenset", "set"):
        if not expr.args:
            return frozenset()
        return _member_set(expr.args[0], module_sets)
    if isinstance(expr, (ast.Set, ast.Tuple, ast.List)):
        members = []
        for element in expr.elts:
            member = _member_ref(element)
            if member is None:
                return None
            members.append(member)
        return frozenset(members)
    return None


def _extract_declaration(module: SourceModule) -> Optional[_Declaration]:
    enum_cls = None
    record_cls = None
    relation_assign = None
    module_sets: Dict[str, FrozenSet[str]] = {}
    for stmt in module.tree.body:
        if isinstance(stmt, ast.ClassDef):
            if stmt.name == ENUM_NAME:
                enum_cls = stmt
            elif stmt.name == RECORD_CLASS:
                record_cls = stmt
            continue
        # The relation may be a plain or an annotated assignment.
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            name, value_expr = stmt.targets[0].id, stmt.value
        elif isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name) \
                and stmt.value is not None:
            name, value_expr = stmt.target.id, stmt.value
        else:
            continue
        if name == RELATION_NAME:
            relation_assign = stmt
        else:
            value = _member_set(value_expr, module_sets)
            if value is not None:
                module_sets[name] = value
    if enum_cls is None or relation_assign is None \
            or not isinstance(relation_assign.value, ast.Dict):
        return None

    members = _enum_members(enum_cls)
    relation: Dict[str, FrozenSet[str]] = {}
    relation_lines: Dict[str, int] = {}
    for key, value in zip(relation_assign.value.keys,
                          relation_assign.value.values):
        member = _member_ref(key) if key is not None else None
        if member is None:
            continue
        successors = _member_set(value, module_sets)
        relation[member] = successors if successors is not None \
            else frozenset()
        relation_lines[member] = key.lineno

    declared_terminal = _declared_terminal(enum_cls)
    initial = _initial_state(record_cls, members, relation)
    return _Declaration(module, members, relation, relation_lines,
                        declared_terminal, initial,
                        relation_assign.lineno)


def _declared_terminal(enum_cls: ast.ClassDef) -> Optional[FrozenSet[str]]:
    """Members the ``terminal`` property tests against, if parseable."""
    for stmt in enum_cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "terminal":
            members: Set[str] = set()
            for sub in ast.walk(stmt):
                member = _member_ref(sub) if isinstance(sub, ast.Attribute) \
                    else None
                if member is not None:
                    members.add(member)
            return frozenset(members)
    return None


def _initial_state(record_cls: Optional[ast.ClassDef],
                   members: Dict[str, int],
                   relation: Dict[str, FrozenSet[str]]) -> str:
    if record_cls is not None:
        for stmt in record_cls.body:
            if (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.target.id == "state"
                    and stmt.value is not None):
                member = _member_ref(stmt.value)
                if member is not None:
                    return member
    # Fallback: a state no edge targets, else the first declared member.
    targeted: Set[str] = set()
    for successors in relation.values():
        targeted |= successors
    for member in members:
        if member not in targeted:
            return member
    return next(iter(members), "")


# -- performed-transition analysis --------------------------------------------


def _transition_target(call: ast.Call) -> Optional[Tuple[str, bool]]:
    """``(member, known)`` for a ``*.transition(...)`` call, else None."""
    if not (isinstance(call.func, ast.Attribute)
            and call.func.attr == "transition" and call.args):
        return None
    member = _member_ref(call.args[0])
    if member is not None:
        return member, True
    return "", False


def _node_steps(node: CFGNode, methods: Dict[str, ast.FunctionDef],
                generators: FrozenSet[str]) -> List[Tuple]:
    """(kind, value, line) steps: transition calls and self-method calls,
    in evaluation order (inner calls before outer).

    A self-call is either a ``call`` (state threads through: plain calls
    and ``yield from`` delegation) or a ``spawn`` (a generator object is
    created and driven elsewhere — e.g. handed to ``engine.spawn`` — so
    the callee is checked with the caller's states as entry, but its
    exit states do *not* flow back into the caller).
    """
    steps: List[Tuple] = []
    delegated = {
        id(sub.value) for expr in payload_exprs(node.payload)
        for sub in walk_runtime(expr) if isinstance(sub, ast.YieldFrom)
    }

    def emit(sub: ast.AST) -> None:
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                            ast.Lambda, ast.ClassDef)):
            return
        for child in ast.iter_child_nodes(sub):
            emit(child)
        if isinstance(sub, ast.Call):
            target = _transition_target(sub)
            if target is not None:
                steps.append(("transition", target, sub.lineno))
            elif (isinstance(sub.func, ast.Attribute)
                    and isinstance(sub.func.value, ast.Name)
                    and sub.func.value.id == "self"
                    and sub.func.attr in methods):
                callee = sub.func.attr
                spawned = (callee in generators
                           and id(sub) not in delegated)
                steps.append(("spawn" if spawned else "call", callee,
                              sub.lineno))

    for expr in payload_exprs(node.payload):
        emit(expr)
    return steps


class _ClassAnalysis:
    """Interprocedural may-state analysis over one class's methods."""

    def __init__(self, module: SourceModule, cls: ast.ClassDef,
                 declaration: _Declaration):
        self.module = module
        self.cls = cls
        self.declaration = declaration
        self.methods: Dict[str, ast.FunctionDef] = {
            stmt.name: stmt for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        self.generators = frozenset(
            name for name, func in self.methods.items()
            if any(isinstance(sub, (ast.Yield, ast.YieldFrom))
                   for sub in walk_runtime(func))
        )
        self.all_states = frozenset(declaration.members)
        # (method, entry fact) -> exit fact; None while being computed
        self._summaries: Dict[Tuple[str, FrozenSet[str]],
                              Optional[FrozenSet[str]]] = {}
        # union of may-in facts seen at each transition site
        self.site_states: Dict[Tuple[str, int, Tuple], Set[str]] = {}

    def run(self) -> None:
        called: Set[str] = set()
        for func in self.methods.values():
            for sub in ast.walk(func):
                if (isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and isinstance(sub.func.value, ast.Name)
                        and sub.func.value.id == "self"
                        and sub.func.attr in self.methods):
                    called.add(sub.func.attr)
        roots = [name for name in sorted(self.methods)
                 if name not in called]
        entry = frozenset({self.declaration.initial})
        for root in roots:
            self._summary(root, entry)
        # Methods only reachable through call cycles (or dead): analyze
        # with the widest entry so their transitions are still checked.
        for name in sorted(self.methods):
            if self._performs_transition(name) and not any(
                    key[0] == name for key in self._summaries):
                self._summary(name, self.all_states)

    def _performs_transition(self, name: str) -> bool:
        for sub in ast.walk(self.methods[name]):
            if isinstance(sub, ast.Call) \
                    and _transition_target(sub) is not None:
                return True
        return False

    def _summary(self, name: str,
                 entry: FrozenSet[str]) -> FrozenSet[str]:
        key = (name, entry)
        if key in self._summaries:
            cached = self._summaries[key]
            # In-progress (recursion): approximate with the entry states.
            return cached if cached is not None else entry
        self._summaries[key] = None
        func = self.methods[name]
        cfg = build_cfg(func)
        steps = {node.index: _node_steps(node, self.methods,
                                         self.generators)
                 for node in cfg.nodes}

        def apply_steps(node: CFGNode, fact: FrozenSet[str],
                        record_sites: bool) -> FrozenSet[str]:
            states = fact
            for kind, value, line in steps[node.index]:
                if kind == "transition":
                    if record_sites:
                        site = (name, line, value)
                        self.site_states.setdefault(site,
                                                    set()).update(states)
                    member, known = value
                    states = frozenset({member}) if known \
                        else self.all_states
                elif kind == "call":
                    states = self._summary(value, states)
                else:  # spawn: check the callee, keep the caller's states
                    self._summary(value, states)
            return states

        def transfer(node: CFGNode, fact: FrozenSet[str]) -> FrozenSet[str]:
            return apply_steps(node, fact, record_sites=False)

        solution = solve_forward(cfg, entry, transfer)

        # Record the may-in states at each transition site.
        for node in cfg.nodes:
            if solution.reachable(node.index):
                apply_steps(node, solution.in_fact(node.index),
                            record_sites=True)

        # Only normal exits feed the caller's continuation: on an
        # exception path the caller does not continue at all.
        if solution.reachable(cfg.exit):
            result = frozenset(solution.in_fact(cfg.exit))
        else:
            result = entry
        self._summaries[key] = result
        return result


@register_rule
class StateMachineConformanceRule(Rule):
    name = "state-machine-conformance"
    description = (
        "every HostState transition performed by the fleet layer is "
        "declared in LEGAL_TRANSITIONS, terminal states are absorbing, "
        "and the declared relation has no unreachable or livelocked "
        "states"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        declaration_module = project.get(DECLARATION_PATH)
        if declaration_module is None:
            return
        declaration = _extract_declaration(declaration_module)
        if declaration is None:
            return
        yield from self._check_relation(declaration)
        for path in CONFORMANCE_PATHS:
            module = project.get(path)
            if module is None:
                continue
            yield from self._check_module(module, declaration)

    # -- declared relation structure ------------------------------------

    def _check_relation(self, decl: _Declaration) -> Iterable[Finding]:
        path = decl.module.path
        for member in sorted(decl.members):
            if member not in decl.relation:
                yield self.finding(
                    path, decl.relation_line,
                    f"state {ENUM_NAME}.{member} has no entry in "
                    f"{RELATION_NAME}; every state needs a declared "
                    f"(possibly empty) successor set", symbol=ENUM_NAME)
        for member in sorted(decl.relation):
            if member not in decl.members:
                yield self.finding(
                    path, decl.relation_lines[member],
                    f"{RELATION_NAME} declares transitions for unknown "
                    f"state {ENUM_NAME}.{member}", symbol=ENUM_NAME)
            for successor in sorted(decl.relation[member]):
                if successor not in decl.members:
                    yield self.finding(
                        path, decl.relation_lines[member],
                        f"{RELATION_NAME}[{ENUM_NAME}.{member}] targets "
                        f"unknown state {ENUM_NAME}.{successor}",
                        symbol=ENUM_NAME)

        terminal = decl.terminal
        if decl.declared_terminal is not None:
            for member in sorted(decl.declared_terminal - terminal):
                if member not in decl.members:
                    continue
                yield self.finding(
                    path, decl.relation_lines.get(member,
                                                  decl.relation_line),
                    f"{ENUM_NAME}.{member} is declared terminal but has "
                    f"outgoing transitions; terminal states must be "
                    f"absorbing", symbol=ENUM_NAME)
            for member in sorted(terminal - decl.declared_terminal):
                yield self.finding(
                    path, decl.relation_lines.get(member,
                                                  decl.relation_line),
                    f"{ENUM_NAME}.{member} has no outgoing transitions "
                    f"but the terminal property does not include it",
                    symbol=ENUM_NAME)

        known = {m for m in decl.members if m in decl.relation}
        reachable = self._closure({decl.initial}, decl.relation)
        for member in sorted(known - reachable):
            yield self.finding(
                path, decl.relation_lines.get(member, decl.relation_line),
                f"state {ENUM_NAME}.{member} is unreachable from the "
                f"initial state {ENUM_NAME}.{decl.initial}",
                symbol=ENUM_NAME)
        for member in sorted(known - terminal):
            if not self._closure({member}, decl.relation) & terminal:
                yield self.finding(
                    path,
                    decl.relation_lines.get(member, decl.relation_line),
                    f"non-terminal state {ENUM_NAME}.{member} cannot "
                    f"reach any terminal state; hosts entering it are "
                    f"livelocked", symbol=ENUM_NAME)

    @staticmethod
    def _closure(seed: Set[str],
                 relation: Dict[str, FrozenSet[str]]) -> Set[str]:
        seen = set(seed)
        frontier = list(seed)
        while frontier:
            state = frontier.pop()
            for successor in relation.get(state, frozenset()):
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)
        return seen

    # -- performed transitions ------------------------------------------

    def _check_module(self, module: SourceModule,
                      decl: _Declaration) -> Iterable[Finding]:
        for stmt in module.tree.body:
            if not isinstance(stmt, ast.ClassDef):
                continue
            analysis = _ClassAnalysis(module, stmt, decl)
            if not any(analysis._performs_transition(name)
                       for name in analysis.methods):
                continue
            analysis.run()
            for site in sorted(analysis.site_states):
                method, line, (member, known) = site
                states = analysis.site_states[site]
                symbol = f"{stmt.name}.{method}"
                if not known:
                    yield self.finding(
                        module.path, line,
                        f"transition target is not a {ENUM_NAME} member "
                        f"expression; the conformance check cannot "
                        f"verify it", symbol=symbol)
                    continue
                if member not in decl.members:
                    yield self.finding(
                        module.path, line,
                        f"transition to unknown state "
                        f"{ENUM_NAME}.{member}", symbol=symbol)
                    continue
                if states and not any(
                        member in decl.relation.get(state, frozenset())
                        for state in states):
                    origin = ", ".join(sorted(states))
                    yield self.finding(
                        module.path, line,
                        f"undeclared transition to {ENUM_NAME}.{member}: "
                        f"no state that may reach this call "
                        f"({{{origin}}}) has a declared edge to it",
                        symbol=symbol)
