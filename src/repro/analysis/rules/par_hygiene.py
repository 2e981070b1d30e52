"""Parallel-execution hygiene rules (the ``repro.par`` contract).

``par-entrypoint-hygiene``: worker entrypoints cross a spawn boundary by
*name* — the worker imports ``module:function`` fresh.  A lambda, a
nested function, or a bound method passed to ``func_ref`` /
``ParallelRunner.map_tasks`` / ``Task(func=...)`` fails only at runtime
(and only on the pooled path, so ``workers=1`` tests never see it); this
rule flags it statically.

``par-payload-hygiene``: task payloads must be plain data.  A payload
expression that captures a live ``SimClock`` or ``Engine`` ships
per-process simulation state through a pickle boundary; the copy
that materializes in the worker is a *different* clock/engine, so the
shard silently diverges from the serial run.  Workers must construct
their own from seeds (see ``docs/parallelism.md``).
"""

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.engine import Rule, register_rule
from repro.analysis.findings import Finding
from repro.analysis.project import Project, SourceModule

#: calls whose first function-ish argument must be a module-level function
ENTRYPOINT_SINKS = frozenset({"func_ref", "map_tasks"})

#: constructors of live simulation objects that must never ride a payload
LIVE_CONSTRUCTORS = frozenset({"SimClock", "Engine"})


def _nested_callable_names(tree: ast.Module) -> Set[str]:
    """Names of functions that are NOT importable module-level entrypoints:
    defs nested inside other functions, and lambda-valued assignments."""
    nested: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                if sub is node:
                    continue
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    nested.add(sub.name)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    nested.add(target.id)
    return nested


def _entrypoint_arg(call: ast.Call) -> Optional[ast.expr]:
    """The function argument of an entrypoint sink call, if this is one."""
    name = None
    if isinstance(call.func, ast.Name):
        name = call.func.id
    elif isinstance(call.func, ast.Attribute):
        name = call.func.attr
    if name in ENTRYPOINT_SINKS:
        if call.args:
            return call.args[0]
        for keyword in call.keywords:
            if keyword.arg == "fn":
                return keyword.value
        return None
    if name == "Task":
        for keyword in call.keywords:
            if keyword.arg == "func":
                return keyword.value
        if call.args:
            return call.args[0]
    return None


@register_rule
class ParEntrypointHygieneRule(Rule):
    name = "par-entrypoint-hygiene"
    description = (
        "worker entrypoints passed to func_ref/map_tasks/Task must be "
        "module-level functions, never lambdas, nested defs or methods"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            yield from self._check_module(module)

    def _check_module(self, module: SourceModule) -> Iterable[Finding]:
        nested = _nested_callable_names(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            arg = _entrypoint_arg(node)
            if arg is None:
                continue
            problem = self._describe_problem(arg, nested)
            if problem:
                yield self.finding(
                    module.path, arg.lineno,
                    f"{problem}; workers import entrypoints by "
                    f"'module:function' name, so only module-level "
                    f"functions are referable",
                    symbol=self._symbol(arg))

    @staticmethod
    def _describe_problem(arg: ast.expr, nested: Set[str]) -> Optional[str]:
        if isinstance(arg, ast.Lambda):
            return "worker entrypoint is a lambda"
        if isinstance(arg, ast.Name) and arg.id in nested:
            return (f"worker entrypoint {arg.id!r} is a nested function "
                    f"or lambda-valued name")
        if isinstance(arg, ast.Attribute) \
                and isinstance(arg.value, ast.Name) \
                and arg.value.id in ("self", "cls"):
            return f"worker entrypoint {arg.attr!r} is a bound method"
        return None

    @staticmethod
    def _symbol(arg: ast.expr) -> str:
        if isinstance(arg, ast.Name):
            return arg.id
        if isinstance(arg, ast.Attribute):
            return arg.attr
        return "<lambda>"


def _live_bindings(tree: ast.Module) -> Dict[str, Tuple[str, int]]:
    """name -> (constructor, line) for variables assigned from a live
    simulation-object constructor anywhere in the module."""
    bindings: Dict[str, Tuple[str, int]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if isinstance(value, ast.Call):
            ctor = None
            if isinstance(value.func, ast.Name) \
                    and value.func.id in LIVE_CONSTRUCTORS:
                ctor = value.func.id
            elif isinstance(value.func, ast.Attribute) \
                    and value.func.attr in LIVE_CONSTRUCTORS:
                ctor = value.func.attr
            if ctor:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bindings[target.id] = (ctor, node.lineno)
    return bindings


def _payload_args(call: ast.Call) -> List[ast.expr]:
    """The payload expression(s) of a par sink call, if this is one."""
    name = None
    if isinstance(call.func, ast.Name):
        name = call.func.id
    elif isinstance(call.func, ast.Attribute):
        name = call.func.attr
    if name == "map_tasks":
        payloads = [kw.value for kw in call.keywords
                    if kw.arg == "payloads"]
        if payloads:
            return payloads
        return list(call.args[1:2])
    if name == "Task":
        payloads = [kw.value for kw in call.keywords if kw.arg == "payload"]
        if payloads:
            return payloads
        return list(call.args[1:2])
    return []


@register_rule
class ParPayloadHygieneRule(Rule):
    name = "par-payload-hygiene"
    description = (
        "task payloads must be plain data: no SimClock or Engine may "
        "cross the worker pipe"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            yield from self._check_module(module)

    def _check_module(self, module: SourceModule) -> Iterable[Finding]:
        live = _live_bindings(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            for payload in _payload_args(node):
                yield from self._check_payload(module, payload, live)

    def _check_payload(self, module: SourceModule, payload: ast.expr,
                       live: Dict[str, Tuple[str, int]]
                       ) -> Iterable[Finding]:
        for sub in ast.walk(payload):
            if isinstance(sub, ast.Call):
                ctor = None
                if isinstance(sub.func, ast.Name) \
                        and sub.func.id in LIVE_CONSTRUCTORS:
                    ctor = sub.func.id
                elif isinstance(sub.func, ast.Attribute) \
                        and sub.func.attr in LIVE_CONSTRUCTORS:
                    ctor = sub.func.attr
                if ctor:
                    yield self.finding(
                        module.path, sub.lineno,
                        f"task payload constructs a live {ctor}; ship a "
                        f"seed and build it inside the worker instead",
                        symbol=ctor)
            elif isinstance(sub, ast.Name) and sub.id in live:
                ctor, _ = live[sub.id]
                yield self.finding(
                    module.path, sub.lineno,
                    f"task payload captures {sub.id!r}, a live {ctor}; "
                    f"ship a seed and build it inside the worker instead",
                    symbol=sub.id)
