"""UISR field coverage: translation must be lossless in both directions.

``to_uisr`` must populate *every* field of ``UISRVMState`` explicitly
(a field left to its dataclass default is state silently dropped on the
way into UISR), and ``from_uisr`` must consume every field (a field never
read on restore is state silently dropped on the way out).  Both halves
of §3.1's lossless-translation invariant, checked on the AST.

The write side is checked at ``UISRVMState(...)`` construction sites
inside ``to_uisr``; the read side by collecting ``state.X`` attribute
reads inside ``from_uisr`` (passing a field to a helper —
``verify_restore_target(..., devices=state.devices)`` — counts, because
the call site reads the attribute).  The wrapper records
``UISRVCpu``/``UISRPlatform`` are additionally required to be unwrapped
(their ``.vcpu``/``.platform`` payload read) on the restore side.
"""

import ast
from typing import Dict, Iterable, List, Optional

from repro.analysis.engine import Rule, register_rule
from repro.analysis.findings import Finding
from repro.analysis.project import (
    Project,
    SourceModule,
    all_attribute_names,
    attribute_reads,
    dataclass_fields,
    top_level_classes,
    top_level_functions,
)

STATE_CLASS = "UISRVMState"
#: wrapper record -> the payload field from_uisr must unwrap
WRAPPER_FIELDS = {"UISRVCpu": "vcpu", "UISRPlatform": "platform"}

TO_NAME = "to_uisr"
FROM_NAME = "from_uisr"


def _state_param(func: ast.FunctionDef) -> Optional[str]:
    """The parameter holding the UISR document in ``from_uisr``."""
    for arg in func.args.args + func.args.kwonlyargs:
        annotation = arg.annotation
        if isinstance(annotation, ast.Name) and annotation.id == STATE_CLASS:
            return arg.arg
    for arg in func.args.args + func.args.kwonlyargs:
        if arg.arg == "state":
            return arg.arg
    return None


def _find_dataclasses(project: Project) -> Dict[str, List[str]]:
    """Field lists of the UISR dataclasses, wherever they are defined."""
    fields: Dict[str, List[str]] = {}
    wanted = {STATE_CLASS, *WRAPPER_FIELDS}
    for module in project.modules:
        for name, node in top_level_classes(module.tree).items():
            if name in wanted and name not in fields:
                fields[name] = dataclass_fields(node)
    return fields


@register_rule
class UISRFieldCoverageRule(Rule):
    name = "uisr-field-coverage"
    description = (
        "every UISRVMState field must be written by to_uisr and read by "
        "from_uisr"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        classes = _find_dataclasses(project)
        state_fields = classes.get(STATE_CLASS)
        if not state_fields:
            return  # nothing to check against (fixture without the class)
        for module in project.modules:
            for name, func in top_level_functions(module.tree).items():
                if name == TO_NAME:
                    yield from self._check_writer(module, func, state_fields)
                elif name == FROM_NAME:
                    yield from self._check_reader(module, func, state_fields,
                                                  classes)

    # -- write side ----------------------------------------------------------

    def _check_writer(self, module: SourceModule, func: ast.FunctionDef,
                      state_fields: List[str]) -> Iterable[Finding]:
        calls = [
            node for node in ast.walk(func)
            if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == STATE_CLASS)
        ]
        if not calls:
            yield self.finding(
                module.path, func.lineno,
                f"{func.name!r} never constructs {STATE_CLASS}; the "
                f"converter must produce the full UISR document",
                symbol=func.name,
            )
            return
        for call in calls:
            provided = set(state_fields[:len(call.args)])
            for keyword in call.keywords:
                if keyword.arg is None:  # **kwargs: cannot check statically
                    return
                provided.add(keyword.arg)
            for field in state_fields:
                if field not in provided:
                    yield self.finding(
                        module.path, call.lineno,
                        f"{func.name!r} builds {STATE_CLASS} without "
                        f"{field!r}; relying on the dataclass default drops "
                        f"state on the way into UISR (lossy translation)",
                        symbol=func.name,
                    )
            for keyword in call.keywords:
                if keyword.arg is not None and keyword.arg not in state_fields:
                    yield self.finding(
                        module.path, call.lineno,
                        f"{func.name!r} passes unknown {STATE_CLASS} field "
                        f"{keyword.arg!r}",
                        symbol=func.name,
                    )

    # -- read side -----------------------------------------------------------

    def _check_reader(self, module: SourceModule, func: ast.FunctionDef,
                      state_fields: List[str],
                      classes: Dict[str, List[str]]) -> Iterable[Finding]:
        param = _state_param(func)
        if param is None:
            yield self.finding(
                module.path, func.lineno,
                f"{func.name!r} has no recognizable UISR document parameter "
                f"(annotate one with {STATE_CLASS} or name it 'state')",
                symbol=func.name,
            )
            return
        reads = attribute_reads(func, param)
        for field in state_fields:
            if field not in reads:
                yield self.finding(
                    module.path, func.lineno,
                    f"{func.name!r} never reads {STATE_CLASS}.{field}; state "
                    f"written by {TO_NAME} is dropped on restore "
                    f"(lossy translation)",
                    symbol=func.name,
                )
        every_attr = set(all_attribute_names(func))
        for wrapper, payload in WRAPPER_FIELDS.items():
            if wrapper in classes and payload not in every_attr:
                yield self.finding(
                    module.path, func.lineno,
                    f"{func.name!r} never unwraps {wrapper}.{payload}; the "
                    f"wrapped record is not restored",
                    symbol=func.name,
                )
