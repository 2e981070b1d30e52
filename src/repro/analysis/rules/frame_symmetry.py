"""Frame-protocol symmetry between writer and reader state machines.

Every channel built on :mod:`repro.io.frames` declares its frame-type
tags as module-level integer constants or an enum, emits them through
``FrameWriter.frame(TAG, ...)`` (or ``encode_frame(TAG, ...)``), and
consumes them in a decode function that walks a ``FrameReader`` /
``decode_frame`` stream.  A tag that is emitted but never examined by any
reader branch is silently-dropped state; a tag a reader tests for but
nothing emits is a dead branch hiding a protocol drift.  Both directions
broke real decoders before; this rule generalizes the narrower
``codec-symmetry`` stream-shape check to every frame channel.

Model, per module in scope:

* **tags** — module-level ``NAME = <int>`` constants whose name contains
  ``FRAME``, any constant passed to a writer call, and the members of any
  module-level enum used in a writer call.
* **emissions** — ``*.frame(TAG, ...)`` / ``*._frame(TAG, ...)`` /
  ``encode_frame(TAG, ...)`` calls whose first argument resolves to a
  known tag.  The END marker (``END_FRAME`` / frame type 0) is the
  codec's own framing, not channel state, and is ignored.
* **consumptions** — inside any function that constructs a
  ``FrameReader`` or calls ``decode_frame`` (a *reader context*): loads
  of tag constant names, loads of enum members, and enum-constructor
  calls ``EnumName(tag)`` — the latter consume every member, because the
  constructor raises on unknown tags and therefore discriminates all of
  them.

The scope is the layers that own frame channels; ``repro/io`` itself is
the codec layer, whose only tag is the END marker, and stays out.
"""

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.cfg import walk_runtime
from repro.analysis.engine import Rule, register_rule
from repro.analysis.findings import Finding
from repro.analysis.project import Project, SourceModule

#: layers that own frame channels: the wire, PRAM and UISR documents
#: (core/), plan blobs (cluster/) and the worker pipe (par/).
FRAME_SCOPE = ("core/", "cluster/", "par/")

WRITER_METHODS = frozenset({"frame", "_frame"})
WRITER_FUNCTIONS = frozenset({"encode_frame"})
READER_MARKERS = frozenset({"FrameReader"})
READER_FUNCTIONS = frozenset({"decode_frame", "read_stream_frame"})
END_TAG_NAMES = frozenset({"END_FRAME"})


def _module_int_constants(tree: ast.Module) -> Dict[str, Tuple[int, int]]:
    """name -> (value, line) for module-level integer constants."""
    constants: Dict[str, Tuple[int, int]] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            name, value = stmt.targets[0].id, stmt.value
        elif isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name) \
                and stmt.value is not None:
            name, value = stmt.target.id, stmt.value
        else:
            continue
        if isinstance(value, ast.Constant) and isinstance(value.value, int) \
                and not isinstance(value.value, bool):
            constants[name] = (value.value, stmt.lineno)
    return constants


def _module_enums(tree: ast.Module) -> Dict[str, Dict[str, int]]:
    """enum class name -> {member -> line} for module-level int enums."""
    enums: Dict[str, Dict[str, int]] = {}
    for stmt in tree.body:
        if not isinstance(stmt, ast.ClassDef):
            continue
        is_enum = any(
            (isinstance(base, ast.Name) and base.id.endswith("Enum"))
            or (isinstance(base, ast.Attribute)
                and base.attr.endswith("Enum"))
            for base in stmt.bases
        )
        if not is_enum:
            continue
        members: Dict[str, int] = {}
        for sub in stmt.body:
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1 \
                    and isinstance(sub.targets[0], ast.Name) \
                    and isinstance(sub.value, ast.Constant):
                members[sub.targets[0].id] = sub.lineno
        if members:
            enums[stmt.name] = members
    return enums


#: a tag is either ("const", name) or ("enum", class, member)
_Tag = Tuple


def _tag_label(tag: _Tag) -> str:
    if tag[0] == "const":
        return tag[1]
    return f"{tag[1]}.{tag[2]}"


class _ModuleProtocol:
    """Emissions and consumptions of one module's frame channels."""

    def __init__(self, module: SourceModule):
        self.module = module
        self.constants = _module_int_constants(module.tree)
        self.enums = _module_enums(module.tree)
        self.emitted: Dict[_Tag, int] = {}   # tag -> first emission line
        self.consumed: Dict[_Tag, int] = {}  # tag -> first consumption line
        self.emitting_enums: Set[str] = set()
        self._collect()

    def _tag_of(self, expr: ast.expr) -> Optional[_Tag]:
        if isinstance(expr, ast.Name) and expr.id in self.constants:
            return ("const", expr.id)
        if isinstance(expr, ast.Attribute) \
                and isinstance(expr.value, ast.Name) \
                and expr.value.id in self.enums \
                and expr.attr in self.enums[expr.value.id]:
            return ("enum", expr.value.id, expr.attr)
        return None

    def _is_end(self, tag: _Tag) -> bool:
        if tag[0] == "const":
            name = tag[1]
            return name in END_TAG_NAMES or self.constants[name][0] == 0
        return False

    def _collect(self) -> None:
        for func in self._functions():
            reader = self._is_reader_context(func)
            for sub in walk_runtime(func):
                if isinstance(sub, ast.Call):
                    self._collect_call(sub, reader)
                elif reader and isinstance(sub, (ast.Name, ast.Attribute)):
                    tag = self._tag_of(sub)
                    if tag is not None and not self._is_end(tag):
                        self.consumed.setdefault(tag, sub.lineno)

    def _functions(self) -> Iterable[ast.FunctionDef]:
        for sub in ast.walk(self.module.tree):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield sub

    def _is_reader_context(self, func) -> bool:
        for sub in walk_runtime(func):
            if isinstance(sub, ast.Call):
                if isinstance(sub.func, ast.Name) \
                        and sub.func.id in (READER_MARKERS
                                            | READER_FUNCTIONS):
                    return True
                if isinstance(sub.func, ast.Attribute) \
                        and sub.func.attr in READER_FUNCTIONS:
                    return True
        return False

    def _collect_call(self, call: ast.Call, reader: bool) -> None:
        is_writer = (
            (isinstance(call.func, ast.Attribute)
             and call.func.attr in WRITER_METHODS)
            or (isinstance(call.func, ast.Name)
                and call.func.id in WRITER_FUNCTIONS)
        )
        if is_writer and call.args:
            tag = self._tag_of(call.args[0])
            if tag is not None and not self._is_end(tag):
                self.emitted.setdefault(tag, call.lineno)
                if tag[0] == "enum":
                    self.emitting_enums.add(tag[1])
        if reader and isinstance(call.func, ast.Name) \
                and call.func.id in self.enums:
            # EnumName(tag) raises on unknown tags: it discriminates —
            # and therefore consumes — every member.
            for member in self.enums[call.func.id]:
                self.consumed.setdefault(("enum", call.func.id, member),
                                         call.lineno)


@register_rule
class FrameProtocolSymmetryRule(Rule):
    name = "frame-protocol-symmetry"
    description = (
        "every frame type a FrameWriter emits has a matching FrameReader "
        "branch and vice versa (per module; END frames exempt)"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            if not module.path.startswith(FRAME_SCOPE):
                continue
            protocol = _ModuleProtocol(module)
            if not protocol.emitted and not protocol.consumed:
                continue
            yield from self._check_module(protocol)

    def _check_module(self,
                      protocol: _ModuleProtocol) -> Iterable[Finding]:
        module = protocol.module
        emitted = protocol.emitted
        consumed = protocol.consumed
        findings: List[Finding] = []
        for tag in emitted:
            if tag not in consumed:
                findings.append(self.finding(
                    module.path, emitted[tag],
                    f"frame type {_tag_label(tag)} is emitted here but no "
                    f"reader branch in this module consumes it; receivers "
                    f"will drop or choke on the frame",
                    symbol=_tag_label(tag)))
        for tag in consumed:
            if tag in emitted:
                continue
            if not self._is_declared_tag(protocol, tag):
                continue
            findings.append(self.finding(
                module.path, consumed[tag],
                f"reader branch consumes frame type {_tag_label(tag)} "
                f"but no writer in this module emits it; the branch is "
                f"dead or the writer drifted",
                symbol=_tag_label(tag)))
        for finding in sorted(findings, key=lambda f: (f.line, f.message)):
            yield finding

    @staticmethod
    def _is_declared_tag(protocol: _ModuleProtocol, tag: _Tag) -> bool:
        """Reader-only reports need the name to *look like* a frame tag:
        a FRAME-named constant, or a member of an enum the module's
        writers use.  Plain constants compared in a reader for other
        reasons (lengths, versions) stay out."""
        if tag[0] == "const":
            return "FRAME" in tag[1].upper()
        return tag[1] in protocol.emitting_enums
