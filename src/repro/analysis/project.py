"""Source loading and shared AST helpers.

A :class:`Project` is the unit of analysis: a set of parsed modules keyed
by a path relative to the scan root (``core/uisr/codec.py``-style), so
rules can scope themselves to the layers the paper's invariants live in.
Projects come from a directory walk (the real tree) or from in-memory
sources (rule fixtures in tests).
"""

import ast
import fnmatch
import os
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


@dataclass
class SourceModule:
    """One parsed python file."""

    path: str  # scan-root-relative, forward slashes
    source: str
    tree: ast.Module
    lines: List[str]

    @classmethod
    def parse(cls, path: str, source: str) -> "SourceModule":
        return cls(
            path=path,
            source=source,
            tree=ast.parse(source, filename=path),
            lines=source.splitlines(),
        )


class Project:
    """A set of parsed modules, keyed by their scan-root-relative path."""

    def __init__(self, modules: Sequence[SourceModule]):
        self.modules: List[SourceModule] = list(modules)
        self._by_path: Dict[str, SourceModule] = {
            module.path: module for module in self.modules
        }

    @classmethod
    def from_directory(cls, root: str) -> "Project":
        modules = []
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                full = os.path.join(dirpath, filename)
                rel = os.path.relpath(full, root).replace(os.sep, "/")
                modules.append(_load_cached(full, rel))
        return cls(modules)

    @classmethod
    def from_sources(cls, sources: Dict[str, str]) -> "Project":
        return cls([SourceModule.parse(path, text)
                    for path, text in sources.items()])

    def get(self, path: str) -> Optional[SourceModule]:
        return self._by_path.get(path)

    def matching(self, *patterns: str) -> List[SourceModule]:
        """Modules whose path matches any of the fnmatch ``patterns``."""
        return [
            module for module in self.modules
            if any(fnmatch.fnmatch(module.path, pattern)
                   for pattern in patterns)
        ]


# -- parse cache --------------------------------------------------------------
#
# Every rule shares one Project, but the test-suite's live-tree checks
# build several Projects over the same files;
# parsing dominates a lint run, so directory loads go through a process-wide
# cache keyed by (absolute path, project-relative path) and invalidated by
# mtime/size.  In-memory fixtures (``from_sources``) never touch the cache.

_PARSE_CACHE: Dict[Tuple[str, str], Tuple[int, int, SourceModule]] = {}


def _load_cached(full: str, rel: str) -> SourceModule:
    stat = os.stat(full)
    key = (os.path.abspath(full), rel)
    cached = _PARSE_CACHE.get(key)
    if cached is not None and cached[0] == stat.st_mtime_ns \
            and cached[1] == stat.st_size:
        return cached[2]
    with open(full, "r", encoding="utf-8") as handle:
        module = SourceModule.parse(rel, handle.read())
    _PARSE_CACHE[key] = (stat.st_mtime_ns, stat.st_size, module)
    return module


def clear_parse_cache() -> None:
    """Drop the process-wide parse cache (tests use this for isolation)."""
    _PARSE_CACHE.clear()


# -- AST helpers shared by the rules -----------------------------------------

def top_level_functions(tree: ast.Module) -> Dict[str, ast.FunctionDef]:
    """Module-level function definitions by name."""
    return {
        node.name: node for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }


def top_level_classes(tree: ast.Module) -> Dict[str, ast.ClassDef]:
    return {
        node.name: node for node in tree.body
        if isinstance(node, ast.ClassDef)
    }


def dataclass_fields(node: ast.ClassDef) -> List[str]:
    """Annotated field names of a (data)class body, in declaration order."""
    fields = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target,
                                                          ast.Name):
            name = stmt.target.id
            if not name.startswith("_"):
                fields.append(name)
    return fields


def dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> fully-qualified dotted name, for imports."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                aliases[name.asname or name.name.split(".")[0]] = name.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for name in node.names:
                aliases[name.asname or name.name] = (
                    f"{node.module}.{name.name}"
                )
    return aliases


def resolved_calls(tree: ast.Module) -> Iterator[Tuple[ast.Call, str]]:
    """Every call with a dotted callee, as ``(node, name)``, the name's
    head resolved through the module's imports (``from time import sleep
    as nap; nap()`` gives ``time.sleep``)."""
    aliases = _import_aliases(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = dotted_name(node.func)
        if dotted is None:
            continue
        head, _, tail = dotted.partition(".")
        resolved = aliases.get(head)
        if resolved is not None:
            dotted = resolved + ("." + tail if tail else "")
        yield node, dotted


def attribute_reads(root: ast.AST, base_name: str) -> Dict[str, int]:
    """Attributes read directly off ``base_name`` (``base.attr``), with the
    first line each read occurs on."""
    reads: Dict[str, int] = {}
    for node in ast.walk(root):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == base_name):
            reads.setdefault(node.attr, node.lineno)
    return reads


def all_attribute_names(root: ast.AST) -> Iterable[str]:
    """Every attribute name read anywhere under ``root``."""
    for node in ast.walk(root):
        if isinstance(node, ast.Attribute):
            yield node.attr
