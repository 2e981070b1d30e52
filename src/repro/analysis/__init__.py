"""Static-analysis pass for UISR translation safety and sim-layer hygiene.

HyperTP's correctness rests on invariants the type system cannot express:
every UISR field ``to_uisr`` emits must be consumed by ``from_uisr``,
every byte a :class:`Packer` writes must be read back by the mirror
:class:`Unpacker` at the same width (§3.1 of the paper — translation must
be lossless), simulated components must never read the wall clock, and
nothing on the transplant path may silently swallow
``StateFormatError``.  This package turns those invariants into lint-time
checks: ``repro lint`` parses the tree with :mod:`ast`, runs every
registered rule and reports findings (see ``docs/static-analysis.md``).
"""

from repro.analysis.cfg import CFG, CFGNode, build_cfg
from repro.analysis.dataflow import Solution, solve_forward
from repro.analysis.engine import Rule, all_rules, register_rule, run_analysis
from repro.analysis.findings import Finding
from repro.analysis.project import Project, SourceModule
from repro.analysis.report import render_json, render_text

# Importing the rules package registers the built-in rules.
from repro.analysis import rules as _rules  # noqa: F401

__all__ = [
    "CFG",
    "CFGNode",
    "Finding",
    "Project",
    "Rule",
    "Solution",
    "SourceModule",
    "all_rules",
    "build_cfg",
    "register_rule",
    "render_json",
    "render_text",
    "run_analysis",
    "solve_forward",
]
