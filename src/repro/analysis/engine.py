"""Rule registry and the analysis driver.

Rules are small classes with a ``check(project)`` generator; registering is
one decorator.  :func:`run_analysis` runs every requested rule over a
:class:`~repro.analysis.project.Project`, drops findings the source
suppresses inline, and returns the rest sorted by location.
"""

import abc
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type

from repro.errors import ReproError
from repro.analysis.findings import Finding, is_suppressed
from repro.analysis.project import Project


class AnalysisError(ReproError):
    """Raised for analysis-pass misuse (unknown rule, duplicate name)."""


class Rule(abc.ABC):
    """One analysis rule.

    Subclasses set ``name`` (kebab-case, stable — it is the suppression
    key) and ``description`` (one line, shown by ``repro lint
    --list-rules``), and yield :class:`Finding` objects from ``check``.
    """

    name: str = ""
    description: str = ""

    @abc.abstractmethod
    def check(self, project: Project) -> Iterable[Finding]:
        """Yield findings for ``project``."""

    def finding(self, path: str, line: int, message: str,
                symbol: str = "") -> Finding:
        return Finding(
            rule=self.name,
            path=path,
            line=line,
            message=message,
            symbol=symbol,
        )


_RULES: Dict[str, Type[Rule]] = {}


def register_rule(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_cls.name:
        raise AnalysisError(f"rule {rule_cls.__name__} has no name")
    if rule_cls.name in _RULES:
        raise AnalysisError(f"duplicate rule name {rule_cls.name!r}")
    _RULES[rule_cls.name] = rule_cls
    return rule_cls


def all_rules() -> List[Type[Rule]]:
    return [_RULES[name] for name in sorted(_RULES)]


def run_analysis(project: Project,
                 rule_names: Optional[Sequence[str]] = None
                 ) -> Tuple[List[Finding], int]:
    """Run rules over ``project``.

    Returns ``(findings, suppressed_count)``: the findings that survived
    inline suppression, sorted by path/line/rule, and how many were
    silenced by ``# repro-lint: disable=`` directives.
    """
    if rule_names is None:
        selected = all_rules()
    else:
        unknown = sorted(set(rule_names) - set(_RULES))
        if unknown:
            raise AnalysisError(
                f"unknown rule(s) {unknown}; known: {sorted(_RULES)}"
            )
        selected = [_RULES[name] for name in sorted(set(rule_names))]

    kept: List[Finding] = []
    suppressed = 0
    for rule_cls in selected:
        rule = rule_cls()
        for finding in rule.check(project):
            module = project.get(finding.path)
            if module is not None and is_suppressed(finding, module.lines):
                suppressed += 1
            else:
                kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return kept, suppressed
