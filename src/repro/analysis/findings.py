"""Finding model, plus the inline suppression directive.

A finding pins one rule violation to a file and line.  Findings are plain
data so reporters (text, JSON) and tests can consume them without touching
the rules that produced them.

Suppression: a true-but-accepted finding is silenced in the source itself
with a ``# repro-lint: disable=<rule>[,<rule>]`` comment on the flagged
line or on the line directly above it.  Trailing prose after the rule list
is encouraged — a suppression without a reason is a smell.
"""

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

_DIRECTIVE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\-]+)")

SUPPRESS_ALL = "all"


@dataclass(frozen=True)
class Finding:
    """One rule violation anchored to a source location."""

    rule: str
    path: str
    line: int
    message: str
    #: the enclosing function/class name, when the rule knows it
    symbol: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
        }

    def format(self) -> str:
        where = f"{self.path}:{self.line}"
        symbol = f" [{self.symbol}]" if self.symbol else ""
        return f"{where}: {self.rule}{symbol}: {self.message}"


def suppressed_rules(line_text: str) -> Optional[FrozenSet[str]]:
    """Rule names a source line suppresses, or ``None`` if it has no
    directive.  ``disable=all`` suppresses every rule."""
    match = _DIRECTIVE.search(line_text)
    if match is None:
        return None
    names = {name.strip() for name in match.group(1).split(",")}
    return frozenset(name for name in names if name)


def is_suppressed(finding: Finding, lines: List[str]) -> bool:
    """True if the flagged line (or the line above it) disables the rule."""
    for lineno in (finding.line, finding.line - 1):
        if 1 <= lineno <= len(lines):
            rules = suppressed_rules(lines[lineno - 1])
            if rules is not None and (finding.rule in rules
                                      or SUPPRESS_ALL in rules):
                return True
    return False
