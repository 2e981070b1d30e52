"""Finding reporters: human text and machine JSON.

The JSON shape is stable for CI consumption: ``{"findings": [...],
"suppressed": N, "clean": bool}`` with one ``{rule, path, line, symbol,
message}`` object per finding, as produced by :meth:`Finding.to_dict`.
It is byte-deterministic for identical findings.
"""

import json
from typing import List

from repro.analysis.findings import Finding


def render_text(findings: List[Finding], suppressed: int = 0) -> str:
    lines = [finding.format() for finding in findings]
    summary = (f"{len(findings)} finding(s)"
               if findings else "no findings")
    if suppressed:
        summary += f" ({suppressed} suppressed in source)"
    lines.append(summary)
    return "\n".join(lines)


def render_json(findings: List[Finding], suppressed: int = 0) -> str:
    return json.dumps(
        {
            "findings": [finding.to_dict() for finding in findings],
            "suppressed": suppressed,
            "clean": not findings,
        },
        indent=2,
    )
