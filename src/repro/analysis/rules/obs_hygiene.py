"""Observability hygiene rule.

``trace-format-hygiene``: only :mod:`repro.obs` may format trace
timestamps — i.e. build Chrome trace-event dicts (``"ph"``/``"ts"`` keys,
``"traceEvents"`` envelopes) by hand.  Hand-rolled events are how the
string-``tid`` bug shipped: every producer must go through
:meth:`repro.obs.Trace.to_chrome_trace`, so the µs conversion, the stable
integer ids, and the metadata events exist in exactly one place.
"""

import ast
from typing import Iterable

from repro.analysis.engine import Rule, register_rule
from repro.analysis.findings import Finding
from repro.analysis.project import Project, SourceModule

#: the one layer allowed to format trace events
OBS_SCOPE = ("obs/",)

#: dict keys that mark a hand-built Chrome trace event / envelope
EVENT_KEYS = frozenset({"ph", "ts"})
ENVELOPE_KEYS = frozenset({"traceEvents"})


@register_rule
class TraceFormatHygieneRule(Rule):
    name = "trace-format-hygiene"
    description = (
        "only repro.obs may format trace timestamps; build events via "
        "Trace.to_chrome_trace, never by hand"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            if module.path.startswith(OBS_SCOPE):
                continue
            yield from self._check_module(module)

    def _check_module(self, module: SourceModule) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Dict):
                continue
            keys = {
                key.value for key in node.keys
                if isinstance(key, ast.Constant)
                and isinstance(key.value, str)
            }
            if EVENT_KEYS <= keys or keys & ENVELOPE_KEYS:
                yield self.finding(
                    module.path, node.lineno,
                    "hand-built Chrome trace event; only repro.obs may "
                    "format trace timestamps (use Trace.to_chrome_trace)",
                )
