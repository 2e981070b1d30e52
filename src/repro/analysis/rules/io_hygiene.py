"""I/O format hygiene rule.

``io-format-hygiene``: only the ``repro.io`` package may touch the
``struct`` module.  Every byte that crosses a state-movement boundary —
the migration wire, the PRAM encoding parsed across the kexec, UISR
documents, plan blobs — must go through the framed, CRC-checked codec
layer; a stray ``struct.pack`` elsewhere is an unversioned, unchecksummed
byte format waiting to corrupt a guest silently.
"""

from typing import Iterable

from repro.analysis.engine import Rule, register_rule
from repro.analysis.findings import Finding
from repro.analysis.project import Project, SourceModule, resolved_calls

#: the one layer allowed to use the struct module
IO_SCOPE = ("io/",)


@register_rule
class IOFormatHygieneRule(Rule):
    name = "io-format-hygiene"
    description = (
        "struct.pack/struct.unpack only inside repro/io/; every other "
        "byte format must go through the framed codec layer"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            if module.path.startswith(IO_SCOPE):
                continue
            yield from self._check_module(module)

    def _check_module(self, module: SourceModule) -> Iterable[Finding]:
        for node, dotted in resolved_calls(module.tree):
            if dotted == "struct" or dotted.startswith("struct."):
                yield self.finding(
                    module.path, node.lineno,
                    f"{dotted}() outside repro/io/ hand-rolls a byte "
                    f"format; use the repro.io frame/packing layer so the "
                    f"bytes stay versioned and CRC-checked",
                )
