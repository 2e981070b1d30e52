"""Mechanism cost-path hygiene rule.

``mechanism-hygiene``: the per-action cost helpers — the ``CostModel``
phase methods and ``plan_precopy`` — may only be called from the
mechanism layer itself (``core/pipeline.py``, ``core/inplace.py``,
``core/migration.py``, ``core/timings.py``).  Everybody else must go
through :class:`repro.core.pipeline.StagePlan`.

This is the teeth of the staged-pipeline refactor: before it, three
consumers (the cluster executor, the fleet controller and the
orchestrator policy) each re-summed the phase helpers in their own
float-association and drifted apart by design.  A helper call outside
the pipeline layer is a fourth cost path waiting to happen.
"""

from typing import Iterable

from repro.analysis.engine import Rule, register_rule
from repro.analysis.findings import Finding
from repro.analysis.project import Project, SourceModule, resolved_calls

#: the modules that implement (and are allowed to price) the mechanisms
MECHANISM_SCOPE = (
    "core/pipeline.py",
    "core/inplace.py",
    "core/migration.py",
    "core/timings.py",
)

#: per-action cost helpers: CostModel phase methods + the pre-copy planner
COST_HELPERS = frozenset({
    "pram_phase_s",
    "translate_phase_s",
    "reboot_phase_s",
    "restore_phase_s",
    "stopcopy_overhead_s",
    "kernel_boot_s",
    "plan_precopy",
})


@register_rule
class MechanismHygieneRule(Rule):
    name = "mechanism-hygiene"
    description = (
        "per-action cost helpers (CostModel phase methods, plan_precopy) "
        "only inside the mechanism layer; everyone else derives durations "
        "from StagePlan"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            if module.path.endswith(MECHANISM_SCOPE):
                continue
            yield from self._check_module(module)

    def _check_module(self, module: SourceModule) -> Iterable[Finding]:
        for node, dotted in resolved_calls(module.tree):
            helper = dotted.rsplit(".", 1)[-1]
            if helper in COST_HELPERS:
                yield self.finding(
                    module.path, node.lineno,
                    f"{helper}() outside the mechanism layer opens a "
                    f"second cost path; derive the duration from a "
                    f"repro.core.pipeline StagePlan instead",
                )
