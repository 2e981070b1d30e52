"""Sim-layer hygiene rules.

``sim-clock-hygiene``: the simulated layers (``sim/``, ``core/``,
``hypervisors/``, ``fleet/``, ``cluster/``, ``sentinel/`` and the rest
of :data:`CLOCK_SCOPE`) must take all time from
:class:`~repro.sim.clock.SimClock`.
A stray ``time.time()`` or ``datetime.now()`` makes experiment results
depend on the host's wall clock — irreproducible and wrong under the
discrete-event engine.

``exception-hygiene``: nothing may swallow the state-format exceptions
(``StateFormatError``/``UISRError``) or blanket ``Exception`` with a bare
``pass`` — on the transplant path that converts loud corruption into a
silently-wrong guest, the exact failure mode ReHype-style studies show
state-recovery code is prone to.
"""

import ast
from typing import Iterable, Set

from repro.analysis.engine import Rule, register_rule
from repro.analysis.findings import Finding
from repro.analysis.project import Project, SourceModule, resolved_calls

#: layers that must run on simulated time (path prefixes); par/ is in
#: scope too: the worker pool's deadline is an interval timer armed in
#: the worker, never a clock read.  The rest of the tree (analysis/,
#: bench/, the CLI) never simulates; CI also lints benchmarks/, which
#: times itself on purpose.
CLOCK_SCOPE = ("sim/", "core/", "hypervisors/", "fleet/", "obs/", "io/",
               "par/", "sentinel/", "cluster/", "workloads/", "guest/",
               "hw/", "devices/", "storage/", "orchestrator/", "vulndb/",
               "journal.py")

#: fully-qualified callables that read the wall clock or block on it
WALL_CLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.sleep",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})
STATE_EXCEPTIONS = frozenset({"StateFormatError", "UISRError"})


@register_rule
class SimClockHygieneRule(Rule):
    name = "sim-clock-hygiene"
    description = (
        "the simulated layers must use SimClock, never "
        "time.time()/time.sleep()/datetime.now()"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            if not module.path.startswith(CLOCK_SCOPE):
                continue
            yield from self._check_module(module)

    def _check_module(self, module: SourceModule) -> Iterable[Finding]:
        for node, dotted in resolved_calls(module.tree):
            if dotted in WALL_CLOCK_CALLS:
                yield self.finding(
                    module.path, node.lineno,
                    f"{dotted}() bypasses the simulated clock; take time "
                    f"from SimClock so results stay reproducible",
                )


@register_rule
class ExceptionHygieneRule(Rule):
    name = "exception-hygiene"
    description = (
        "no bare except, and no swallowing Exception/StateFormatError/"
        "UISRError with a pass-only handler"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ExceptHandler):
                    yield from self._check_handler(module, node)

    def _check_handler(self, module: SourceModule,
                       handler: ast.ExceptHandler) -> Iterable[Finding]:
        if handler.type is None:
            yield self.finding(
                module.path, handler.lineno,
                "bare 'except:' catches everything including "
                "KeyboardInterrupt; name the exception types",
            )
            return
        caught = self._caught_names(handler.type)
        if not self._swallows(handler):
            return
        dangerous = caught & (BROAD_EXCEPTIONS | STATE_EXCEPTIONS)
        if dangerous:
            names = ", ".join(sorted(dangerous))
            yield self.finding(
                module.path, handler.lineno,
                f"'except {names}: pass' swallows the error; on the "
                f"transplant path this turns loud state corruption into a "
                f"silently-wrong guest",
            )

    @staticmethod
    def _caught_names(node: ast.expr) -> Set[str]:
        names: Set[str] = set()
        exprs = node.elts if isinstance(node, ast.Tuple) else [node]
        for expr in exprs:
            if isinstance(expr, ast.Name):
                names.add(expr.id)
            elif isinstance(expr, ast.Attribute):
                names.add(expr.attr)
        return names

    @staticmethod
    def _swallows(handler: ast.ExceptHandler) -> bool:
        """A handler swallows when its body has no effect at all."""
        for stmt in handler.body:
            if isinstance(stmt, ast.Pass):
                continue
            if (isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)):
                continue  # docstring or bare ...
            return False
        return True
