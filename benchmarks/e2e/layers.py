"""Per-layer self time for the traced pass, from the benchmark's own files.

:class:`LayerTracer` replaces the public entry points of each layer with
wrappers (nothing under ``src/`` changes) and attributes wall-clock time
through one call stack: a layer's *self time* is the time its calls spent
minus the time spent in wrapped calls they made into other layers.  The
time no wrapped call covers belongs to the root, one span per unit.

Three kinds of wrapper share that stack:

* ``SPAN`` — coarse calls (a campaign, a plan, an engine run).  Each call
  becomes a :class:`repro.obs.Span` whose ``args`` carry its span id, its
  parent's span id and the run's trace id.
* ``HOT`` — calls made thousands of times (inventory queries, pipeline
  plans, journal records, policy checks).  They count and accumulate self
  time but record no span.  A hot call made from its own layer only
  counts: its time already belongs to that layer.
* ``COUNT`` — ``Engine.call_at``, counted but not timed.

Class methods are patched on their class.  Module functions are imported
by name, so they are patched where the caller looks them up.  Calls made
outside a root (set-up, the harness's own checks) pass straight through.
"""

import functools
import importlib
import itertools
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

SPAN, HOT, COUNT = "span", "hot", "count"

ROOT = "root"

LAYERS = (
    "par", "vulndb", "cluster.model", "core.mechanisms", "cluster.btrplace",
    "core.pipeline", "sim.engine", "fleet.controller", "fleet.metrics",
    "journal", "sentinel.feedstream", "sentinel.inventory",
    "sentinel.policy", "sentinel.responder", "sentinel.report",
)


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``module`` attribute path ``path``."""

    layer: str
    module: str
    path: str
    kind: str
    #: the workload tag under which the entry point must be called
    tag: str
    #: an extra counter each call increments
    counter: Optional[str] = None
    #: reads counts off the return value: ``post(tracer, result)``
    post: Optional[Callable[["LayerTracer", Any], None]] = None

    @property
    def ident(self) -> str:
        return f"{self.module}.{self.path}"


def _hosts_decided(tracer, decisions):
    tracer.counts["core.mechanisms.hosts_decided"] += len(decisions)


def _migrations_planned(tracer, plan):
    tracer.counts["cluster.btrplace.migrations_planned"] += sum(
        len(group.migrations) for group in plan.groups)


def _campaign_outcome(tracer, metrics):
    counts = tracer.counts
    counts["fleet.controller.campaigns"] += 1
    counts["fleet.controller.hosts"] += metrics.hosts
    counts["fleet.controller.retries"] += metrics.retries_total
    counts["fleet.controller.rolled_back_hosts"] += metrics.rolled_back_hosts


def _journal_opened(tracer, journal):
    # Read at the end of the pass, once every record is on disk.
    tracer.journals.append(journal)


_T = Target
TARGETS: Tuple[Target, ...] = (
    _T("par", "repro.par.runner", "run_fleet_campaign", SPAN, "par-fleet"),
    _T("par", "repro.par.runner", "fleet_campaign_task", SPAN, "par-fleet"),
    _T("par", "repro.par.runner", "run_sentinel", SPAN, "sentinel"),
    _T("par", "repro.par.runner", "sentinel_task", SPAN, "sentinel"),
    _T("par", "repro.par.runner", "ParallelRunner.map_tasks", SPAN, "par"),
    _T("par", "repro.par.pool", "WorkerPool.run", SPAN, "par"),
    _T("vulndb", "repro.fleet.controller", "load_default_database", SPAN,
       "standalone"),
    _T("vulndb", "repro.sentinel.responder", "load_default_database", SPAN,
       "sentinel"),
    _T("vulndb", "repro.vulndb.advisor", "TransplantAdvisor.advise", SPAN,
       "standalone"),
    _T("vulndb", "repro.vulndb.advisor",
       "TransplantAdvisor.open_critical_flaws", HOT, "fleet"),
    _T("cluster.model", "repro.fleet.controller", "build_paper_cluster",
       SPAN, "fleet"),
    _T("cluster.model", "repro.cluster.model", "Cluster.vms_on", HOT,
       "fleet"),
    _T("cluster.model", "repro.cluster.model", "Cluster.move_vm", HOT,
       "fleet"),
    _T("cluster.model", "repro.cluster.model", "Cluster.mark_upgraded", HOT,
       "fleet"),
    _T("core.mechanisms", "repro.fleet.controller", "decide_fleet", SPAN,
       "fleet", post=_hosts_decided),
    _T("cluster.btrplace", "repro.cluster.btrplace", "BtrPlacePlanner.plan",
       SPAN, "fleet", post=_migrations_planned),
    _T("core.pipeline", "repro.core.pipeline", "InPlacePipeline.plan_host",
       HOT, "fleet"),
    _T("core.pipeline", "repro.core.pipeline", "MigrationPipeline.plan_vm",
       HOT, "fleet"),
    _T("core.pipeline", "repro.core.pipeline", "TransplantPipelines.inplace",
       HOT, "fleet"),
    _T("core.pipeline", "repro.core.pipeline",
       "TransplantPipelines.migration", HOT, "fleet"),
    _T("sim.engine", "repro.sim.engine", "Engine.run", SPAN, "fleet"),
    _T("sim.engine", "repro.sim.engine", "Engine.call_at", COUNT, "fleet",
       counter="sim.engine.events_scheduled"),
    _T("fleet.controller", "repro.fleet.controller",
       "FleetController.__init__", SPAN, "fleet"),
    _T("fleet.controller", "repro.fleet.controller", "FleetController.run",
       SPAN, "fleet"),
    _T("fleet.metrics", "repro.fleet.controller", "collect_metrics", SPAN,
       "fleet", post=_campaign_outcome),
    _T("fleet.metrics", "repro.fleet.metrics", "FleetMetrics.to_dict", SPAN,
       "standalone"),
    _T("journal", "repro.journal", "CampaignJournal.create", SPAN, "journal",
       post=_journal_opened),
    _T("journal", "repro.journal", "CampaignJournal.resume", SPAN, "journal",
       post=_journal_opened),
    _T("journal", "repro.journal", "recover", SPAN, "journal"),
    _T("journal", "repro.journal", "campaign_meta", HOT, "journal"),
    _T("journal", "repro.journal", "CampaignJournal.transition", HOT,
       "journal"),
    _T("journal", "repro.journal", "CampaignJournal.wave_barrier", HOT,
       "journal"),
    _T("journal", "repro.journal", "CampaignJournal.checkpoint", HOT,
       "journal"),
    _T("journal", "repro.journal", "CampaignJournal.commit", HOT, "journal"),
    _T("journal", "repro.journal", "CampaignJournal.close", HOT, "journal"),
    _T("sentinel.feedstream", "repro.sentinel.responder", "build_feed", SPAN,
       "sentinel"),
    _T("sentinel.feedstream", "repro.sentinel.responder", "feed_statistics",
       SPAN, "sentinel"),
    _T("sentinel.inventory", "repro.sentinel.inventory",
       "FleetInventory.advance", HOT, "sentinel",
       counter="sentinel.inventory.accruals"),
    _T("sentinel.inventory", "repro.sentinel.inventory",
       "FleetInventory.exposed_hosts", HOT, "sentinel",
       counter="sentinel.inventory.exposure_queries"),
    _T("sentinel.inventory", "repro.sentinel.inventory",
       "FleetInventory.exposure_count", HOT, "sentinel"),
    _T("sentinel.inventory", "repro.sentinel.inventory",
       "FleetInventory.commit_host", HOT, "sentinel",
       counter="sentinel.inventory.commits"),
    _T("sentinel.inventory", "repro.sentinel.inventory",
       "FleetInventory.open_cve", HOT, "sentinel"),
    _T("sentinel.inventory", "repro.sentinel.inventory",
       "FleetInventory.close_cve", HOT, "sentinel"),
    _T("sentinel.inventory", "repro.sentinel.inventory",
       "FleetInventory.kinds", HOT, "sentinel"),
    _T("sentinel.inventory", "repro.sentinel.inventory",
       "FleetInventory.open_cves", HOT, "sentinel"),
    _T("sentinel.inventory", "repro.sentinel.inventory",
       "FleetInventory.exposure_host_days", HOT, "sentinel"),
    _T("sentinel.inventory", "repro.sentinel.inventory",
       "FleetInventory.snapshot", HOT, "sentinel"),
    _T("sentinel.policy", "repro.sentinel.policy",
       "ResponsePolicy.should_respond", HOT, "sentinel"),
    _T("sentinel.policy", "repro.sentinel.policy", "ResponsePolicy.is_safe",
       HOT, "sentinel"),
    _T("sentinel.policy", "repro.sentinel.policy",
       "ResponsePolicy.choose_target", HOT, "sentinel"),
    _T("sentinel.policy", "repro.sentinel.policy", "ResponsePolicy.launch_at",
       HOT, "sentinel"),
    _T("sentinel.policy", "repro.sentinel.policy",
       "ResponsePolicy.patch_closes_at", HOT, "sentinel"),
    _T("sentinel.responder", "repro.sentinel.responder", "Sentinel.__init__",
       SPAN, "sentinel"),
    _T("sentinel.responder", "repro.sentinel.responder", "Sentinel.run",
       SPAN, "sentinel"),
    _T("sentinel.report", "repro.sentinel.report", "build_report", SPAN,
       "sentinel"),
    _T("sentinel.report", "repro.sentinel.report", "SentinelReport.to_dict",
       SPAN, "sentinel"),
)
del _T

#: Modules the workloads import inside their calls, beyond those above.
LAZY_IMPORTS = ("repro.fleet", "repro.obs", "repro.par.shard",
                "repro.sentinel")


def import_program() -> None:
    """Import every module a run touches.

    Both passes do this during set-up, so neither times a first import
    inside a workload call, and the traced pass's installation imports
    nothing the untraced pass did not.
    """
    for module in sorted({t.module for t in TARGETS} | set(LAZY_IMPORTS)):
        importlib.import_module(module)


def _owner(target: Target):
    """``(object holding the attribute, attribute name)`` for a target."""
    owner = importlib.import_module(target.module)
    *parents, attr = target.path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise AttributeError(
            f"{target.ident}: no such attribute — the entry point moved, "
            f"so the traced pass would silently miss its layer")
    return owner, attr


class LayerTracer:
    """Installs the wrappers, keeps the stack, reports per-layer numbers."""

    def __init__(self, trace_id: str, targets: Tuple[Target, ...] = TARGETS):
        self.trace_id = trace_id
        self.targets = targets
        self.calls: Dict[str, int] = {t.ident: 0 for t in targets}
        self.counts: Dict[str, int] = {
            name: 0 for name in (
                "core.mechanisms.hosts_decided",
                "cluster.btrplace.migrations_planned",
                "sim.engine.events_scheduled",
                "sentinel.inventory.accruals",
                "sentinel.inventory.exposure_queries",
                "sentinel.inventory.commits",
                "fleet.controller.campaigns",
                "fleet.controller.hosts",
                "fleet.controller.retries",
                "fleet.controller.rolled_back_hosts",
            )
        }
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.self_s[ROOT] = 0.0
        self.wall_s = 0.0
        self.journals: List[Any] = []
        #: (name, layer, start, end, span id, parent id, self s, ok)
        self.spans: List[Tuple] = []
        # Frames are [layer, time spent in wrapped children, span id].
        self._stack: List[list] = []
        self._ids = itertools.count(1)
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("wrappers are already installed")
        try:
            for target in self.targets:
                owner, attr = _owner(target)
                raw = vars(owner)[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    patched = type(raw)(self._wrap(target, raw.__func__))
                else:
                    patched = self._wrap(target, raw)
                setattr(owner, attr, patched)
                self._saved.append((owner, attr, raw))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)

    def restored(self) -> bool:
        """Every patched attribute holds its original object again."""
        return all(vars(owner)[attr] is raw
                   for owner, attr, raw in self._saved)

    # -- the wrappers ----------------------------------------------------------

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        stack, calls, counts = self._stack, self.calls, self.counts
        self_s, spans, ids = self.self_s, self.spans, self._ids
        layer, ident, counter = target.layer, target.ident, target.counter
        name = f"{layer}:{target.path}"

        if target.kind == COUNT:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if stack:
                    calls[ident] += 1
                    counts[counter] += 1
                return fn(*args, **kwargs)
            return counted

        if target.kind == HOT:
            @functools.wraps(fn)
            def hot(*args, **kwargs):
                if not stack:
                    return fn(*args, **kwargs)
                calls[ident] += 1
                if counter is not None:
                    counts[counter] += 1
                parent = stack[-1]
                if parent[0] == layer:
                    return fn(*args, **kwargs)
                frame = [layer, 0.0, parent[2]]
                stack.append(frame)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    stack.pop()
                    self_s[layer] += elapsed - frame[1]
                    parent[1] += elapsed
            return hot

        post = target.post

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            calls[ident] += 1
            parent = stack[-1]
            frame = [layer, 0.0, next(ids)]
            stack.append(frame)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                elapsed = end - start
                stack.pop()
                own = elapsed - frame[1]
                self_s[layer] += own
                parent[1] += elapsed
                spans.append((name, layer, start, end, frame[2], parent[2],
                              own, ok))
            if post is not None:
                post(self, result)
            return result
        return span

    # -- roots -----------------------------------------------------------------

    def root(self, unit: str) -> "_Root":
        """Context manager timing one unit as a root span."""
        return _Root(self, unit)

    # -- results ---------------------------------------------------------------

    def expected_calls(self, tags: FrozenSet[str]) -> Dict[str, int]:
        """Calls recorded by every entry point the workload must reach."""
        return {t.ident: self.calls[t.ident] for t in self.targets
                if t.tag in tags}

    def layer_calls(self) -> Dict[str, int]:
        totals = {layer: 0 for layer in LAYERS}
        for target in self.targets:
            if target.kind != COUNT:
                totals[target.layer] += self.calls[target.ident]
        return totals

    def journal_counts(self) -> Dict[str, int]:
        journals = self.journals
        return {
            "journal.records_written": sum(j.records_appended
                                           for j in journals),
            "journal.bytes_written": sum(j.bytes_appended for j in journals),
            "journal.records_verified": sum(j.records_replayed
                                            for j in journals),
        }

    def campaign_durations(self) -> List[float]:
        return sorted(end - start for name, _, start, end, *_, ok
                      in self.spans
                      if ok and name == "fleet.controller:FleetController.run")

    def to_trace(self, track: str):
        """The spans as a :class:`repro.obs.Trace`, times from the first."""
        from repro.obs import Span, Trace

        trace = Trace()
        if not self.spans:
            return trace
        base = min(span[2] for span in self.spans)
        for name, layer, start, end, span_id, parent_id, own, ok \
                in self.spans:
            trace.add(Span(
                name=name, category=layer, start_s=start - base,
                end_s=end - base, track=track,
                args={"span_id": span_id, "parent_id": parent_id,
                      "trace_id": self.trace_id, "self_s": own, "ok": ok},
            ))
        return trace

    def report(self, tags: FrozenSet[str]) -> Dict[str, Any]:
        """Per-layer numbers plus the pass's self-checks."""
        wall = self.wall_s
        calls = self.layer_calls()
        layers = {
            layer: {"calls": calls[layer], "self_s": self.self_s[layer],
                    "share": self.self_s[layer] / wall if wall else 0.0}
            for layer in LAYERS
        }
        counts = dict(self.counts)
        counts.update(self.journal_counts())
        durations = self.campaign_durations()
        timings = {
            "root.self_s": self.self_s[ROOT],
            "sim.engine.us_per_event": (
                1e6 * self.self_s["sim.engine"]
                / counts["sim.engine.events_scheduled"]
                if counts["sim.engine.events_scheduled"] else 0.0),
            "fleet.controller.campaign_p50_s": (
                statistics.median(durations) if durations else 0.0),
        }
        if len(durations) >= 200:
            timings["fleet.controller.campaign_p95_s"] = \
                durations[-(-95 * len(durations) // 100) - 1]
        missed = sorted(ident for ident, n in self.expected_calls(tags).items()
                        if n == 0)
        accounted = sum(self.self_s.values())
        checks = {
            "every expected wrapper called": not missed,
            "every original restored": self.restored(),
            "self times sum to traced wall": (
                wall > 0 and abs(accounted - wall) <= 0.01 * wall),
        }
        return {"wall_s": wall, "layers": layers, "counts": counts,
                "timings": timings, "checks": checks, "missed": missed,
                "spans": len(self.spans)}


class _Root:
    def __init__(self, tracer: LayerTracer, unit: str):
        self.tracer = tracer
        self.unit = unit

    def __enter__(self):
        tracer = self.tracer
        if tracer._stack:
            raise RuntimeError("roots do not nest")
        self.frame = [ROOT, 0.0, next(tracer._ids)]
        tracer._stack.append(self.frame)
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = perf_counter()
        tracer = self.tracer
        tracer._stack.pop()
        self.elapsed = elapsed = end - self.start
        own = elapsed - self.frame[1]
        tracer.self_s[ROOT] += own
        tracer.wall_s += elapsed
        tracer.spans.append((f"{ROOT}:{self.unit}", ROOT, self.start, end,
                             self.frame[2], None, own, exc_type is None))
        return False
