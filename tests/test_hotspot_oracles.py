"""Differential tests: the optimized fleet-scale paths against references.

The exposure ledger, the spare-slot budget and the destination rotation
were each rewritten from a rescan per operation to O(1) or O(kinds)
bookkeeping, and stage plans are built once per shape instead of once
per call.  The rescanning and rebuilding versions live on in
:mod:`tests.oracles`; these tests drive both with random inputs and
require identical results, down to the exact floats of the exposure
integral and of every plan.  Op-count tests show accrual cost no longer
grows with the fleet and each plan shape is costed once per campaign.

Campaign setup builds the paper cluster in bulk, derives profile facts
once per workload and makes named-tuple records; it is checked against
the object-at-a-time builders, and an op-count test shows that neither
fact derivations nor RNG seedings grow with the fleet.
"""

import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.btrplace import BtrPlacePlanner
from repro.cluster.model import (
    NODE_CAPACITY_VMS,
    Cluster,
    ClusterNode,
    ClusterVM,
    WorkloadKind,
    build_paper_cluster,
)
from repro.core import mechanisms
from repro.core.mechanisms import (
    WORKLOAD_SLO_S,
    MechanismKind,
    MechanismPolicy,
    VMProfile,
    cluster_profiles,
    decide_fleet,
)
from repro.core import pipeline as pipeline_module
from repro.core.pipeline import (
    InPlacePipeline,
    MigrationPipeline,
    TransplantPipelines,
    VerifySpec,
)
from repro.core.timings import CostModel
from repro.errors import ClusterError, PlanningError, SentinelError
from repro.fleet import FleetConfig, FleetController
from repro.fleet import failures
from repro.hw.machine import CLUSTER_NODE_SPEC
from repro.hypervisors.base import HypervisorKind
from repro.sentinel import FeedSchedule, FleetInventory, Sentinel, SentinelConfig
from repro.vulndb.cve import CVERecord
from repro.vulndb.data import load_default_database

from tests.oracles import (
    FrozenRecordPlanner,
    FrozenVMProfile,
    FullScanInventory,
    LiveListPlanner,
    TwoPassPolicy,
    build_host_plans_per_vm,
    build_paper_cluster_per_vm,
    decide_fleet_rescan,
    plan_host_rebuild,
    plan_vm_rebuild,
)

GIB = 1024 ** 3
KINDS = ("xen", "kvm", "nova")


# -- exposure ledger -----------------------------------------------------------

RECORDS = [
    CVERecord(cve_id=f"CVE-2021-{i:04d}", year=2021, affected=frozenset(a),
              component="pv", cvss_score=9.0, days_to_patch=10)
    for i, a in enumerate([{"xen"}, {"kvm"}, {"nova"}, {"xen", "kvm"},
                           {"kvm", "nova"}, {"xen", "kvm", "nova"},
                           {"esxi"}])
]

inventory_ops = st.lists(
    st.tuples(
        st.sampled_from(["open", "close", "commit", "advance"]),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        st.integers(min_value=0, max_value=len(RECORDS) - 1),
        st.integers(min_value=0, max_value=11),
        st.sampled_from(KINDS),
    ),
    max_size=40,
)


def _apply(inventory, op, now, record, host, kind):
    """Run one operation; a rejected one returns its error message."""
    try:
        if op == "open":
            inventory.open_cve(now, record)
        elif op == "close":
            inventory.close_cve(now, record.cve_id)
        elif op == "commit":
            inventory.commit_host(now, host, kind)
        else:
            inventory.advance(now)
    except SentinelError as exc:
        return str(exc)
    return None


@given(fleet=st.lists(st.sampled_from(KINDS), min_size=1, max_size=12),
       ops=inventory_ops)
@settings(max_examples=150, deadline=None)
def test_inventory_matches_full_scan(fleet, ops):
    hosts = {f"h{i:02d}": kind for i, kind in enumerate(fleet)}
    fast, reference = FleetInventory(hosts), FullScanInventory(hosts)
    now = 0.0
    for op, gap, cve, host, kind in ops:
        now += gap
        name = f"h{host % len(fleet):02d}"
        assert _apply(fast, op, now, RECORDS[cve], name, kind) == \
            _apply(reference, op, now, RECORDS[cve], name, kind)
        for record in RECORDS:
            assert fast.exposure_count(record.cve_id) == \
                reference.exposure_count(record.cve_id)
    fast.advance(now + 1.0)
    reference.advance(now + 1.0)
    # Exact float equality: the integral must not even re-associate.
    assert fast.exposure_s == reference.exposure_s
    assert fast.snapshot() == reference.snapshot()


# -- spare-slot budget -----------------------------------------------------------

PIPELINES = TransplantPipelines(verify=VerifySpec(0.01, 0.002))
WORKLOADS = tuple(WORKLOAD_SLO_S)


def _profile(name, workload, memory_gib, capable, migratable):
    return VMProfile(
        name=name, memory_bytes=memory_gib * GIB,
        dirty_rate_bytes_s={"idle": 1 << 20, "cpu-memory": 48 << 20,
                            "streaming": 96 << 20}[workload],
        downtime_slo_s=WORKLOAD_SLO_S[workload],
        inplace_capable=capable, migratable=migratable,
    )


@st.composite
def fleets(draw):
    """Hosts and slot providers drawn from one name space, so they
    interleave in sorted order and overlap: some hosts provide slots,
    some providers are spare nodes, some hosts are absent from the map,
    and some providers have zero slots."""
    names = [f"n{i:02d}" for i in range(draw(st.integers(1, 14)))]
    hosts = draw(st.lists(st.sampled_from(names), unique=True, max_size=10))
    host_vms = {
        host: [
            _profile(f"{host}-vm{j}", draw(st.sampled_from(WORKLOADS)),
                     draw(st.sampled_from([2, 4, 8])),
                     draw(st.booleans()), draw(st.booleans()))
            for j in range(draw(st.integers(0, 6)))
        ]
        for host in hosts
    }
    providers = draw(st.lists(st.sampled_from(names), unique=True))
    free_slots = {name: draw(st.integers(0, 5)) for name in providers}
    return host_vms, free_slots


@given(fleet=fleets(), kind=st.sampled_from(list(MechanismKind)))
@settings(max_examples=150, deadline=None)
def test_decide_fleet_matches_rescan(fleet, kind):
    host_vms, free_slots = fleet
    pipelines = dict(inplace=PIPELINES.inplace(HypervisorKind.KVM),
                     migration=PIPELINES.migration(HypervisorKind.KVM))
    assert decide_fleet(MechanismPolicy(kind), host_vms, free_slots,
                        **pipelines) == \
        decide_fleet_rescan(TwoPassPolicy(kind), host_vms, free_slots,
                            **pipelines)


# -- destination rotation --------------------------------------------------------

@st.composite
def clusters(draw):
    """A placement spec: per node its capacity and its VMs' ride flags.
    Small capacities make full nodes (and capacity failures) common."""
    nodes = []
    for _ in range(draw(st.integers(1, 14))):
        capacity = draw(st.integers(1, 6))
        rides = draw(st.lists(st.booleans(), max_size=capacity))
        nodes.append((capacity, rides))
    return nodes


def _build(spec):
    cluster = Cluster()
    index = 0
    for n, (capacity, rides) in enumerate(spec):
        cluster.add_node(ClusterNode(f"node{n:02d}", capacity_vms=capacity))
        for ride in rides:
            cluster.add_vm(ClusterVM(f"vm{index:03d}",
                                     workload=WorkloadKind.STREAMING,
                                     inplace_compatible=ride),
                           node_name=f"node{n:02d}")
            index += 1
    return cluster


def _outcome(planner_cls, spec, group_size, apply):
    cluster = _build(spec)
    try:
        result = planner_cls(cluster, group_size=group_size).plan(apply=apply)
    except PlanningError as exc:
        result = str(exc)
    placement = {name: (node.vms, node.hypervisor, node.upgraded)
                 for name, node in cluster.nodes.items()}
    return result, placement


@given(spec=clusters(), group_size=st.integers(1, 5), apply=st.booleans())
@settings(max_examples=200, deadline=None)
def test_planner_matches_live_list(spec, group_size, apply):
    assert _outcome(BtrPlacePlanner, spec, group_size, apply) == \
        _outcome(LiveListPlanner, spec, group_size, apply)


# -- accrual cost is independent of fleet size -------------------------------


def _affects_per_advance(monkeypatch, hosts):
    """(affects calls, open CVEs, distinct kinds) for every accrual of a
    sentinel replay on ``hosts`` hosts."""
    inside = [False]
    calls = [0]
    samples = []
    affects, advance = CVERecord.affects, FleetInventory.advance

    def counting_affects(self, kind):
        if inside[0]:
            calls[0] += 1
        return affects(self, kind)

    def measured_advance(self, now_s):
        before = calls[0]
        open_cves, kinds = len(self.open_cves()), len(self.kinds())
        inside[0] = True
        try:
            advance(self, now_s)
        finally:
            inside[0] = False
        samples.append((calls[0] - before, open_cves, kinds))

    monkeypatch.setattr(CVERecord, "affects", counting_affects)
    monkeypatch.setattr(FleetInventory, "advance", measured_advance)
    config = SentinelConfig(
        hosts=hosts, vms_per_host=4, seed=11,
        feed=FeedSchedule(seed=11, limit=60, mean_gap_days=7.0),
    )
    Sentinel(config).run()
    monkeypatch.undo()
    return samples


@pytest.mark.parametrize("hosts", [20, 80])
def test_accrual_cost_bounded_by_open_cves_times_kinds(monkeypatch, hosts):
    samples = _affects_per_advance(monkeypatch, hosts)
    assert any(calls for calls, _, _ in samples)  # the wrapper saw accruals
    assert any(kinds > 1 for _, _, kinds in samples)  # campaigns committed
    for calls, open_cves, kinds in samples:
        assert calls <= open_cves * kinds


# -- stage plans memoized by shape ---------------------------------------------

DIRTY_RATES = tuple(kind.dirty_rate_bytes_s for kind in WorkloadKind)


@st.composite
def plan_calls(draw):
    """A random call order over shapes built from small pools of values,
    so shapes repeat and often share all but one argument: a cache key
    that dropped an argument would hand back the wrong plan."""

    def pool(values):
        return st.sampled_from(draw(st.lists(values, min_size=1,
                                             max_size=3)))

    hosts = st.tuples(pool(st.integers(0, 24)),
                      pool(st.integers(0, 96 * GIB)))
    vms = st.tuples(pool(st.integers(0, 16 * GIB)),
                    pool(st.one_of(st.sampled_from(DIRTY_RATES),
                                   st.integers(0, 2 << 30))),
                    pool(st.integers(1, 8)))
    return draw(st.lists(st.one_of(
        st.tuples(st.just("host"), hosts),
        st.tuples(st.just("vm"), vms),
    ), max_size=30))


@given(kind=st.sampled_from(list(HypervisorKind)),
       verify=st.one_of(st.none(), st.builds(
           VerifySpec, st.floats(0.0, 1.0), st.floats(0.0, 0.1))),
       link_rate=st.floats(1e6, 1e10),
       charge_proxy=st.booleans(),
       calls=plan_calls())
@settings(max_examples=150, deadline=None)
def test_memoized_plans_match_rebuild(kind, verify, link_rate, charge_proxy,
                                      calls):
    inplace = InPlacePipeline(CLUSTER_NODE_SPEC, target_kind=kind,
                              verify=verify)
    migration = MigrationPipeline(link_rate, target_kind=kind,
                                  charge_proxy=charge_proxy)
    first_seen = {}
    # An empty host (no capture, no entries) is always among the shapes.
    for which, shape in calls + [("host", (0, 0))]:
        if which == "host":
            plan = inplace.plan_host(*shape)
            reference = plan_host_rebuild(inplace, *shape)
        else:
            plan = migration.plan_vm(*shape)
            reference = plan_vm_rebuild(migration, *shape)
        # Field by field, exact floats: the cache must not even
        # re-associate a sum.
        assert plan == reference
        # A repeated shape is served from the cache, not rebuilt.
        assert first_seen.setdefault((which, shape), plan) is plan


def _costing_calls(monkeypatch, config):
    """Per-argument call counts of the two expensive cost helpers over
    one fleet campaign."""
    precopy_calls, pram_calls = Counter(), Counter()
    plan_precopy, pram_phase_s = (pipeline_module.plan_precopy,
                                  CostModel.pram_phase_s)

    def counting_precopy(memory_bytes, rate_bytes_s, dirty_rate_bytes_s):
        precopy_calls[memory_bytes, rate_bytes_s, dirty_rate_bytes_s] += 1
        return plan_precopy(memory_bytes, rate_bytes_s, dirty_rate_bytes_s)

    def counting_pram(self, spec, entry_counts, *args, **kwargs):
        pram_calls[spec, tuple(entry_counts)] += 1
        return pram_phase_s(self, spec, entry_counts, *args, **kwargs)

    monkeypatch.setattr(pipeline_module, "plan_precopy", counting_precopy)
    monkeypatch.setattr(CostModel, "pram_phase_s", counting_pram)
    metrics = FleetController(config).run()
    monkeypatch.undo()
    return metrics, precopy_calls, pram_calls


def test_each_plan_shape_costed_once_per_campaign(monkeypatch):
    config = FleetConfig(hosts=100, mechanism="hybrid", seed=42)
    metrics, precopy_calls, pram_calls = _costing_calls(monkeypatch, config)
    assert metrics.done_hosts == 100
    assert metrics.migrations_executed > 100  # many VMs share few shapes
    # The wrappers saw the campaign, and it has only a handful of shapes.
    assert 0 < len(precopy_calls) <= len(WorkloadKind)
    assert 0 < len(pram_calls) <= NODE_CAPACITY_VMS + 1
    assert set(precopy_calls.values()) == {1}
    assert set(pram_calls.values()) == {1}


# -- campaign setup in bulk ----------------------------------------------------

DB = load_default_database()


def _fields(record):
    """A profile or plan record as its ``(field, value)`` pairs, so a
    named tuple and a frozen dataclass compare field by field."""
    if dataclasses.is_dataclass(record):
        return tuple((f.name, getattr(record, f.name))
                     for f in dataclasses.fields(record))
    return tuple(zip(record._fields, record, strict=True))


def _snapshot(cluster):
    """Node order, VM order, every field, and each node's VM list."""
    return ([(name, dataclasses.astuple(node))
             for name, node in cluster.nodes.items()],
            [(name, dataclasses.astuple(vm))
             for name, vm in cluster.vms.items()])


def _plan_rows(plan):
    return [(group.group_index, group.nodes,
             [_fields(m) for m in group.migrations],
             [_fields(u) for u in group.upgrades]) for group in plan.groups]


def _setup(build, profile, planner, host_plans, config):
    """Everything campaign setup produces from ``config``, in order,
    ending with the error that stopped it, if any."""
    args = (config.hosts, config.vms_per_host, config.inplace_fraction,
            config.seed)
    out = []
    try:
        # The BtrPlace plan under the paper's default split.
        cluster = build(*args)
        out.append(_snapshot(cluster))
        plan = planner(cluster, group_size=config.group_size).plan()
        out.append((_plan_rows(plan), _snapshot(cluster)))
        # The controller's setup: profiles, decisions, host plans.
        cluster = build(*args)
        initial_vms = {name: list(node.vms)
                       for name, node in cluster.nodes.items()}
        initial_free = {name: node.free_slots
                        for name, node in cluster.nodes.items()}
        out.append({host: [_fields(p) for p in vms]
                    for host, vms in profile(initial_vms, cluster).items()})
        controller = FleetController(config, db=DB)
        plans = host_plans(controller, cluster, initial_vms, initial_free)
        out.append(controller.decisions)
        out.append([(hp.name, hp.wave, _fields(hp.upgrade),
                     [(_fields(a), position, stages)
                      for a, position, stages in hp.evacuations],
                     hp.initial_vms, hp.plan) for hp in plans])
        out.append((controller._waves, controller._chain_counts,
                    _snapshot(cluster)))
    except (ClusterError, PlanningError) as error:
        out.append((type(error).__name__, str(error)))
    return out


def _bulk_setup(config):
    return _setup(
        build_paper_cluster,
        lambda initial_vms, cluster: cluster_profiles(initial_vms,
                                                      cluster.vms),
        BtrPlacePlanner, FleetController._build_host_plans, config)


def _per_vm_setup(config):
    return _setup(
        build_paper_cluster_per_vm,
        lambda initial_vms, cluster: {
            host: [FrozenVMProfile.from_cluster_vm(cluster.vms[vm])
                   for vm in vms]
            for host, vms in initial_vms.items()},
        FrozenRecordPlanner, build_host_plans_per_vm, config)


@given(hosts=st.integers(1, 40),
       vms_per_host=st.integers(0, NODE_CAPACITY_VMS),
       fraction=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1),
       group_size=st.integers(1, 4),
       mechanism=st.sampled_from([kind.value for kind in MechanismKind]))
# One host holds both vm999 and vm1000, whose name order and index
# order differ.
@example(hosts=143, vms_per_host=7, fraction=0.8, seed=7, group_size=2,
         mechanism="hybrid")
@example(hosts=67, vms_per_host=15, fraction=0.3, seed=42, group_size=3,
         mechanism="auto")
@settings(max_examples=100, deadline=None)
def test_campaign_setup_matches_per_vm_builders(hosts, vms_per_host,
                                                fraction, seed, group_size,
                                                mechanism):
    config = FleetConfig(hosts=hosts, vms_per_host=vms_per_host,
                         inplace_fraction=fraction, seed=seed,
                         group_size=group_size, mechanism=mechanism)
    assert _bulk_setup(config) == _per_vm_setup(config)


def _setup_counts(monkeypatch, hosts):
    """(done hosts, workload-fact derivations per workload, RNGs seeded)
    over one failure-free campaign."""
    derived = Counter()
    seeded = [0]
    workload_facts = mechanisms.workload_facts

    def counting_facts(workload):
        derived[workload] += 1
        return workload_facts(workload)

    class CountingRandom(random.Random):
        def __init__(self, *args, **kwargs):
            seeded[0] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(mechanisms, "workload_facts", counting_facts)
    monkeypatch.setattr(failures.random, "Random", CountingRandom)
    metrics = FleetController(FleetConfig(hosts=hosts, seed=42),
                              db=DB).run()
    monkeypatch.undo()
    return metrics.done_hosts, derived, seeded[0]


def test_setup_work_grows_with_classes_not_vms(monkeypatch):
    small = _setup_counts(monkeypatch, 20)
    large = _setup_counts(monkeypatch, 200)
    assert (small[0], large[0]) == (20, 200)
    # Each workload's facts are derived once per campaign, whatever its
    # size: three workloads, at most six (workload, in-place) classes.
    assert small[1] == large[1]
    assert set(small[1]) == set(WorkloadKind)
    assert set(small[1].values()) == {1}
    # Only the cluster's placement RNG: a fault stream whose phases all
    # have rate 0 is never seeded.
    assert small[2] == large[2] == 1
