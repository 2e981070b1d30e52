"""Negative-path and contract tests for the generic hypervisor base."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HypervisorError
from repro.guest.vm import VMConfig
from repro.hw.machine import M1_SPEC, Machine
from repro.hw.memory import PAGE_2M, PAGE_4K
from repro.hypervisors import (
    HYPERVISOR_CLASSES,
    KVMHypervisor,
    NOVAHypervisor,
    XenHypervisor,
    make_hypervisor,
)
from repro.hypervisors.base import Hypervisor, HypervisorKind
from tests.oracles import (
    FORMER_SKELETONS,
    former_queue_contents,
    memory_report_former,
)

GIB = 1024 ** 3


class TestLifecycleContracts:
    def test_unbooted_hypervisor_rejects_operations(self):
        xen = XenHypervisor()
        with pytest.raises(HypervisorError, match="not booted"):
            xen.create_vm(VMConfig("g", memory_bytes=GIB))

    def test_unknown_domain_operations(self, m1):
        xen = XenHypervisor()
        xen.boot(m1)
        for operation in (xen.destroy_domain, xen.detach_domain):
            with pytest.raises(HypervisorError, match="no domain"):
                operation(99)
        with pytest.raises(HypervisorError):
            xen.pause_domain(99, 0.0)

    def test_domain_of_unknown_vm(self, m1, m2):
        xen = XenHypervisor()
        xen.boot(m1)
        other = KVMHypervisor()
        other.boot(m2)
        foreign = other.create_vm(VMConfig("f", memory_bytes=GIB))
        with pytest.raises(HypervisorError, match="not hosted"):
            xen.domain_of(foreign.vm)

    def test_domids_monotonic_across_destroy(self, m1):
        xen = XenHypervisor()
        xen.boot(m1)
        first = xen.create_vm(VMConfig("a", memory_bytes=GIB))
        xen.destroy_domain(first.domid)
        second = xen.create_vm(VMConfig("b", memory_bytes=GIB))
        assert second.domid > first.domid

    def test_shutdown_clears_machine_binding(self, m1):
        xen = XenHypervisor()
        xen.boot(m1)
        xen.shutdown()
        assert m1.hypervisor is None
        assert not xen.booted
        # The machine can host something else now.
        KVMHypervisor().boot(m1)

    def test_destroy_releases_guest_memory(self, m1):
        xen = XenHypervisor()
        xen.boot(m1)
        domain = xen.create_vm(VMConfig("a", memory_bytes=GIB))
        assert m1.memory.allocated_bytes == GIB
        xen.destroy_domain(domain.domid)
        assert m1.memory.allocated_bytes == 0

    def test_destroy_without_release_keeps_vm(self, m1):
        xen = XenHypervisor()
        xen.boot(m1)
        domain = xen.create_vm(VMConfig("a", memory_bytes=GIB))
        xen.destroy_domain(domain.domid, release_vm=False)
        assert m1.memory.allocated_bytes == GIB
        assert domain.vm.state.value == "running"


@pytest.mark.parametrize("kind", list(HypervisorKind),
                         ids=lambda kind: kind.value)
def test_fresh_vm_round_trips_its_own_platform_format(kind):
    # A VM gets the platform of the hypervisor that creates it, so its
    # native state blob saves and loads back without a fixup.
    hypervisor = make_hypervisor(kind)
    hypervisor.boot(Machine(M1_SPEC))
    domain = hypervisor.create_vm(VMConfig("g", vcpus=2, memory_bytes=GIB,
                                           seed=5))
    platform = domain.vm.platform.architectural_view()
    vcpus = [vcpu.architectural_view() for vcpu in domain.vm.vcpus]
    hypervisor.load_platform_state(domain,
                                   hypervisor.save_platform_state(domain))
    assert domain.vm.platform.ioapic.pin_count == hypervisor.ioapic_pins
    assert domain.vm.platform.architectural_view() == platform
    assert [vcpu.architectural_view() for vcpu in domain.vm.vcpus] == vcpus


class TestRegistryCompleteness:
    def test_every_kind_has_a_class(self):
        assert set(HYPERVISOR_CLASSES) == set(HypervisorKind)

    def test_make_hypervisor_all_kinds(self):
        for kind in HypervisorKind:
            assert make_hypervisor(kind).kind is kind

    def test_hypervisor_without_a_state_path_cannot_be_instantiated(self):
        # The one UISR converter pair reaches VM_i State only through
        # these methods, so a hypervisor lacking them fails here rather
        # than mid-transplant.
        class NoStatePath(Hypervisor):
            save_platform_state = XenHypervisor.save_platform_state
            load_platform_state = XenHypervisor.load_platform_state

        assert NoStatePath.__abstractmethods__ == {"read_vm_state",
                                                   "write_vm_state"}
        with pytest.raises(TypeError, match="abstract"):
            NoStatePath()

    def test_hypervisor_without_a_policy_cannot_be_instantiated(self):
        # The base class builds the NPT and the run queues from these
        # declarations, so leaving one out fails before any VM exists.
        class NoSchedulerPolicy(Hypervisor):
            kind = NOVAHypervisor.kind
            hv_type = NOVAHypervisor.hv_type
            ioapic_pins = NOVAHypervisor.ioapic_pins
            npt_policy = NOVAHypervisor.npt_policy
            npt_bytes_per_page = NOVAHypervisor.npt_bytes_per_page
            npt_root_pages = NOVAHypervisor.npt_root_pages
            save_platform_state = NOVAHypervisor.save_platform_state
            load_platform_state = NOVAHypervisor.load_platform_state
            read_vm_state = NOVAHypervisor.read_vm_state
            write_vm_state = NOVAHypervisor.write_vm_state

        with pytest.raises(TypeError, match="without declaring "
                                            "scheduler_name, vcpu_placement"):
            NoSchedulerPolicy()

    def test_every_kind_has_boot_model(self, m1):
        from repro.core.timings import DEFAULT_COST_MODEL

        for kind in HypervisorKind:
            assert DEFAULT_COST_MODEL.kernel_boot_s(m1.spec, kind) > 0

    def test_every_kind_has_stopcopy_model(self):
        from repro.core.timings import DEFAULT_COST_MODEL

        for kind in HypervisorKind:
            assert DEFAULT_COST_MODEL.stopcopy_overhead_s(kind, 1) > 0

    def test_every_kind_has_libvirt_uri(self, m1):
        from repro.orchestrator.libvirt import _URI_BY_KIND

        assert set(_URI_BY_KIND) == set(HypervisorKind)

    def test_every_kind_has_net_flavor(self):
        from repro.devices.model import NATIVE_NET_FLAVOR

        assert set(NATIVE_NET_FLAVOR) == {k.value for k in HypervisorKind}


class TestMemoryReportContract:
    def test_total_is_sum_of_categories(self, xen_host):
        report = xen_host.hypervisor.memory_report()
        assert report.total == (report.guest_state + report.vmi_state
                                + report.management_state + report.hv_state)

    def test_empty_host_has_no_guest_state(self, m1):
        xen = XenHypervisor()
        xen.boot(m1)
        report = xen.memory_report()
        assert report.guest_state == 0
        assert report.hv_state > 0


# -- the base class against the former per-hypervisor classes ---------------

KINDS = st.sampled_from(list(HypervisorKind))


def _former_report(scheduler):
    report = scheduler.report()
    if "pcpus" in report:  # the former credit scheduler's name for it
        report["cpus"] = report.pop("pcpus")
    return report


def _assert_same_run_queues(hypervisor, former):
    assert hypervisor.scheduler.queues == former_queue_contents(former)
    assert hypervisor.scheduler_report() == _former_report(former)


# (operation, argument): create a VM with that many vCPUs, destroy or
# detach the domain at that index, or rebuild the queues.
_OPS = st.lists(st.one_of(
    st.tuples(st.just("create"), st.integers(1, 8)),
    st.tuples(st.sampled_from(["destroy", "detach"]), st.integers(0, 63)),
    st.tuples(st.just("rebuild"), st.just(0)),
), max_size=24)


@given(kind=KINDS, cpus=st.integers(1, 32), ops=_OPS)
@settings(max_examples=150, deadline=None)
def test_run_queues_match_former_schedulers(kind, cpus, ops):
    """Run queues built from the declared placement hold the same
    ``(domid, vcpu)`` entries, queue by queue, and report the same as the
    former credit/CFS/priority-RR classes driven by the former hooks."""
    former_scheduler = FORMER_SKELETONS[kind].scheduler
    hypervisor = make_hypervisor(kind)
    _assert_same_run_queues(hypervisor, former_scheduler(1))
    hypervisor.boot(Machine(replace(M1_SPEC, cores=1, threads=cpus)))
    former = former_scheduler(cpus)
    for step, (op, arg) in enumerate(ops):
        if op == "create":
            domain = hypervisor.create_vm(VMConfig(
                f"vm{step}", vcpus=arg, memory_bytes=PAGE_2M))
            former.add_domain(domain.domid, arg)
        elif op == "rebuild":
            hypervisor.rebuild_management_state()
            former.rebuild(hypervisor.domains.values())
        elif hypervisor.domains:
            domid = sorted(hypervisor.domains)[arg % len(hypervisor.domains)]
            if op == "destroy":
                hypervisor.destroy_domain(domid)
            else:
                hypervisor.detach_domain(domid)
            former.remove_domain(domid)
        _assert_same_run_queues(hypervisor, former)


_VMS = st.lists(st.tuples(
    st.integers(1, 4),                      # vCPUs
    st.sampled_from([PAGE_4K, PAGE_2M]),    # page size
    st.integers(1, 64),                     # pages
    st.integers(0, 2 ** 16),                # seed
    st.booleans(),                          # native state blob saved
), min_size=1, max_size=6)


@given(kind=KINDS, vms=_VMS)
@settings(max_examples=100, deadline=None)
def test_npts_and_memory_report_match_former_classes(kind, vms):
    """Each VM's NPT built from the declared policy equals the former
    p2m/EPT/NOVA class's, and the memory report equals the former one
    with its per-hypervisor ``_vmi_fixed_overhead``."""
    former = FORMER_SKELETONS[kind]
    hypervisor = make_hypervisor(kind)
    hypervisor.boot(Machine(M1_SPEC))
    for index, (vcpus, page_size, pages, seed, saved) in enumerate(vms):
        domain = hypervisor.create_vm(VMConfig(
            f"vm{index}", vcpus=vcpus, memory_bytes=pages * page_size,
            page_size=page_size, seed=seed))
        if saved:
            hypervisor.save_platform_state(domain)
        npt, former_npt = domain.npt, former.build_npt(domain.vm)
        assert (npt.policy_tag, npt.metadata_bytes, npt.page_size,
                npt.gfn_to_mfn) == (
            former_npt.policy_tag, former_npt.metadata_bytes,
            former_npt.page_size, former_npt.gfn_to_mfn)
    assert hypervisor.memory_report() == memory_report_former(hypervisor)
