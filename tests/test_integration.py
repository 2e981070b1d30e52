"""Cross-module integration scenarios.

These exercise the whole stack the way the paper's deployment story does:
a CVE drops, the advisor picks a target, the orchestrator transplants the
fleet, workloads observe the blip, and everything survives bit-identical.
"""

from repro import (
    DatacenterAPI,
    HyperTP,
    HypervisorKind,
    LiveMigration,
    M1_SPEC,
    M2_SPEC,
    Machine,
    MigrationTP,
    NovaCompute,
    SimClock,
    TransplantAdvisor,
    XenHypervisor,
    load_default_database,
)
from repro.bench import make_host
from repro.guest.drivers import NetworkDriver
from repro.hw.network import Fabric
from repro.sim.engine import Engine
from repro.workloads import RedisWorkload, timeline_for_inplace

GIB = 1024 ** 3


class TestEmergencyResponseScenario:
    """The paper's Fig. 1(b) story, end to end."""

    def test_full_cycle(self):
        fabric = Fabric()
        nova = NovaCompute(fabric=fabric)
        hosts = [make_host(M1_SPEC, HypervisorKind.XEN, vm_count=3,
                           name=f"rack1-{i}")
                 for i in range(3)]
        for host in hosts:
            nova.register_host(host)
        digests = {
            host.name: {
                d.vm.name: d.vm.image.content_digest()
                for d in host.hypervisor.domains.values()
            }
            for host in hosts
        }

        api = DatacenterAPI(nova, TransplantAdvisor(load_default_database()))
        clock = SimClock()
        report = api.respond_to_cve("CVE-2016-6258", clock=clock)

        assert report.hosts_upgraded == 3
        assert report.worst_vm_disruption_s < 30.0  # the Azure bound
        for host in hosts:
            assert host.hypervisor.kind is HypervisorKind.KVM
            for domain in host.hypervisor.domains.values():
                assert domain.vm.state.value == "running"
                assert (domain.vm.image.content_digest()
                        == digests[host.name][domain.vm.name])

        # Patch ships: transplant back.
        api.revert_after_patch(HypervisorKind.XEN, clock=SimClock())
        for host in hosts:
            assert host.hypervisor.kind is HypervisorKind.XEN
            for domain in host.hypervisor.domains.values():
                assert (domain.vm.image.content_digest()
                        == digests[host.name][domain.vm.name])


class TestRepeatedTransplants:
    def test_ping_pong_five_rounds(self, xen_host_factory):
        machine = xen_host_factory(vm_count=2)
        vms = [d.vm for d in machine.hypervisor.domains.values()]
        digests = [vm.image.content_digest() for vm in vms]
        hypertp = HyperTP()
        clock = SimClock()
        kinds = [HypervisorKind.KVM, HypervisorKind.XEN] * 5
        for target in kinds:
            hypertp.inplace(machine, target, clock)
        assert machine.hypervisor.kind is HypervisorKind.XEN
        assert [vm.image.content_digest() for vm in vms] == digests
        for vm in vms:
            assert len(vm.pause_intervals) == 10

    def test_migrate_then_inplace(self, fabric):
        source = make_host(M1_SPEC, HypervisorKind.XEN, vm_count=2,
                           name="mi-src")
        destination = make_host(M1_SPEC, HypervisorKind.KVM, name="mi-dst")
        fabric.connect(source, destination)
        domains = sorted(source.hypervisor.domains.values(),
                         key=lambda d: d.domid)
        vm0 = domains[0].vm
        MigrationTP(fabric, source, destination).migrate(domains[0])
        # The emptied-out slot does not block the in-place transplant.
        report = HyperTP().inplace(source, HypervisorKind.KVM, SimClock())
        assert report.vm_count == 1
        assert vm0.state.value == "running"
        assert len(destination.hypervisor.domains) == 1


class TestWorkloadsThroughTransplants:
    def test_redis_observes_the_blip_in_engine_time(self, xen_host_factory):
        machine = xen_host_factory(vm_count=1, vcpus=2, memory_gib=8.0)
        vm = next(iter(machine.hypervisor.domains.values())).vm
        vm.attach_device(NetworkDriver("net0"))
        report = HyperTP().inplace(machine, HypervisorKind.KVM, SimClock())
        timeline = timeline_for_inplace(report, 50.0, HypervisorKind.XEN,
                                        HypervisorKind.KVM)

        engine = Engine()
        samples = []

        def sampler():
            workload = RedisWorkload(noise=0.0)
            for _ in range(180):
                samples.append((engine.now,
                                workload.sample(engine.now, timeline)))
                yield 1.0

        engine.run_process(sampler())
        outage = [t for t, v in samples if v == 0.0]
        assert outage, "the transplant blip must be visible"
        assert min(outage) >= 50.0
        assert max(outage) - min(outage) < 12.0


class TestHeterogeneousFleet:
    def test_mixed_machine_types(self):
        # M1 and M2 hosts in one fleet, upgraded in one sweep.
        nova = NovaCompute()
        for spec, name in ((M1_SPEC, "small"), (M2_SPEC, "big")):
            nova.register_host(make_host(spec, HypervisorKind.XEN,
                                         vm_count=1, name=name))
        api = DatacenterAPI(nova, TransplantAdvisor(load_default_database()))
        report = api.respond_to_cve("CVE-2016-6258")
        assert report.hosts_upgraded == 2
        small = report.per_host["small"].inplace
        big = report.per_host["big"].inplace
        # M2's reboot dominates its downtime; M1 stays under 2 s.
        assert small.downtime_s < big.downtime_s

    def test_baseline_migration_unaffected_by_hypertp_changes(self, fabric):
        # Xen->Xen still works as a baseline next to the transplant paths.
        a = make_host(M1_SPEC, HypervisorKind.XEN, vm_count=1, name="base-a")
        b = Machine(M1_SPEC, name="base-b")
        XenHypervisor().boot(b)
        fabric.connect(a, b)
        domain = next(iter(a.hypervisor.domains.values()))
        report = LiveMigration(fabric, a, b).migrate(domain)
        assert not report.heterogeneous
        assert report.guest_digest_preserved


class TestResourceHygiene:
    def test_no_leaked_pins_after_many_transplants(self, xen_host_factory):
        machine = xen_host_factory(vm_count=3)
        hypertp = HyperTP()
        clock = SimClock()
        for target in (HypervisorKind.KVM, HypervisorKind.XEN,
                       HypervisorKind.KVM):
            hypertp.inplace(machine, target, clock)
        assert not machine.memory.pinned_frames()

    def test_memory_footprint_stable_across_round_trip(self, xen_host_factory):
        machine = xen_host_factory(vm_count=2)
        before = machine.memory.allocated_bytes
        hypertp = HyperTP()
        clock = SimClock()
        hypertp.inplace(machine, HypervisorKind.KVM, clock)
        hypertp.inplace(machine, HypervisorKind.XEN, clock)
        assert machine.memory.allocated_bytes == before
