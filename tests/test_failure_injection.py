"""Failure-injection tests: aborts, rollbacks and points of no return."""

import pytest

from repro.errors import TransplantError, MigrationError
from repro.guest.drivers import NetworkDriver, PassthroughDriver
from repro.guest.vm import VMState
from repro.hw.machine import Machine, MachineSpec
from repro.hypervisors import KVMHypervisor, XenHypervisor
from repro.hypervisors.base import HypervisorKind
from repro.sim.clock import SimClock
from repro.core.inplace import InPlaceTP
from repro.core.migration import LiveMigration, MigrationTP

GIB = 1024 ** 3


class Bomb(Exception):
    """The injected failure."""


def failing_at(phase_to_fail):
    def hook(phase):
        if phase == phase_to_fail:
            raise Bomb(f"injected at {phase}")
    return hook


ABORTABLE_PHASES = ["stage", "prepare", "pram", "pause", "translate",
                    "store-uisr"]


class TestInPlaceRollback:
    @pytest.mark.parametrize("phase", ABORTABLE_PHASES)
    def test_abort_resumes_vms_on_source(self, xen_host_factory, phase):
        machine = xen_host_factory(vm_count=2)
        vms = [d.vm for d in machine.hypervisor.domains.values()]
        digests = [vm.image.content_digest() for vm in vms]
        transplant = InPlaceTP(machine, HypervisorKind.KVM,
                               failure_hook=failing_at(phase))
        with pytest.raises(TransplantError, match="aborted"):
            transplant.run(SimClock())
        assert transplant.rolled_back
        # Still Xen, VMs running, memory intact, nothing pinned or staged.
        assert machine.hypervisor.kind is HypervisorKind.XEN
        for vm, digest in zip(vms, digests, strict=True):
            assert vm.state is VMState.RUNNING
            assert vm.image.content_digest() == digest
        assert not machine.memory.pinned_frames()
        assert machine.staged_kernel is None

    @pytest.mark.parametrize("phase", ABORTABLE_PHASES)
    def test_abort_leaves_no_memory_leak(self, xen_host_factory, phase):
        machine = xen_host_factory(vm_count=2)
        before = machine.memory.allocated_bytes
        transplant = InPlaceTP(machine, HypervisorKind.KVM,
                               failure_hook=failing_at(phase))
        with pytest.raises(TransplantError):
            transplant.run(SimClock())
        assert machine.memory.allocated_bytes == before

    def test_abort_restores_devices(self, xen_host_factory):
        machine = xen_host_factory(vm_count=1)
        vm = next(iter(machine.hypervisor.domains.values())).vm
        nic = NetworkDriver("net0")
        gpu = PassthroughDriver("gpu0")
        vm.attach_device(nic)
        vm.attach_device(gpu)
        transplant = InPlaceTP(machine, HypervisorKind.KVM,
                               failure_hook=failing_at("translate"))
        with pytest.raises(TransplantError):
            transplant.run(SimClock())
        assert nic.state.value == "active"
        assert gpu.state.value == "active"

    def test_retry_after_abort_succeeds(self, xen_host_factory):
        machine = xen_host_factory(vm_count=2)
        vms = [d.vm for d in machine.hypervisor.domains.values()]
        digests = [vm.image.content_digest() for vm in vms]
        failing = InPlaceTP(machine, HypervisorKind.KVM,
                            failure_hook=failing_at("pram"))
        with pytest.raises(TransplantError):
            failing.run(SimClock())
        # A clean retry on the same machine works.
        report = InPlaceTP(machine, HypervisorKind.KVM).run(SimClock())
        assert report.guest_digests_preserved
        assert machine.hypervisor.kind is HypervisorKind.KVM
        assert [vm.image.content_digest() for vm in vms] == digests

    def test_failure_after_reboot_is_not_rolled_back(self, xen_host_factory):
        """The micro-reboot is the point of no return: a post-reboot
        failure surfaces as-is and the machine now runs the target."""
        machine = xen_host_factory(vm_count=1)
        transplant = InPlaceTP(machine, HypervisorKind.KVM,
                               failure_hook=failing_at("reboot"))
        with pytest.raises(Bomb):
            transplant.run(SimClock())
        assert not transplant.rolled_back
        assert machine.hypervisor.kind is HypervisorKind.KVM

    def test_hook_sees_phases_in_order(self, xen_host_factory):
        machine = xen_host_factory(vm_count=1)
        seen = []
        InPlaceTP(machine, HypervisorKind.KVM,
                  failure_hook=seen.append).run(SimClock())
        assert seen == ["stage", "prepare", "pram", "pause", "translate",
                        "store-uisr", "reboot", "restore"]
        assert seen[:6] == ABORTABLE_PHASES


class TestMigrationAbort:
    @pytest.mark.parametrize("migrator_cls, hypervisor_cls", [
        (MigrationTP, KVMHypervisor),
        (LiveMigration, XenHypervisor),
    ], ids=["MigrationTP", "LiveMigration"])
    def test_destination_oom_resumes_source(self, xen_host_factory, fabric,
                                            migrator_cls, hypervisor_cls):
        # Destination machine too small to hold the incoming guest.
        tiny_spec = MachineSpec(
            name="tiny", cores=2, threads=4, frequency_ghz=2.0,
            ram_bytes=512 * 1024 * 1024, nic_gbps=1.0, nic_init_s=1.0,
        )
        source = xen_host_factory(name="oom-src", memory_gib=1.0)
        destination = Machine(tiny_spec, name="oom-dst")
        hypervisor_cls().boot(destination)
        fabric.connect(source, destination)
        domain = next(iter(source.hypervisor.domains.values()))
        vm = domain.vm
        digest = vm.image.content_digest()
        with pytest.raises(MigrationError, match="resumed on the source"):
            migrator_cls(fabric, source, destination).migrate(domain)
        # Source still owns and runs the VM, bit-identical.
        assert vm.state is VMState.RUNNING
        assert domain.domid in source.hypervisor.domains
        assert vm.image.content_digest() == digest
        assert not destination.hypervisor.domains

    def test_retry_to_healthy_destination(self, xen_host_factory,
                                          kvm_host_factory, fabric):
        tiny_spec = MachineSpec(
            name="tiny2", cores=2, threads=4, frequency_ghz=2.0,
            ram_bytes=512 * 1024 * 1024, nic_gbps=1.0, nic_init_s=1.0,
        )
        source = xen_host_factory(name="r-src", memory_gib=1.0)
        bad = Machine(tiny_spec, name="r-bad")
        KVMHypervisor().boot(bad)
        good = kvm_host_factory(name="r-good")
        fabric.connect(source, bad)
        fabric.connect(source, good)
        domain = next(iter(source.hypervisor.domains.values()))
        with pytest.raises(MigrationError):
            MigrationTP(fabric, source, bad).migrate(domain)
        report = MigrationTP(fabric, source, good).migrate(domain)
        assert report.guest_digest_preserved
        assert len(good.hypervisor.domains) == 1
