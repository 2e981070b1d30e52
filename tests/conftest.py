"""Shared fixtures for the test suite."""

import pytest

from repro.guest.vm import VMConfig
from repro.hw.machine import M1_SPEC, M2_SPEC, Machine
from repro.hw.network import Fabric
from repro.hypervisors import KVMHypervisor, XenHypervisor

GIB = 1024 ** 3


@pytest.fixture
def m1():
    return Machine(M1_SPEC)


@pytest.fixture
def m2():
    return Machine(M2_SPEC)


@pytest.fixture
def xen_host(m1):
    """An M1 machine running Xen with one 1 vCPU / 1 GB guest."""
    xen = XenHypervisor()
    xen.boot(m1)
    xen.create_vm(VMConfig("guest0", vcpus=1, memory_bytes=GIB))
    return m1


@pytest.fixture
def xen_host_factory():
    def build(vm_count=1, vcpus=1, memory_gib=1.0, spec=M1_SPEC, name=None,
              inplace_compatible=True):
        machine = Machine(spec, name=name)
        xen = XenHypervisor()
        xen.boot(machine)
        for i in range(vm_count):
            xen.create_vm(VMConfig(
                name=f"{machine.name}-vm{i}",
                vcpus=vcpus,
                memory_bytes=int(memory_gib * GIB),
                seed=i,
                inplace_compatible=inplace_compatible,
            ))
        return machine
    return build


@pytest.fixture
def kvm_host_factory():
    def build(vm_count=0, vcpus=1, memory_gib=1.0, spec=M1_SPEC, name=None):
        machine = Machine(spec, name=name)
        kvm = KVMHypervisor()
        kvm.boot(machine)
        for i in range(vm_count):
            kvm.create_vm(VMConfig(
                name=f"{machine.name}-vm{i}",
                vcpus=vcpus,
                memory_bytes=int(memory_gib * GIB),
                seed=i,
            ))
        return machine
    return build


@pytest.fixture
def fabric():
    return Fabric()
