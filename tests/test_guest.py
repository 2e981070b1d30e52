"""Tests for the guest layer: vCPUs, devices, images, VMs, drivers."""

import random

import pytest

from repro.errors import HardwareError, TransplantError, VMLifecycleError
from repro.guest.devices import (
    KVM_IOAPIC_PINS,
    XEN_IOAPIC_PINS,
    make_default_platform,
)
from repro.guest.drivers import (
    DriverState,
    EmulatedDriver,
    GuestDriver,
    NetworkDriver,
    PassthroughDriver,
)
from repro.guest.image import GuestImage
from repro.guest.vcpu import make_boot_vcpu
from repro.guest.vm import VirtualMachine, VMConfig, VMState
from repro.hw.memory import PAGE_2M, PhysicalMemory

GIB = 1024 ** 3


class TestVCPU:
    def test_deterministic_in_seed(self):
        a = make_boot_vcpu(0, seed=7)
        b = make_boot_vcpu(0, seed=7)
        assert a.architectural_view() == b.architectural_view()

    def test_different_seeds_differ(self):
        assert (make_boot_vcpu(0, seed=1).architectural_view()
                != make_boot_vcpu(0, seed=2).architectural_view())

    def test_copy_is_deep_enough(self):
        vcpu = make_boot_vcpu(0)
        clone = vcpu.copy()
        clone.gp["rax"] = 0
        assert vcpu.gp["rax"] != 0 or vcpu.architectural_view() != clone.architectural_view()

    def test_long_mode_invariants(self):
        vcpu = make_boot_vcpu(3)
        assert vcpu.control["cr0"] & 0x80000001 == 0x80000001  # PG|PE
        assert vcpu.control["efer"] & 0x500  # LME|LMA
        assert vcpu.gp["rflags"] & 0x2  # reserved bit


class TestPlatform:
    def test_xen_platform_has_48_pins(self):
        platform = make_default_platform(2)
        assert platform.ioapic.pin_count == XEN_IOAPIC_PINS

    def test_kvm_platform_has_24_pins(self):
        platform = make_default_platform(2, ioapic_pins=KVM_IOAPIC_PINS)
        assert platform.ioapic.pin_count == KVM_IOAPIC_PINS

    def test_per_vcpu_state_counts(self):
        platform = make_default_platform(4)
        assert len(platform.lapics) == 4
        assert len(platform.xsave) == 4
        assert [l.apic_id for l in platform.lapics] == [0, 1, 2, 3]

    def test_high_pins_are_disconnected(self):
        platform = make_default_platform(1)
        for pin in platform.ioapic.pins[16:]:
            assert pin.masked and pin.vector == 0

    def test_view_is_stable(self):
        a = make_default_platform(2, seed=3)
        b = make_default_platform(2, seed=3)
        assert a.architectural_view() == b.architectural_view()


class TestGuestImage:
    def test_allocates_backing_frames(self):
        memory = PhysicalMemory(2 * GIB)
        image = GuestImage(memory, GIB, page_size=PAGE_2M)
        assert image.page_count == 512
        assert memory.allocated_bytes == GIB

    def test_bad_size_rejected(self):
        memory = PhysicalMemory(GIB)
        with pytest.raises(HardwareError):
            GuestImage(memory, PAGE_2M + 1, page_size=PAGE_2M)

    def test_mappings_cover_every_gfn(self):
        memory = PhysicalMemory(GIB)
        image = GuestImage(memory, 64 * PAGE_2M)
        gfns = [g for g, _ in image.mappings()]
        assert gfns == list(range(64))

    def test_content_digest_changes_on_write(self):
        memory = PhysicalMemory(GIB)
        image = GuestImage(memory, 16 * PAGE_2M)
        before = image.content_digest()
        image.write_page(3, 0x1234)
        assert image.content_digest() != before
        assert image.read_page(3) == 0x1234

    def test_digest_deterministic_in_seed(self):
        m1, m2 = PhysicalMemory(GIB), PhysicalMemory(GIB)
        a = GuestImage(m1, 16 * PAGE_2M, seed=5)
        b = GuestImage(m2, 16 * PAGE_2M, seed=5)
        assert a.content_digest() == b.content_digest()

    def test_dirty_some_mutates_requested_fraction(self):
        memory = PhysicalMemory(GIB)
        image = GuestImage(memory, 100 * PAGE_2M)
        dirtied = image.dirty_some(0.25, random.Random(1))
        assert len(dirtied) == 25

    def test_dirty_fraction_validated(self):
        memory = PhysicalMemory(GIB)
        image = GuestImage(memory, 16 * PAGE_2M)
        with pytest.raises(HardwareError):
            image.dirty_some(1.5, random.Random(1))

    def test_release_frees_frames(self):
        memory = PhysicalMemory(GIB)
        image = GuestImage(memory, 64 * PAGE_2M)
        image.release()
        assert memory.allocated_bytes == 0
        with pytest.raises(VMLifecycleError):
            image.release()

    def test_pin_all_protects_across_reset(self):
        memory = PhysicalMemory(GIB)
        image = GuestImage(memory, 16 * PAGE_2M)
        digest = image.content_digest()
        image.pin_all()
        memory.reset_except_pinned()
        assert image.content_digest() == digest

    def test_adopt_mapping_requires_full_cover(self):
        memory = PhysicalMemory(GIB)
        image = GuestImage(memory, 4 * PAGE_2M)
        with pytest.raises(HardwareError):
            image.adopt_mapping({0: 0, 1: 512})


class TestVMLifecycle:
    def _vm(self, **kwargs):
        memory = PhysicalMemory(2 * GIB)
        config = VMConfig("t", vcpus=1, memory_bytes=GIB, **kwargs)
        return VirtualMachine(config, GuestImage(memory, GIB),
                              make_default_platform(1))

    def test_starts_running(self):
        assert self._vm().state is VMState.RUNNING

    def test_pause_resume_tracks_downtime(self):
        vm = self._vm()
        vm.pause(10.0)
        assert vm.state is VMState.PAUSED
        vm.resume(12.5)
        assert vm.state is VMState.RUNNING
        assert vm.total_downtime_s == pytest.approx(2.5)
        assert vm.pause_intervals == [(10.0, 12.5)]

    def test_suspend_path(self):
        vm = self._vm()
        vm.pause(1.0)
        vm.mark_suspended()
        assert vm.state is VMState.SUSPENDED
        vm.resume(4.0)
        assert vm.total_downtime_s == pytest.approx(3.0)

    def test_illegal_transitions_rejected(self):
        vm = self._vm()
        with pytest.raises(VMLifecycleError):
            vm.resume(1.0)  # not paused
        vm.pause(1.0)
        with pytest.raises(VMLifecycleError):
            vm.pause(2.0)  # already paused

    def test_destroy_releases_image(self):
        vm = self._vm()
        memory = vm.image.memory
        vm.destroy()
        assert vm.state is VMState.DESTROYED
        assert memory.allocated_bytes == 0
        with pytest.raises(VMLifecycleError):
            vm.pause(1.0)

    def test_config_validation(self):
        with pytest.raises(VMLifecycleError):
            VMConfig("bad", vcpus=0)
        with pytest.raises(VMLifecycleError):
            VMConfig("bad", memory_bytes=PAGE_2M + 5)

    def test_vcpu_count_must_match(self):
        memory = PhysicalMemory(2 * GIB)
        config = VMConfig("t", vcpus=2, memory_bytes=GIB)
        with pytest.raises(VMLifecycleError):
            VirtualMachine(config, GuestImage(memory, GIB),
                           make_default_platform(2),
                           vcpu_states=[make_boot_vcpu(0)])


class TestDrivers:
    def test_passthrough_pause_resume(self):
        driver = PassthroughDriver("gpu0")
        assert not driver.migratable
        driver.pause()
        assert driver.state is DriverState.PAUSED
        driver.resume()
        assert driver.state is DriverState.ACTIVE

    def test_double_pause_rejected(self):
        driver = PassthroughDriver("gpu0")
        driver.pause()
        with pytest.raises(TransplantError):
            driver.pause()

    def test_resume_without_pause_rejected(self):
        with pytest.raises(TransplantError):
            GuestDriver("d").resume()

    def test_network_unplug_rescan_keeps_tcp(self):
        nic = NetworkDriver()
        nic.unplug()
        assert nic.state is DriverState.UNPLUGGED
        assert nic.tcp_connections_alive
        nic.rescan()
        assert nic.state is DriverState.ACTIVE

    def test_rescan_requires_unplug(self):
        with pytest.raises(TransplantError):
            NetworkDriver().rescan()

    def test_emulated_is_migratable(self):
        assert EmulatedDriver("blk0").migratable

    def test_notification(self):
        driver = NetworkDriver()
        driver.notify_maintenance()
        assert driver.notified
