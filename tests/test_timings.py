"""Tests for the calibrated cost model."""

import dataclasses

import pytest

from repro.hw.machine import M1_SPEC, M2_SPEC
from repro.hw.memory import PAGE_2M
from repro.hypervisors.base import HypervisorKind
from repro.core.timings import DEFAULT_COST_MODEL, CostModel, entries_for

GIB = 1024 ** 3
cost = DEFAULT_COST_MODEL


class TestEntries:
    def test_huge_pages_512_per_gib(self):
        assert entries_for(GIB, PAGE_2M, huge_pages=True) == 512

    def test_4k_fallback(self):
        assert entries_for(GIB, PAGE_2M, huge_pages=False) == 262144

    def test_rounding_up(self):
        assert entries_for(PAGE_2M + 1, PAGE_2M, huge_pages=True) == 2


class TestBootModel:
    def test_xen_boots_slower_than_kvm(self):
        m1 = M1_SPEC
        assert (cost.kernel_boot_s(m1, HypervisorKind.XEN)
                > 3 * cost.kernel_boot_s(m1, HypervisorKind.KVM))

    def test_m2_boots_slower_than_m1(self):
        m1, m2 = M1_SPEC, M2_SPEC
        for kind in (HypervisorKind.XEN, HypervisorKind.KVM):
            assert cost.kernel_boot_s(m2, kind) > cost.kernel_boot_s(m1, kind)

    def test_reboot_includes_sequential_pram_parse(self):
        m1 = M1_SPEC
        empty = cost.reboot_phase_s(m1, HypervisorKind.KVM, 0)
        loaded = cost.reboot_phase_s(m1, HypervisorKind.KVM, 6144)
        assert loaded > empty
        assert loaded - empty == pytest.approx(6144 * cost.pram_parse_per_entry_s,
                                               rel=0.01)


class TestPhaseModels:
    def test_pram_parallel_beats_serial(self):
        m1 = M1_SPEC
        entries = [512] * 8
        assert (cost.pram_phase_s(m1, entries, parallel=True)
                < cost.pram_phase_s(m1, entries, parallel=False))

    def test_translate_scales_with_host_ram(self):
        m1, m2 = M1_SPEC, M2_SPEC
        shape = [(1, 512)]
        # M2 is slower per-thread AND scans 4x the RAM.
        assert (cost.translate_phase_s(m2, shape)
                > cost.translate_phase_s(m1, shape))

    def test_restore_early_restoration_saves_time(self):
        m1 = M1_SPEC
        shape = [(1, 512)]
        fast = cost.restore_phase_s(m1, shape, early_restoration=True)
        slow = cost.restore_phase_s(m1, shape, early_restoration=False)
        assert slow - fast == pytest.approx(cost.early_restore_saving_s)

    def test_stopcopy_kvmtool_cheaper_than_xen(self):
        kvm = cost.stopcopy_overhead_s(HypervisorKind.KVM, 1)
        xen = cost.stopcopy_overhead_s(HypervisorKind.XEN, 1)
        assert xen > 20 * kvm

    def test_stopcopy_grows_with_vcpus(self):
        assert (cost.stopcopy_overhead_s(HypervisorKind.XEN, 10)
                > cost.stopcopy_overhead_s(HypervisorKind.XEN, 1))


class TestCustomModel:
    def test_frozen_dataclass(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            cost.kexec_jump_s = 1.0

    def test_custom_values_flow_through(self):
        slow_boot = CostModel(kvm_kernel_boot_s=10.0)
        m1 = M1_SPEC
        assert slow_boot.kernel_boot_s(m1, HypervisorKind.KVM) > 10.0
