"""Tests for machine specs, NICs and the network fabric."""

import pytest

from repro.errors import HardwareError
from repro.hw.machine import CLUSTER_NODE_SPEC, M1_SPEC, M2_SPEC, Machine, MachineSpec
from repro.hw.nic import NIC


class TestSpecs:
    def test_m1_matches_table3(self):
        assert M1_SPEC.cores == 4
        assert M1_SPEC.threads == 8
        assert M1_SPEC.ram_bytes == 16 * 1024 ** 3
        assert M1_SPEC.nic_gbps == 1.0

    def test_m2_matches_table3(self):
        assert M2_SPEC.cores == 28
        assert M2_SPEC.ram_bytes == 64 * 1024 ** 3

    def test_cluster_node_has_10gbps(self):
        assert CLUSTER_NODE_SPEC.nic_gbps == 10.0
        assert CLUSTER_NODE_SPEC.ram_bytes == 96 * 1024 ** 3

    def test_admin_cpu_reservation(self):
        # §5.1: 2 CPUs reserved for the administration OS.
        assert M1_SPEC.worker_threads == 6
        assert M2_SPEC.worker_threads == 26

    def test_invalid_spec_rejected(self):
        with pytest.raises(HardwareError):
            MachineSpec(name="bad", cores=0, threads=0, frequency_ghz=1.0,
                        ram_bytes=1024 ** 3, nic_gbps=1.0, nic_init_s=1.0)


class TestMachine:
    def test_machine_owns_memory_and_nic(self, m1):
        assert m1.memory.total_bytes == M1_SPEC.ram_bytes
        assert m1.nic.link_up

    def test_names_are_unique(self):
        a = Machine(M1_SPEC)
        b = Machine(M1_SPEC)
        assert a.name != b.name

    def test_host_work_time_scales_by_speed_factor(self):
        assert M2_SPEC.host_work_time(1.0) == pytest.approx(2.5 / 1.7)

    def test_host_work_time_rejects_negative(self):
        with pytest.raises(HardwareError):
            M1_SPEC.host_work_time(-1.0)

    def test_stage_kernel(self, m1):
        m1.stage_kernel("image")
        assert m1.staged_kernel == "image"


class TestNIC:
    def test_reset_takes_link_down(self):
        nic = NIC(rate_bytes_per_s=1e9, init_s=2.0)
        assert nic.reset() == 2.0
        assert not nic.link_up
        nic.bring_up()
        assert nic.link_up

    def test_invalid_rates_rejected(self):
        with pytest.raises(HardwareError):
            NIC(rate_bytes_per_s=0, init_s=1.0)
        with pytest.raises(HardwareError):
            NIC(rate_bytes_per_s=1e9, init_s=-1.0)


class TestFabric:
    def test_connect_and_lookup(self, fabric):
        a, b = Machine(M1_SPEC), Machine(M1_SPEC)
        fabric.connect(a, b)
        assert fabric.connected(a, b)
        assert fabric.connected(b, a)
        link = fabric.link_between(b, a)
        assert set(link.endpoints()) == {a.name, b.name}

    def test_missing_link_raises(self, fabric):
        a, b = Machine(M1_SPEC), Machine(M1_SPEC)
        with pytest.raises(HardwareError):
            fabric.link_between(a, b)

    def test_self_link_rejected(self, fabric):
        a = Machine(M1_SPEC)
        with pytest.raises(HardwareError):
            fabric.connect(a, a)

    def test_link_rate_bound_by_slower_nic(self, fabric):
        a = Machine(M1_SPEC)  # 1 Gbps
        b = Machine(CLUSTER_NODE_SPEC)  # 10 Gbps
        link = fabric.connect(a, b)
        one_gig_effective = 0.93 * 1e9 / 8
        assert link.pipe.bytes_per_second == pytest.approx(one_gig_effective)

    def test_full_mesh(self, fabric):
        machines = [Machine(M1_SPEC) for _ in range(4)]
        fabric.full_mesh(machines)
        for i, a in enumerate(machines):
            for b in machines[i + 1:]:
                assert fabric.connected(a, b)

    def test_transfer_time_uses_contention(self, fabric):
        a, b = Machine(M1_SPEC), Machine(M1_SPEC)
        link = fabric.connect(a, b)
        solo = link.transfer_time(1e9, concurrent=1)
        shared = link.transfer_time(1e9, concurrent=4)
        assert shared == pytest.approx(4 * solo, rel=0.01)
