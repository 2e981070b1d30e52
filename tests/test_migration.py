"""Tests for MigrationTP and the homogeneous live-migration baseline."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import MigrationError
from repro.guest.drivers import PassthroughDriver
from repro.guest.vm import VMConfig
from repro.core.migration import LiveMigration, MigrationTP, migrate_group
from repro.core.timings import DEFAULT_COST_MODEL, plan_precopy
from repro.hw.machine import M1_SPEC, Machine
from repro.hw.network import Fabric
from repro.hypervisors import make_hypervisor
from repro.hypervisors.base import HypervisorKind
from repro.sim.clock import SimClock
from tests.oracles import (
    FormerLiveMigration,
    FormerMigrationTP,
    migrate_group_former,
)

GIB = 1024 ** 3
MB = 1 << 20


class TestPreCopyPlanning:
    def test_round1_ships_everything(self):
        rounds = plan_precopy(GIB, 100 * MB, MB)
        assert rounds[0].bytes_sent == GIB

    def test_idle_vm_converges_quickly(self):
        rounds = plan_precopy(GIB, 100 * MB, MB)
        assert len(rounds) <= 3
        assert rounds[-1].dirty_after_bytes <= GIB * 0.002

    def test_busy_vm_needs_more_rounds(self):
        idle = plan_precopy(GIB, 100 * MB, MB)
        busy = plan_precopy(GIB, 100 * MB, 50 * MB)
        assert len(busy) > len(idle)
        assert sum(r.bytes_sent for r in busy) > sum(r.bytes_sent for r in idle)

    def test_write_storm_cuts_to_stop_and_copy(self):
        # Dirty rate >= link rate: pre-copy cannot converge.
        rounds = plan_precopy(GIB, 100 * MB, 200 * MB)
        assert len(rounds) <= DEFAULT_COST_MODEL.max_precopy_rounds

    def test_round_budget_respected(self):
        rounds = plan_precopy(GIB, 100 * MB, 90 * MB)
        assert len(rounds) <= DEFAULT_COST_MODEL.max_precopy_rounds

    def test_zero_rate_rejected(self):
        with pytest.raises(MigrationError):
            plan_precopy(GIB, 0, MB)


class TestMigrationTP:
    def _pair(self, xen_host_factory, kvm_host_factory, fabric, **src_kwargs):
        source = xen_host_factory(name="src", **src_kwargs)
        destination = kvm_host_factory(name="dst")
        fabric.connect(source, destination)
        return source, destination

    def test_requires_heterogeneous(self, xen_host_factory, fabric):
        a = xen_host_factory(name="a")
        b = xen_host_factory(name="b", vm_count=0)
        fabric.connect(a, b)
        with pytest.raises(MigrationError):
            MigrationTP(fabric, a, b)

    def test_vm_lands_on_destination(self, xen_host_factory,
                                     kvm_host_factory, fabric):
        source, destination = self._pair(xen_host_factory, kvm_host_factory,
                                         fabric, vm_count=1)
        domain = next(iter(source.hypervisor.domains.values()))
        vm = domain.vm
        MigrationTP(fabric, source, destination).migrate(domain)
        assert not source.hypervisor.domains
        assert len(destination.hypervisor.domains) == 1
        assert vm in [d.vm for d in destination.hypervisor.domains.values()]
        assert vm.state.value == "running"

    def test_guest_pages_bit_identical(self, xen_host_factory,
                                       kvm_host_factory, fabric):
        source, destination = self._pair(xen_host_factory, kvm_host_factory,
                                         fabric, vm_count=1)
        domain = next(iter(source.hypervisor.domains.values()))
        digest = domain.vm.image.content_digest()
        report = MigrationTP(fabric, source, destination).migrate(domain)
        assert report.guest_digest_preserved
        assert domain.vm.image.content_digest() == digest

    def test_source_memory_released(self, xen_host_factory,
                                    kvm_host_factory, fabric):
        source, destination = self._pair(xen_host_factory, kvm_host_factory,
                                         fabric, vm_count=1)
        domain = next(iter(source.hypervisor.domains.values()))
        MigrationTP(fabric, source, destination).migrate(domain)
        assert source.memory.allocated_bytes == 0

    def test_table4_anchors(self, xen_host_factory, kvm_host_factory, fabric):
        # Table 4: ~9.6 s total, ~5 ms downtime for 1 GB over 1 Gbps.
        source, destination = self._pair(xen_host_factory, kvm_host_factory,
                                         fabric, vm_count=1)
        domain = next(iter(source.hypervisor.domains.values()))
        report = MigrationTP(fabric, source, destination).migrate(domain)
        assert report.total_s == pytest.approx(9.6, abs=1.0)
        assert report.downtime_s < 0.02

    def test_passthrough_device_blocks_migration(self, xen_host_factory,
                                                 kvm_host_factory, fabric):
        source, destination = self._pair(xen_host_factory, kvm_host_factory,
                                         fabric, vm_count=1)
        domain = next(iter(source.hypervisor.domains.values()))
        domain.vm.attach_device(PassthroughDriver("nic-vf0"))
        with pytest.raises(MigrationError):
            MigrationTP(fabric, source, destination).migrate(domain)

    def test_memory_size_scales_total_not_downtime(self, xen_host_factory,
                                                   kvm_host_factory, fabric):
        # Fig. 8/9: memory grows migration time; downtime barely moves.
        small_src, small_dst = self._pair(xen_host_factory, kvm_host_factory,
                                          fabric, vm_count=1, memory_gib=1.0)
        small = MigrationTP(fabric, small_src, small_dst).migrate(
            next(iter(small_src.hypervisor.domains.values()))
        )
        big_src = xen_host_factory(name="src-big", memory_gib=8.0)
        big_dst = kvm_host_factory(name="dst-big")
        fabric.connect(big_src, big_dst)
        big = MigrationTP(fabric, big_src, big_dst).migrate(
            next(iter(big_src.hypervisor.domains.values()))
        )
        assert big.total_s > 6 * small.total_s
        assert big.downtime_s == pytest.approx(small.downtime_s, abs=0.05)


class TestXenBaseline:
    def _xen_pair(self, xen_host_factory, fabric, vm_count=1):
        source = xen_host_factory(name="xsrc", vm_count=vm_count)
        destination = xen_host_factory(name="xdst", vm_count=0)
        fabric.connect(source, destination)
        return source, destination

    def test_requires_homogeneous(self, xen_host_factory, kvm_host_factory,
                                  fabric):
        a = xen_host_factory(name="a")
        b = kvm_host_factory(name="b")
        fabric.connect(a, b)
        with pytest.raises(MigrationError):
            LiveMigration(fabric, a, b)

    def test_table4_xen_downtime(self, xen_host_factory, fabric):
        source, destination = self._xen_pair(xen_host_factory, fabric)
        domain = next(iter(source.hypervisor.domains.values()))
        report = LiveMigration(fabric, source, destination).migrate(domain)
        # Table 4: 133.59 ms downtime, ~9.56 s total.
        assert report.downtime_s == pytest.approx(0.134, abs=0.03)
        assert report.total_s == pytest.approx(9.6, abs=1.0)

    def test_migrationtp_downtime_much_lower_than_xen(
            self, xen_host_factory, kvm_host_factory, fabric):
        xsrc, xdst = self._xen_pair(xen_host_factory, fabric)
        xen_report = LiveMigration(fabric, xsrc, xdst).migrate(
            next(iter(xsrc.hypervisor.domains.values()))
        )
        tsrc = xen_host_factory(name="tsrc")
        tdst = kvm_host_factory(name="tdst")
        fabric.connect(tsrc, tdst)
        tp_report = MigrationTP(fabric, tsrc, tdst).migrate(
            next(iter(tsrc.hypervisor.domains.values()))
        )
        # Table 4: 27x lower; accept an order of magnitude as the bar.
        assert xen_report.downtime_s > 10 * tp_report.downtime_s


class TestGroupMigration:
    def test_xen_downtime_variance_grows_with_vms(self, xen_host_factory,
                                                  fabric):
        source = xen_host_factory(name="gsrc", vm_count=6)
        destination = xen_host_factory(name="gdst", vm_count=0)
        fabric.connect(source, destination)
        domains = sorted(source.hypervisor.domains.values(),
                         key=lambda d: d.domid)
        reports = migrate_group(
            LiveMigration(fabric, source, destination), domains
        )
        downtimes = [r.downtime_s for r in reports]
        # Fig. 8: the receive queue makes later VMs wait longer.
        assert downtimes == sorted(downtimes)
        assert downtimes[-1] > 3 * downtimes[0]

    def test_migrationtp_downtime_constant_across_vms(self, xen_host_factory,
                                                      kvm_host_factory,
                                                      fabric):
        source = xen_host_factory(name="gsrc2", vm_count=6)
        destination = kvm_host_factory(name="gdst2")
        fabric.connect(source, destination)
        domains = sorted(source.hypervisor.domains.values(),
                         key=lambda d: d.domid)
        reports = migrate_group(
            MigrationTP(fabric, source, destination), domains
        )
        downtimes = [r.downtime_s for r in reports]
        assert max(downtimes) - min(downtimes) < 0.005

    def test_concurrency_slows_precopy(self, xen_host_factory,
                                       kvm_host_factory, fabric):
        source = xen_host_factory(name="gsrc3", vm_count=4)
        destination = kvm_host_factory(name="gdst3")
        fabric.connect(source, destination)
        domains = sorted(source.hypervisor.domains.values(),
                         key=lambda d: d.domid)
        reports = migrate_group(
            MigrationTP(fabric, source, destination), domains
        )
        # Four flows share the 1 Gbps link: ~4x a solo 1 GB migration.
        assert reports[0].precopy_s > 30.0


# -- the shared pre-copy workflow against the former per-class bodies ---------

KIND_PAIRS = st.tuples(st.sampled_from(list(HypervisorKind)),
                       st.sampled_from(list(HypervisorKind)))
#: 16-128 MiB guests, whole 2 MiB pages
MEMORY_MIB = st.integers(8, 64).map(lambda pages: 2 * pages)


def _host(kind, name, vm_count=0, vcpus=1, memory_mib=16):
    machine = Machine(M1_SPEC, name=name)
    hypervisor = make_hypervisor(kind)
    hypervisor.boot(machine)
    for i in range(vm_count):
        hypervisor.create_vm(VMConfig(
            f"{name}-vm{i}", vcpus=vcpus, memory_bytes=memory_mib * MB,
            seed=i,
        ))
    return machine


def _fresh_pair(kinds, **vms):
    """A fresh source/destination pair; every call builds the same one."""
    source = _host(kinds[0], "src", **vms)
    destination = _host(kinds[1], "dst")
    fabric = Fabric()
    fabric.connect(source, destination)
    domains = sorted(source.hypervisor.domains.values(),
                     key=lambda d: d.domid)
    return fabric, source, destination, domains


def _former_and_current(kinds):
    if kinds[0] is kinds[1]:
        return FormerLiveMigration, LiveMigration
    return FormerMigrationTP, MigrationTP


def _landed(reports, clock, destination):
    """Everything a migration leaves behind: the reports, the clock, and
    each arrived guest's image digest and native platform state."""
    hypervisor = destination.hypervisor
    domains = sorted(hypervisor.domains.values(), key=lambda d: d.domid)
    return ([repr(report) for report in reports], clock.now,
            [domain.vm.image.content_digest() for domain in domains],
            [hypervisor.save_platform_state(domain) for domain in domains])


@given(kinds=KIND_PAIRS, vcpus=st.integers(1, 4), memory_mib=MEMORY_MIB,
       dirty_mib_s=st.integers(0, 64), concurrent=st.integers(1, 4),
       position=st.integers(0, 3),
       writes_seed=st.none() | st.integers(0, 2 ** 32 - 1))
@example(kinds=(HypervisorKind.XEN, HypervisorKind.XEN), vcpus=1,
         memory_mib=16, dirty_mib_s=1, concurrent=1, position=2,
         writes_seed=None)
@example(kinds=(HypervisorKind.XEN, HypervisorKind.KVM), vcpus=2,
         memory_mib=128, dirty_mib_s=64, concurrent=4, position=3,
         writes_seed=7)
@settings(max_examples=150, deadline=None)
def test_migrate_matches_former_bodies(kinds, vcpus, memory_mib, dirty_mib_s,
                                       concurrent, position, writes_seed):
    landed = []
    for migrator_cls in _former_and_current(kinds):
        fabric, source, destination, (domain,) = _fresh_pair(
            kinds, vm_count=1, vcpus=vcpus, memory_mib=memory_mib)
        kwargs = {
            "dirty_rate_bytes_s": dirty_mib_s * MB,
            "concurrent": concurrent,
            "guest_writes_rng": (None if writes_seed is None
                                 else random.Random(writes_seed)),
        }
        # The former MigrationTP body took no queue position; the shared
        # workflow takes one and MigrationTP must ignore it.
        if migrator_cls is not FormerMigrationTP:
            kwargs["receive_queue_position"] = position
        clock = SimClock(5.0)
        report = migrator_cls(fabric, source, destination).migrate(
            domain, clock, **kwargs)
        landed.append(_landed([report], clock, destination))
    assert landed[0] == landed[1]


@given(kinds=KIND_PAIRS, vm_count=st.integers(1, 4), vcpus=st.integers(1, 4),
       memory_mib=MEMORY_MIB, dirty_mib_s=st.integers(0, 64))
@example(kinds=(HypervisorKind.XEN, HypervisorKind.XEN), vm_count=3,
         vcpus=1, memory_mib=16, dirty_mib_s=1)
@settings(max_examples=60, deadline=None)
def test_migrate_group_matches_former_driver(kinds, vm_count, vcpus,
                                             memory_mib, dirty_mib_s):
    landed = []
    for migrator_cls, group in zip(_former_and_current(kinds),
                                   (migrate_group_former, migrate_group)):
        fabric, source, destination, domains = _fresh_pair(
            kinds, vm_count=vm_count, vcpus=vcpus, memory_mib=memory_mib)
        clock = SimClock()
        reports = group(migrator_cls(fabric, source, destination), domains,
                        clock, dirty_rate_bytes_s=dirty_mib_s * MB)
        landed.append(_landed(reports, clock, destination))
    assert landed[0] == landed[1]
